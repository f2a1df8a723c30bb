package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// sent is one request of an open-loop schedule, on the monotonic clock.
type sent struct {
	due  time.Time // when the schedule wanted it sent
	free time.Time // when a connection picked it up
	sent time.Time // when the send started
	done time.Time // when the last response byte was read
	err  error
}

// latency is measured from the due time, so a stall that delays later
// requests counts against them too (no coordinated omission).
func (s sent) latency() time.Duration { return s.done.Sub(s.due) }

// dueWait is how long the request waited for a free connection after
// it was due.
func (s sent) dueWait() time.Duration {
	if s.free.After(s.due) {
		return s.free.Sub(s.due)
	}
	return 0
}

// late is the generator's own lateness: from the moment the request
// could have been sent (due, with a connection free) to the send.
func (s sent) late() time.Duration {
	from := s.due
	if s.free.After(from) {
		from = s.free
	}
	return s.sent.Sub(from)
}

// openLoop sends n requests, request i due at start + i·interval, over
// conns connections. Each connection takes the next request in order
// and sleeps until it is due, so a slow response delays only the
// requests that find every connection busy, and due times never drift
// with the time spent sending. It returns once every send has ended.
func openLoop(start time.Time, n int, interval time.Duration, conns int, send func(i int) error) []sent {
	out := make([]sent, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				r := &out[i]
				r.due = start.Add(time.Duration(i) * interval)
				r.free = time.Now()
				if d := time.Until(r.due); d > 0 {
					time.Sleep(d)
				}
				r.sent = time.Now()
				r.err = send(i)
				r.done = time.Now()
			}
		}()
	}
	wg.Wait()
	return out
}
