package main

import (
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNearestRankPercentile(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 100..1, unsorted on purpose
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {0.1, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples is not NaN")
	}
}

// TestTailRule pins how many samples lie beyond a tail percentile, and
// that each workload's fixed tail percentile leaves at least minBeyond
// beyond it at that workload's sample count on a 25 s window.
func TestTailRule(t *testing.T) {
	for _, c := range []struct {
		p    float64
		n    int
		want int
	}{
		{99, 1200, 12}, {99, 1000, 10}, {99, 999, 9}, {90, 100, 10}, {90, 99, 9}, {75, 40, 10}, {99.9, 1200, 1}, {50, 0, 0},
	} {
		if got := beyond(c.p, c.n); got != c.want {
			t.Errorf("beyond(p%g, n=%d) = %d, want %d", c.p, c.n, got, c.want)
		}
	}
	// Sample counts of a 25 s window: serve-mix is fixed by its rate;
	// the job workloads' counts are the lowest seen on a 2-core host.
	counts := map[string]int{"serve-mix": serveRate * 25, "stats-host": 100, "pim-stats": 45}
	for name, spec := range workloads {
		if b := beyond(spec.tailP, counts[name]); b < minBeyond {
			t.Errorf("%s: p%g leaves %d samples beyond at n=%d, want ≥ %d", name, spec.tailP, b, counts[name], minBeyond)
		}
	}
}

func at(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }

func TestSelfTime(t *testing.T) {
	parent := interval{at(0), at(100)}
	children := []interval{
		{at(10), at(30)},
		{at(20), at(40)},  // overlaps the first: [10,40] counts once
		{at(90), at(120)}, // clipped to [90,100]
		{at(-10), at(5)},  // clipped to [0,5]
		{at(60), at(60)},  // empty
		{at(150), at(160)},
	}
	if got, want := selfTime(parent, children), 55*time.Millisecond; got != want {
		t.Errorf("selfTime = %v, want %v", got, want)
	}
	if got := selfTime(parent, nil); got != 100*time.Millisecond {
		t.Errorf("selfTime without children = %v, want the whole span", got)
	}
}

// TestDueTimeLatencyUnderStall stalls the server on the first request
// of an open loop over one connection: the requests due during the
// stall must be charged the stall, measured from their due time, not
// from the moment they were finally sent.
func TestDueTimeLatencyUnderStall(t *testing.T) {
	const stall, step = 100 * time.Millisecond, 10 * time.Millisecond
	var first sync.Once
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		first.Do(func() { time.Sleep(stall) })
		io.WriteString(w, "ok")
	}))
	defer srv.Close()
	client := srv.Client()
	res := openLoop(time.Now(), 6, step, 1, func(i int) error {
		resp, err := client.Get(srv.URL)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	})
	for k, r := range res {
		if r.err != nil {
			t.Fatalf("request %d: %v", k, r.err)
		}
	}
	for k := 1; k < len(res); k++ {
		r := res[k]
		owed := stall - time.Duration(k)*step // stall left when request k fell due
		if r.latency() < owed {
			t.Errorf("request %d: latency from due %v < %v still owed to the stall", k, r.latency(), owed)
		}
		if r.dueWait() < owed {
			t.Errorf("request %d: waited %v for the connection, want ≥ %v", k, r.dueWait(), owed)
		}
		if send := r.done.Sub(r.sent); send > r.latency()/2 {
			t.Errorf("request %d: time from send %v is not the small part of latency %v", k, send, r.latency())
		}
	}
	if res[0].latency() < stall {
		t.Errorf("stalled request latency %v < stall %v", res[0].latency(), stall)
	}
}

func TestOpenLoopKeepsSchedule(t *testing.T) {
	start := time.Now().Add(5 * time.Millisecond)
	res := openLoop(start, 5, 20*time.Millisecond, 2, func(int) error { return nil })
	for i, r := range res {
		if want := start.Add(time.Duration(i) * 20 * time.Millisecond); !r.due.Equal(want) {
			t.Errorf("request %d due %v, want %v", i, r.due, want)
		}
		if r.sent.Before(r.due) {
			t.Errorf("request %d sent %v before it was due", i, r.due.Sub(r.sent))
		}
		if r.dueWait() != 0 {
			t.Errorf("request %d waited %v for a connection on an idle loop", i, r.dueWait())
		}
	}
}

func TestReconcile(t *testing.T) {
	rows := []ledgerRow{{"a", 4}, {"b", 5.5}}
	if l := reconcile(rows, 10, 0.1); !l.ok || math.Abs(l.remainder-0.5) > 1e-12 || l.sum != 9.5 {
		t.Errorf("rows 9.5 vs p50 10 at 10%%: %+v, want reconciled with remainder 0.5", l)
	}
	if l := reconcile(rows, 11, 0.1); l.ok {
		t.Errorf("rows 9.5 vs p50 11 at 10%%: reconciled, want not (remainder %g)", l.remainder)
	}
	if l := reconcile(rows, 0, 0.1); l.ok {
		t.Error("reconciled against a zero client p50")
	}

	// Stages that add up per request add up over the p50 cohort, where
	// their separate medians do not.
	total := []float64{3, 10, 10, 10, 30}
	stages := [][]float64{{2, 9, 1, 1, 29}, {1, 1, 9, 9, 1}}
	means, n, err := cohortMeans(total, stages, 40, 60)
	if err != nil || n != 3 {
		t.Fatalf("cohortMeans: n=%d err=%v, want the 3 requests at the p50", n, err)
	}
	if l := reconcile([]ledgerRow{{"x", means[0]}, {"y", means[1]}}, median(total), 0.01); !l.ok || math.Abs(l.remainder) > 1e-12 {
		t.Errorf("cohort rows %v do not reconcile with p50 %g: %+v", means, median(total), l)
	}
	if s := median(stages[0]) + median(stages[1]); s == median(total) {
		t.Errorf("medians of stages happen to add up (%g); the case does not show the point", s)
	}
}

func TestReadEqual(t *testing.T) {
	want := []byte(strings.Repeat("ciphertext", 10000))
	if err := readEqual(strings.NewReader(string(want)), want); err != nil {
		t.Errorf("equal bytes: %v", err)
	}
	bad := []byte(string(want))
	bad[len(bad)-1] ^= 1
	for name, body := range map[string]string{
		"flipped": string(bad),
		"short":   string(want[:len(want)-1]),
		"long":    string(want) + "x",
		"empty":   "",
	} {
		if err := readEqual(strings.NewReader(body), want); !errors.Is(err, errMismatch) {
			t.Errorf("%s body: err %v, want errMismatch", name, err)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's metric lists and the
// program's in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", what, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is unknown to the program", w.Name)
		}
	}
}
