package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// interval is one span's extent on the monotonic clock.
type interval struct{ start, end time.Time }

func (iv interval) dur() time.Duration { return iv.end.Sub(iv.start) }

// selfTime is a span's own time: the parent's duration minus the part
// of it that the union of its children covers. Children are clipped to
// the parent and may overlap each other; overlapping time counts once.
func selfTime(parent interval, children []interval) time.Duration {
	var clipped []interval
	for _, c := range children {
		if c.start.Before(parent.start) {
			c.start = parent.start
		}
		if c.end.After(parent.end) {
			c.end = parent.end
		}
		if c.end.After(c.start) {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start.Before(clipped[j].start) })
	var covered time.Duration
	var cur interval
	for i, c := range clipped {
		switch {
		case i == 0:
			cur = c
		case !c.start.After(cur.end):
			if c.end.After(cur.end) {
				cur.end = c.end
			}
		default:
			covered += cur.dur()
			cur = c
		}
	}
	if len(clipped) > 0 {
		covered += cur.dur()
	}
	return parent.dur() - covered
}

// ledgerTolerance is how far, as a share of the client p50, the ledger
// rows of a served request may sum from the client p50 before the
// traced run reports the ledger as not reconciled.
const ledgerTolerance = 0.10

// ledgerRow is one stage of a served request, in milliseconds.
type ledgerRow struct {
	name string
	ms   float64
}

// ledger is the reconciliation of stage rows against client latency.
type ledger struct {
	rows      []ledgerRow
	sum       float64 // Σ rows
	clientP50 float64 // client latency from due time, p50
	remainder float64 // clientP50 − sum: time no stage accounts for
	ok        bool    // |remainder| ≤ ledgerTolerance·clientP50
}

// reconcile checks that rows account for clientP50 within tol.
func reconcile(rows []ledgerRow, clientP50, tol float64) ledger {
	l := ledger{rows: rows, clientP50: clientP50}
	for _, r := range rows {
		l.sum += r.ms
	}
	l.remainder = clientP50 - l.sum
	l.ok = clientP50 > 0 && math.Abs(l.remainder) <= tol*clientP50
	return l
}

// cohortMeans averages each stage over the requests whose total
// latency lies in the [lo, hi] percentile band. Means of one cohort add
// up, where medians of separate stages do not, so the band around the
// 50th percentile yields rows that can be held against the client p50.
// stages[i][j] is stage i of request j; total[j] is request j's latency.
func cohortMeans(total []float64, stages [][]float64, lo, hi float64) ([]float64, int, error) {
	if len(total) == 0 {
		return nil, 0, fmt.Errorf("ledger: no requests")
	}
	pLo, pHi := percentile(total, lo), percentile(total, hi)
	sums := make([]float64, len(stages))
	n := 0
	for j, t := range total {
		if t < pLo || t > pHi {
			continue
		}
		n++
		for i := range stages {
			sums[i] += stages[i][j]
		}
	}
	for i := range sums {
		sums[i] /= float64(n)
	}
	return sums, n, nil
}
