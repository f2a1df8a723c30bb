package main

import (
	"fmt"

	"repro/hebfv"
)

// pimPairs is K: vecadd adds K pairs (Fig. 1a), mean sums all 2K
// ciphertexts (Fig. 2a) and mean_half the first K. Mul is left out: it
// runs for tens of seconds per op on the simulator.
const pimPairs = 16

// pimJobs are the pim-stats jobs in kind order: vecadd, mean, mean_half.
func (e *hostEnv) pimJobs() [3]func() (func(*report), error) {
	x := e.xv
	vecadd := func() (func(*report), error) {
		outs, err := e.ctx.AddMany(e.xs[:pimPairs], e.xs[pimPairs:])
		if err != nil {
			return nil, err
		}
		return func(rep *report) {
			for i, out := range outs {
				e.expectSlots(rep, nil, fmt.Sprintf("vecadd[%d]", i), out, func(j int) uint64 { return x[i][j] + x[pimPairs+i][j] })
			}
		}, nil
	}
	sum := func(n int) func() (func(*report), error) {
		return func() (func(*report), error) {
			s, err := e.ctx.Sum(e.xs[:n])
			if err != nil {
				return nil, err
			}
			return func(rep *report) {
				e.expectSlots(rep, nil, fmt.Sprintf("Σ of %d", n), s, func(j int) uint64 { return sumOver(n, func(i int) uint64 { return x[i][j] }) })
			}, nil
		}
	}
	return [3]func() (func(*report), error){vecadd, sum(2 * pimPairs), sum(pimPairs)}
}

// pimWindow is one measured pim-stats window with the PIM plane's
// counters at its start and end.
type pimWindow struct {
	k, wall *jobTimes // CPU and wall time per job
	b0, b1  hebfv.PIMBreakdown
	retries int     // retries and re-dispatches during the window
	sets    int     // job sets run: one job of each kind
	busyMS  float64 // summed job wall time
}

func (e *hostEnv) runPIMWindow(cfg config, rep *report) (*pimWindow, error) {
	w := &pimWindow{}
	var ok bool
	if w.b0, ok = e.ctx.PIMBreakdown(); !ok {
		return nil, fmt.Errorf("backend %q reports no PIM breakdown", e.ctx.Backend())
	}
	st0, _ := e.ctx.PIMStats() // the engine that has a breakdown has fault stats
	cpu, wall, jobs, err := jobWindow(cfg, rep, "pim-stats", e.pimJobs())
	if err != nil {
		return nil, err
	}
	w.k, w.wall, w.sets = cpu, wall, jobs/3
	for _, xs := range wall.ms {
		for _, x := range xs {
			w.busyMS += x
		}
	}
	w.b1, _ = e.ctx.PIMBreakdown()
	st1, _ := e.ctx.PIMStats()
	w.retries = st1.Retries + st1.Redispatches - st0.Retries - st0.Redispatches
	checkOnPIM(rep, e.ctx)
	return w, nil
}

// checkOnPIM counts a failure if the context failed over to the host,
// so a run cannot silently measure the host backend.
func checkOnPIM(rep *report, ctx *hebfv.Context) {
	fo, ok := ctx.FailoverStats()
	rep.check(ok && !fo.Engaged, "pim: failover engaged (stats %+v, ok %v): the run measured the host backend", fo, ok)
}

func runPIMStats(cfg config) (*report, error) {
	rep := newReport()
	e, err := timedSetup(rep, cfg, func() (*hostEnv, error) {
		e, err := setupHost(cfg, "pim", 2*pimPairs, 0)
		if err == nil {
			err = warmUp(rep, e.pimJobs())
		}
		return e, err
	}, (*hostEnv).close)
	if err != nil {
		return nil, err
	}
	defer e.close()

	w, err := e.runPIMWindow(cfg, rep)
	if err != nil {
		return nil, err
	}
	w.k.addTo(rep.e2e, "")
	w.wall.addTo(rep.info, "wall.")
	rep.e2e["live_heap_mb"] = liveHeap()
	rep.info["pim_modeled_ms"] = metric{(w.b1.MakespanSeconds - w.b0.MakespanSeconds) * 1e3 / float64(w.sets), "model_ms", w.sets,
		"PIMBreakdown makespan per job set (vecadd + mean + mean_half); deterministic"}
	if !cfg.trace {
		return rep, nil
	}

	mem := startMem()
	if w, err = e.runPIMWindow(cfg, rep); err != nil {
		return nil, err
	}
	sets := w.sets
	mem.finish(rep.layer, 3*sets)
	rep.addTraced(w.k)
	per := func(d float64) float64 { return d / float64(sets) }
	b0, b1 := w.b0, w.b1
	l := rep.layer
	launches := b1.Launches - b0.Launches
	l["pim.launches"] = metric{per(float64(launches)), "count", sets, "per job set"}
	l["pim.shards"] = metric{per(float64(b1.Shards - b0.Shards)), "count", sets, "per job set"}
	l["pim.kernel_cycles"] = metric{per(float64(b1.KernelCycles - b0.KernelCycles)), "cycles", sets, "per job set"}
	l["pim.bytes_in"] = metric{per(float64(b1.BytesIn - b0.BytesIn)), "B", sets, "per job set"}
	l["pim.bytes_out"] = metric{per(float64(b1.BytesOut - b0.BytesOut)), "B", sets, "per job set"}
	l["pim.kernel_ms"] = metric{per(b1.KernelSeconds-b0.KernelSeconds) * 1e3, "model_ms", sets, "modeled, per job set"}
	l["pim.copy_in_ms"] = metric{per(b1.CopyInSeconds-b0.CopyInSeconds) * 1e3, "model_ms", sets, "modeled, per job set"}
	l["pim.copy_out_ms"] = metric{per(b1.CopyOutSeconds-b0.CopyOutSeconds) * 1e3, "model_ms", sets, "modeled, per job set"}
	l["pim.modeled_ms"] = metric{per(b1.MakespanSeconds-b0.MakespanSeconds) * 1e3, "model_ms", sets, "modeled makespan, per job set"}
	if launches > 0 {
		l["pim.wall_ms_per_launch"] = metric{w.busyMS / float64(launches), "ms", launches, "job wall time / launches"}
	}
	l["pim.retries"] = metric{float64(w.retries), "count", 1, "retries + re-dispatches"}
	fo, _ := e.ctx.FailoverStats()
	engaged := 0.0
	if fo.Engaged {
		engaged = 1
	}
	l["pim.failover_engaged"] = metric{engaged, "bool", 1, "must be 0"}
	completeLayers(rep)
	return rep, nil
}
