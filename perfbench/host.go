package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/hebfv"
)

// stats-host shape: a resident table of 64 slot-packed ciphertexts
// (64 × 128 KiB = 8 MiB, twice the 2 × 2 MiB of L2 of a 2-core host),
// read by linreg as 8 batches of 8 features against 8 encrypted weights.
const (
	hostSamples  = 64
	hostFeatures = 8
	sampleLimit  = 256 // slot values are drawn below this
	weightLimit  = 16
)

type hostEnv struct {
	ctx     *hebfv.Context
	xs, ws  []*hebfv.Ciphertext
	xv, wv  [][]uint64
	corrupt bool // --force-mismatch: compare against a wrong expectation
}

// setupHost builds a context on backend and encrypts samples table
// entries and weights linreg weights.
func setupHost(cfg config, backend string, samples, weights int) (*hostEnv, error) {
	ctx, err := hebfv.New(hebfv.WithSecurityLevel(109), hebfv.WithBackend(backend),
		hebfv.WithRotations(1), hebfv.WithSeed(cfg.seed))
	if err != nil {
		return nil, err
	}
	e := &hostEnv{ctx: ctx, corrupt: cfg.forceMismatch}
	rng := rand.New(rand.NewSource(int64(cfg.seed)))
	enc := func(limit uint64) ([]uint64, *hebfv.Ciphertext, error) {
		v := randomSlots(rng, ctx.Slots(), limit)
		ct, err := ctx.EncryptSlots(v)
		return v, ct, err
	}
	for i := 0; i < samples; i++ {
		v, ct, err := enc(sampleLimit)
		if err != nil {
			ctx.Close()
			return nil, err
		}
		e.xv, e.xs = append(e.xv, v), append(e.xs, ct)
	}
	for i := 0; i < weights; i++ {
		v, ct, err := enc(weightLimit)
		if err != nil {
			ctx.Close()
			return nil, err
		}
		e.wv, e.ws = append(e.wv, v), append(e.ws, ct)
	}
	return e, nil
}

func (e *hostEnv) close() { e.ctx.Close() }

// layerTimer times calls into the facade on a traced run; on an
// untraced run it is nil and only runs them.
type layerTimer map[string][]float64

func (lt layerTimer) call(name string, f func() error) error {
	if lt == nil {
		return f()
	}
	t0 := time.Now()
	err := f()
	lt[name] = append(lt[name], ms(time.Since(t0)))
	return err
}

// expectSlots decrypts ct and counts a failure unless every slot equals
// want(j) mod t.
func (e *hostEnv) expectSlots(rep *report, lt layerTimer, label string, ct *hebfv.Ciphertext, want func(j int) uint64) {
	var got []uint64
	err := lt.call("hebfv.decrypt_ms", func() error {
		var err error
		got, err = e.ctx.DecryptSlots(ct)
		return err
	})
	t := e.ctx.PlaintextModulus()
	ok := err == nil && len(got) == e.ctx.Slots()
	for j := 0; ok && j < len(got); j++ {
		w := want(j) % t
		if e.corrupt {
			w = (w + 1) % t
		}
		ok = got[j] == w
	}
	rep.check(ok, "%s: decrypted slots differ from the plaintext recomputation (err %v)", label, err)
}

// sumOver returns Σ f(i) for i < n.
func sumOver(n int, f func(i int) uint64) uint64 {
	var s uint64
	for i := 0; i < n; i++ {
		s += f(i)
	}
	return s
}

// hostJobs are the paper's §4.3 jobs in kind order: mean, variance and
// linear-regression prediction. Each returns its outputs' checks as a
// closure, run after the job's time is taken.
func (e *hostEnv) hostJobs(lt layerTimer) [3]func() (func(*report), error) {
	sum := func(cts []*hebfv.Ciphertext) (out *hebfv.Ciphertext, err error) {
		err = lt.call("hebfv.sum_ms", func() error { out, err = e.ctx.Sum(cts); return err })
		return out, err
	}
	mulMany := func(as, bs []*hebfv.Ciphertext) (out []*hebfv.Ciphertext, err error) {
		err = lt.call("hebfv.mulmany_ms", func() error { out, err = e.ctx.MulMany(as, bs); return err })
		return out, err
	}
	x, w := e.xv, e.wv
	mean := func() (func(*report), error) {
		s, err := sum(e.xs)
		if err != nil {
			return nil, err
		}
		return func(rep *report) {
			e.expectSlots(rep, lt, "mean Σx", s, func(j int) uint64 { return sumOver(len(x), func(i int) uint64 { return x[i][j] }) })
		}, nil
	}
	variance := func() (func(*report), error) {
		s1, err := sum(e.xs)
		if err != nil {
			return nil, err
		}
		sq, err := mulMany(e.xs, e.xs)
		if err != nil {
			return nil, err
		}
		s2, err := sum(sq)
		if err != nil {
			return nil, err
		}
		return func(rep *report) {
			e.expectSlots(rep, lt, "variance Σx", s1, func(j int) uint64 { return sumOver(len(x), func(i int) uint64 { return x[i][j] }) })
			e.expectSlots(rep, lt, "variance Σx²", s2, func(j int) uint64 { return sumOver(len(x), func(i int) uint64 { return x[i][j] * x[i][j] }) })
		}, nil
	}
	linreg := func() (func(*report), error) {
		var ys []*hebfv.Ciphertext
		for b := 0; b < len(e.xs)/hostFeatures; b++ {
			prods, err := mulMany(e.ws, e.xs[b*hostFeatures:(b+1)*hostFeatures])
			if err != nil {
				return nil, err
			}
			y, err := sum(prods)
			if err != nil {
				return nil, err
			}
			ys = append(ys, y)
		}
		return func(rep *report) {
			for b, y := range ys {
				xb := x[b*hostFeatures : (b+1)*hostFeatures]
				e.expectSlots(rep, lt, fmt.Sprintf("linreg ŷ[%d]", b), y, func(j int) uint64 {
					return sumOver(len(xb), func(i int) uint64 { return w[i][j] * xb[i][j] })
				})
			}
		}, nil
	}
	return [3]func() (func(*report), error){mean, variance, linreg}
}

// jobWindow runs jobs one at a time for the window, in a seeded order
// that visits each kind once per round, timing each job in CPU time and
// in wall time and checking its outputs outside the timed span.
func jobWindow(cfg config, rep *report, name string, jobs [3]func() (func(*report), error)) (cpu, wall *jobTimes, n int, err error) {
	length := time.Duration(cfg.seconds) * time.Second
	cpu = &jobTimes{workload: name, measure: "CPU time per job"}
	wall = &jobTimes{workload: name, measure: "wall time per job"}
	rng := rand.New(rand.NewSource(int64(cfg.seed) + 11))
	start := time.Now()
	for time.Since(start) < length {
		for _, kind := range rng.Perm(3) {
			t0, c0 := time.Now(), cpuTime()
			verify, err := jobs[kind]()
			c, d := cpuTime()-c0, time.Since(t0)
			if err != nil {
				return nil, nil, n, fmt.Errorf("%s: %w", workloads[name].kinds[kind], err)
			}
			cpu.ms[kind] = append(cpu.ms[kind], ms(c))
			wall.ms[kind] = append(wall.ms[kind], ms(d))
			n++
			verify(rep)
		}
	}
	return cpu, wall, n, nil
}

// warmUp runs and checks each job once.
func warmUp(rep *report, jobs [3]func() (func(*report), error)) error {
	for _, job := range jobs {
		verify, err := job()
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		verify(rep)
	}
	return nil
}

func runStatsHost(cfg config) (*report, error) {
	rep := newReport()
	e, err := timedSetup(rep, cfg, func() (*hostEnv, error) {
		e, err := setupHost(cfg, "dcrt-native", hostSamples, hostFeatures)
		if err == nil {
			err = warmUp(rep, e.hostJobs(nil))
		}
		return e, err
	}, (*hostEnv).close)
	if err != nil {
		return nil, err
	}
	defer e.close()

	cpu, wall, _, err := jobWindow(cfg, rep, "stats-host", e.hostJobs(nil))
	if err != nil {
		return nil, err
	}
	cpu.addTo(rep.e2e, "")
	wall.addTo(rep.info, "wall.")
	rep.e2e["live_heap_mb"] = liveHeap()
	if !cfg.trace {
		return rep, nil
	}

	lt := layerTimer{}
	pool0 := e.ctx.PoolStats()
	mem := startMem()
	cpu, _, jobs, err := jobWindow(cfg, rep, "stats-host", e.hostJobs(lt))
	if err != nil {
		return nil, err
	}
	mem.finish(rep.layer, jobs)
	rep.addTraced(cpu)
	for name, xs := range lt {
		rep.layer[name] = metric{median(xs), "ms", len(xs), "median per call"}
	}
	pool1 := e.ctx.PoolStats()
	if gets := pool1.Gets - pool0.Gets; gets > 0 {
		rep.layer["polypool.hit_rate"] = metric{float64(pool1.Hits-pool0.Hits) / float64(gets), "ratio", int(gets), ""}
	}
	rep.layer["polypool.in_use_end"] = metric{float64(pool1.InUse), "count", 1, "must be 0"}

	blob, err := e.xs[0].MarshalBinary()
	if err != nil {
		return nil, err
	}
	if err := facadeProbe(rep, e.ctx, e.xs[0], e.xs[1], blob, nil); err != nil {
		return nil, err
	}
	if err := bfvProbe(rep, cfg.seed, hostSamples); err != nil {
		return nil, fmt.Errorf("bfv probe: %w", err)
	}
	if err := nttProbe(rep, cfg.seed); err != nil {
		return nil, fmt.Errorf("ntt probe: %w", err)
	}
	completeLayers(rep)
	return rep, nil
}
