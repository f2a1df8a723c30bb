package main

import (
	"bytes"
	"fmt"
	"io"
	"math/bits"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"repro/hebfv"
	"repro/internal/bfv"
	"repro/internal/nt"
	"repro/internal/ntt"
	"repro/internal/sampling"
)

// perLayer lists the metrics a --trace 1 run reports, in
// BENCHMARK.json's order. A layer a workload does not pass through
// reports 0 there (see README.md).
var perLayer = []struct{ name, unit string }{
	{"serve.handler_ms.add", "ms"},
	{"serve.handler_ms.mul", "ms"},
	{"serve.handler_ms.rotate", "ms"},
	{"serve.body_read_ms", "ms"},
	{"serve.first_write_ms", "ms"},
	{"serve.write_ms", "ms"},
	{"serve.outside_ms", "ms"},
	{"serve.rejections", "count"},
	{"coalescer.ops", "count"},
	{"coalescer.batches", "count"},
	{"coalescer.batch_mean", "ops"},
	{"cache.hits", "count"},
	{"cache.misses", "count"},
	{"cache.evictions", "count"},
	{"gen.due_wait_ms", "ms"},
	{"gen.late_ms", "ms"},
	{"ledger.client_p50_ms", "ms"},
	{"ledger.rows_sum_ms", "ms"},
	{"ledger.remainder_ms", "ms"},
	{"ledger.reconciled", "bool"},
	{"hebfv.read_us", "us"},
	{"hebfv.marshal_us", "us"},
	{"hebfv.add_us", "us"},
	{"hebfv.mul_us", "us"},
	{"hebfv.rotate_us", "us"},
	{"hebfv.sum_ms", "ms"},
	{"hebfv.mulmany_ms", "ms"},
	{"hebfv.decrypt_ms", "ms"},
	{"hebfv.add_bytes_per_op", "B"},
	{"hebfv.mul_bytes_per_op", "B"},
	{"alloc_kb_per_op", "KiB"},
	{"polypool.hit_rate", "ratio"},
	{"polypool.in_use_end", "count"},
	{"gc.count", "count"},
	{"gc.pause_p99_us", "us"},
	{"bfv.add_us", "us"},
	{"bfv.mul_us", "us"},
	{"bfv.batch_mulmany_ms", "ms"},
	{"bfv.apply_galois_us", "us"},
	{"ntt.forward_us", "us"},
	{"ntt.inverse_us", "us"},
	{"ntt.pointwise_us", "us"},
	{"ntt.forward_butterflies", "count"},
	{"ntt.forward_bytes", "B"},
	{"ntt.inverse_butterflies", "count"},
	{"ntt.inverse_bytes", "B"},
	{"ntt.pointwise_mults", "count"},
	{"ntt.pointwise_bytes", "B"},
	{"ntt.vector_bits", "bits"},
	{"pim.launches", "count"},
	{"pim.shards", "count"},
	{"pim.kernel_cycles", "cycles"},
	{"pim.bytes_in", "B"},
	{"pim.bytes_out", "B"},
	{"pim.kernel_ms", "model_ms"},
	{"pim.copy_in_ms", "model_ms"},
	{"pim.copy_out_ms", "model_ms"},
	{"pim.modeled_ms", "model_ms"},
	{"pim.wall_ms_per_launch", "ms"},
	{"pim.retries", "count"},
	{"pim.failover_engaged", "bool"},
	{"trace.overhead.all_p50_ms", "ms"},
	{"trace.overhead.all_tail_ms", "ms"},
	{"trace.overhead.kind1_p50_ms", "ms"},
	{"trace.overhead.kind2_p50_ms", "ms"},
	{"trace.overhead.kind3_p50_ms", "ms"},
}

// completeLayers gives every per-layer metric the workload did not
// measure a 0 marked as off its path.
func completeLayers(rep *report) {
	for _, m := range perLayer {
		if _, ok := rep.layer[m.name]; !ok {
			rep.layer[m.name] = metric{0, m.unit, 0, "layer not on this workload's path"}
		}
	}
}

// timeReps runs f reps times and returns each call's wall time.
func timeReps(reps int, f func() error) ([]time.Duration, error) {
	out := make([]time.Duration, 0, reps)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := f(); err != nil {
			return nil, err
		}
		out = append(out, time.Since(t0))
	}
	return out, nil
}

func medianUS(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = us(d)
	}
	return median(xs)
}

// allocBytes returns the bytes f allocates per call over reps calls.
func allocBytes(reps int, f func() error) (float64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < reps; i++ {
		if err := f(); err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(reps), nil
}

// facadeProbe times the hebfv calls a served op makes, on ctx with the
// operands a and b (a's wire bytes in blobA). The op rows include
// MarshalTo, as the served handler runs them: a deferred product or
// rotation is materialized there. With want, each op's output is
// compared with the expected wire bytes.
func facadeProbe(rep *report, ctx *hebfv.Context, a, b *hebfv.Ciphertext, blobA []byte, want map[string][]byte) error {
	const reps = 25
	layer := rep.layer
	ds, err := timeReps(reps, func() error {
		c, err := ctx.ReadCiphertext(bytes.NewReader(blobA))
		if err != nil {
			return err
		}
		return c.Release()
	})
	if err != nil {
		return fmt.Errorf("hebfv read: %w", err)
	}
	layer["hebfv.read_us"] = metric{medianUS(ds), "us", reps, "Context.ReadCiphertext into pooled backings"}
	if ds, err = timeReps(reps, func() error { return a.MarshalTo(io.Discard) }); err != nil {
		return fmt.Errorf("hebfv marshal: %w", err)
	}
	layer["hebfv.marshal_us"] = metric{medianUS(ds), "us", reps, "Ciphertext.MarshalTo of a fresh ciphertext"}

	ops := []struct {
		name string
		eval func() (*hebfv.Ciphertext, error)
	}{
		{"add", func() (*hebfv.Ciphertext, error) { return ctx.Add(a, b) }},
		{"mul", func() (*hebfv.Ciphertext, error) { return ctx.Mul(a, b) }},
		{"rotate", func() (*hebfv.Ciphertext, error) { return ctx.RotateRows(a, 1) }},
	}
	for _, op := range ops {
		var buf bytes.Buffer
		run := func() error {
			out, err := op.eval()
			if err != nil {
				return err
			}
			buf.Reset()
			if err := out.MarshalTo(&buf); err != nil {
				return err
			}
			return out.Release()
		}
		if err := run(); err != nil { // warm-up: lazy keys and scratch pools
			return fmt.Errorf("hebfv %s: %w", op.name, err)
		}
		if want != nil {
			rep.check(bytes.Equal(buf.Bytes(), want[op.name]), "hebfv probe: %s output differs from the expected bytes", op.name)
		}
		ds, err := timeReps(reps, run)
		if err != nil {
			return fmt.Errorf("hebfv %s: %w", op.name, err)
		}
		layer["hebfv."+op.name+"_us"] = metric{medianUS(ds), "us", reps, "op + MarshalTo, as served"}
		if op.name == "rotate" {
			continue
		}
		bpo, err := allocBytes(reps, run)
		if err != nil {
			return fmt.Errorf("hebfv %s: %w", op.name, err)
		}
		layer["hebfv."+op.name+"_bytes_per_op"] = metric{bpo, "B", reps, "op + MarshalTo into a reused buffer"}
	}
	return nil
}

// bfvProbe times the internal/bfv evaluator the dcrt-native backend
// wraps, on the benchmark's own sec109 keys and a table of the
// stats-host size. The difference to the hebfv rows is the facade's
// overhead.
func bfvProbe(rep *report, seed uint64, tableSize int) error {
	params := bfv.ParamsBatching()
	src := sampling.NewSourceFromUint64(seed ^ 0xbf0)
	kg := bfv.NewKeyGenerator(params, src)
	sk, pk := kg.GenKeyPair()
	rlk := kg.GenRelinKey(sk)
	gk, err := kg.GenGaloisKey(sk, 3) // row rotation by one slot
	if err != nil {
		return err
	}
	ev := bfv.NewEvaluator(params, rlk)
	be := bfv.NewBatchEvaluatorFrom(ev)
	enc := bfv.NewEncryptor(params, pk, src)
	dec := bfv.NewDecryptor(params, sk)
	coder, err := bfv.NewBatchEncoder(params)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(int64(seed)))
	vals := make([][]uint64, tableSize)
	cts := make([]*bfv.Ciphertext, tableSize)
	for i := range cts {
		vals[i] = randomSlots(rng, params.N, 256)
		pt, err := coder.Encode(vals[i])
		if err != nil {
			return err
		}
		if cts[i], err = enc.Encrypt(pt); err != nil {
			return err
		}
	}
	t := params.T
	checkSlots := func(label string, ct *bfv.Ciphertext, want func(j int) uint64) {
		got := coder.Decode(dec.Decrypt(ct))
		ok := len(got) == params.N
		for j := 0; ok && j < len(got); j++ {
			ok = got[j] == want(j)
		}
		rep.check(ok, "bfv probe: %s decrypts wrong", label)
	}

	const reps = 25
	a, b := cts[0], cts[1]
	checkSlots("Add", ev.Add(a, b), func(j int) uint64 { return (vals[0][j] + vals[1][j]) % t })
	ds, _ := timeReps(reps, func() error { ev.Add(a, b); return nil })
	rep.layer["bfv.add_us"] = metric{medianUS(ds), "us", reps, ""}

	prod, err := ev.Mul(a, b)
	if err != nil {
		return err
	}
	checkSlots("Mul", prod, func(j int) uint64 { return vals[0][j] * vals[1][j] % t })
	if ds, err = timeReps(reps, func() error { _, err := ev.Mul(a, b); return err }); err != nil {
		return err
	}
	rep.layer["bfv.mul_us"] = metric{medianUS(ds), "us", reps, "Evaluator.Mul incl. relinearization"}

	rot, err := ev.ApplyGalois(a, gk)
	if err != nil {
		return err
	}
	got := coder.Decode(dec.Decrypt(rot))
	rep.check(sameMultiset(got, vals[0]), "bfv probe: ApplyGalois output is not a permutation of its input slots")
	if ds, err = timeReps(reps, func() error { _, err := ev.ApplyGalois(a, gk); return err }); err != nil {
		return err
	}
	rep.layer["bfv.apply_galois_us"] = metric{medianUS(ds), "us", reps, ""}

	const batchReps = 5
	var squares []*bfv.Ciphertext
	if ds, err = timeReps(batchReps, func() error { var err error; squares, err = be.MulMany(cts, cts); return err }); err != nil {
		return err
	}
	checkSlots("MulMany", squares[len(squares)-1], func(j int) uint64 { v := vals[len(vals)-1][j]; return v * v % t })
	rep.layer["bfv.batch_mulmany_ms"] = metric{medianUS(ds) / 1e3, "ms", batchReps, fmt.Sprintf("BatchEvaluator.MulMany of %d pairs", tableSize)}
	return nil
}

func sameMultiset(a, b []uint64) bool {
	x, y := slices.Clone(a), slices.Clone(b)
	slices.Sort(x)
	slices.Sort(y)
	return slices.Equal(x, y)
}

// nttProbe times the NTT kernels at n=4096 over one 60-bit limb prime,
// the shape of one double-CRT limb, and records the dispatch tier. The
// butterfly and byte counts are computed from the transform's shape.
func nttProbe(rep *report, seed uint64) error {
	const n = 4096
	primes, err := nt.NTTPrimes(60, n, 1)
	if err != nil {
		return err
	}
	p := primes[0]
	tab, err := ntt.GetTable(p, n)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(int64(seed)))
	x := make([]uint64, n)
	for i := range x {
		x[i] = rng.Uint64() % p
	}
	a, b, dst := slices.Clone(x), slices.Clone(x), make([]uint64, n)
	tab.Forward(a)
	tab.Inverse(a)
	rep.check(slices.Equal(a, x), "ntt probe: Inverse(Forward(x)) != x")

	const reps, inner = 41, 50
	perCall := func(f func()) float64 {
		ds, _ := timeReps(reps, func() error {
			for i := 0; i < inner; i++ {
				f()
			}
			return nil
		})
		return medianUS(ds) / inner
	}
	logN := bits.Len(n) - 1
	butterflies := float64(tab.OpCount())
	// Each of the log n stages loads and stores every coefficient; the
	// twiddles and their Shoup companions are read once per transform.
	nttBytes := float64(logN*n*8*2 + 2*n*8)
	rep.layer["ntt.forward_us"] = metric{perCall(func() { tab.Forward(a) }), "us", reps, fmt.Sprintf("median of %d×%d calls", reps, inner)}
	rep.layer["ntt.inverse_us"] = metric{perCall(func() { tab.Inverse(a) }), "us", reps, fmt.Sprintf("median of %d×%d calls", reps, inner)}
	rep.layer["ntt.pointwise_us"] = metric{perCall(func() { tab.PointwiseMul(dst, a, b) }), "us", reps, fmt.Sprintf("median of %d×%d calls", reps, inner)}
	rep.layer["ntt.forward_butterflies"] = metric{butterflies, "count", 1, "(n/2)·log2 n per call"}
	rep.layer["ntt.inverse_butterflies"] = metric{butterflies, "count", 1, "(n/2)·log2 n per call"}
	rep.layer["ntt.forward_bytes"] = metric{nttBytes, "B", 1, "computed: log2 n stages × n words × load+store, + twiddles"}
	rep.layer["ntt.inverse_bytes"] = metric{nttBytes, "B", 1, "computed: log2 n stages × n words × load+store, + twiddles"}
	rep.layer["ntt.pointwise_mults"] = metric{n, "count", 1, "n modular products per call"}
	rep.layer["ntt.pointwise_bytes"] = metric{3 * n * 8, "B", 1, "computed: two operands in, one out"}

	bitsOf := map[string]float64{"scalar": 64, "avx2": 256, "avx512": 512}
	for _, kp := range ntt.KernelPaths() {
		rep.info["ntt.tier."+kp.Kernel] = metric{bitsOf[kp.Path], "bits", 1, kp.Path + " " + kp.Note}
		if kp.Kernel == "ntt-forward" {
			rep.layer["ntt.vector_bits"] = metric{bitsOf[kp.Path], "bits", 1, "ntt-forward dispatch tier: " + kp.Path}
		}
	}
	return nil
}

// randomSlots draws n slot values below limit.
func randomSlots(rng *rand.Rand, n int, limit uint64) []uint64 {
	v := make([]uint64, n)
	for i := range v {
		v[i] = uint64(rng.Int63n(int64(limit)))
	}
	return v
}
