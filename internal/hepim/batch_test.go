package hepim

import (
	"testing"

	"repro/internal/bfv"
	"repro/internal/pim/kernels"
	"repro/internal/pimsched"
	"repro/internal/poly"
)

// batchInputs encrypts k ciphertexts of values from base on; with deg2
// each is squared without relinearizing, giving three components.
func (f *fixture) batchInputs(t *testing.T, k int, base uint64, deg2 bool) []*bfv.Ciphertext {
	t.Helper()
	cts := make([]*bfv.Ciphertext, k)
	for i := range cts {
		ct, err := f.enc.EncryptValue((base + uint64(i)) % f.params.T)
		if err != nil {
			t.Fatal(err)
		}
		if deg2 {
			if ct, err = f.eval.MulNoRelin(ct, ct); err != nil {
				t.Fatal(err)
			}
		}
		cts[i] = ct
	}
	return cts
}

// oneRun checks that the server's last op was exactly one scheduler
// run: one wave of min(coeffs, DPUs) shards, one chunk per rank used.
func oneRun(t *testing.T, f *fixture, runs0 int, bd0 *pimsched.Report, coeffs int) {
	t.Helper()
	topo := f.srv.Sched.Topo
	shards := min(coeffs, topo.NumDPUs())
	wantChunks := (shards + topo.DPUsPerRank - 1) / topo.DPUsPerRank
	bd := f.srv.Breakdown()
	if runs := f.srv.Runs() - runs0; runs != 1 {
		t.Errorf("op took %d scheduler runs, want 1", runs)
	}
	if got := bd.Shards - bd0.Shards; got != shards {
		t.Errorf("op ran %d shards, want %d", got, shards)
	}
	if got := bd.Chunks - bd0.Chunks; got != wantChunks {
		t.Errorf("op ran %d chunks, want %d", got, wantChunks)
	}
}

// TestAddManyMatchesPerPairAndHost: a batched AddMany is one scheduler
// run over every pair's components and is bit-identical to per-pair
// Add and to the host evaluator, for fresh and degree-2 inputs.
func TestAddManyMatchesPerPairAndHost(t *testing.T) {
	for _, k := range []int{1, 3, 16} {
		for _, deg2 := range []bool{false, true} {
			f := multiRankFixture(t, true)
			as := f.batchInputs(t, k, 1, deg2)
			bs := f.batchInputs(t, k, 40, deg2)
			runs, bd0 := f.srv.Runs(), f.srv.Breakdown()
			got, err := f.srv.AddMany(as, bs)
			if err != nil {
				t.Fatal(err)
			}
			oneRun(t, f, runs, bd0, k*len(as[0].Polys)*f.params.N)
			for i := range as {
				single, err := f.srv.Add(as[i], bs[i])
				if err != nil {
					t.Fatal(err)
				}
				if !got[i].Equal(single) {
					t.Fatalf("k=%d deg2=%v: AddMany[%d] differs from per-pair Add", k, deg2, i)
				}
				if !got[i].Equal(f.eval.Add(as[i], bs[i])) {
					t.Fatalf("k=%d deg2=%v: AddMany[%d] differs from the host evaluator", k, deg2, i)
				}
			}
		}
	}
}

// TestAddManyMixedDegrees: pairs of different degrees share one run.
func TestAddManyMixedDegrees(t *testing.T) {
	f := newFixture(t, 21)
	as := append(f.batchInputs(t, 2, 1, false), f.batchInputs(t, 2, 5, true)...)
	bs := append(f.batchInputs(t, 2, 9, false), f.batchInputs(t, 2, 13, true)...)
	got, err := f.srv.AddMany(as, bs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range as {
		if !got[i].Equal(f.eval.Add(as[i], bs[i])) {
			t.Fatalf("AddMany[%d] differs from the host evaluator", i)
		}
	}
	if f.srv.Runs() != 1 {
		t.Errorf("mixed-degree batch took %d runs, want 1", f.srv.Runs())
	}
}

func TestAddManyErrors(t *testing.T) {
	f := newFixture(t, 22)
	one := f.batchInputs(t, 1, 1, false)
	two := f.batchInputs(t, 2, 1, false)
	if _, err := f.srv.AddMany(one, two); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := f.srv.AddMany(one, f.batchInputs(t, 1, 1, true)); err == nil {
		t.Error("degree mismatch within a pair accepted")
	}
	if out, err := f.srv.AddMany(nil, nil); err != nil || len(out) != 0 {
		t.Errorf("empty batch: %v, %v", out, err)
	}
	if f.srv.Runs() != 0 {
		t.Errorf("rejected batches ran %d times", f.srv.Runs())
	}
}

// perComponentSum is the pre-fusion Sum: one vector-sum run per
// component.
func perComponentSum(t *testing.T, f *fixture, cts []*bfv.Ciphertext) *bfv.Ciphertext {
	t.Helper()
	par := f.params
	out := &bfv.Ciphertext{}
	for c := range cts[0].Polys {
		vecs := make([][]uint32, len(cts))
		for i, ct := range cts {
			vecs[i] = ct.Polys[c].C
		}
		flat, _, err := kernels.RunVectorSumSched(f.srv.Sched, vecs, par.Q.W, par.Q.Q)
		if err != nil {
			t.Fatal(err)
		}
		p := poly.NewPoly(par.N, par.Q.W)
		copy(p.C, flat)
		out.Polys = append(out.Polys, p)
	}
	return out
}

// TestSumFusedMatchesPerComponentAndHost: the fused Sum is one
// scheduler run over all components and is bit-identical to one run
// per component and to the host fold.
func TestSumFusedMatchesPerComponentAndHost(t *testing.T) {
	for _, k := range []int{1, 3, 16} {
		for _, deg2 := range []bool{false, true} {
			f := multiRankFixture(t, true)
			cts := f.batchInputs(t, k, 7, deg2)
			runs, bd0 := f.srv.Runs(), f.srv.Breakdown()
			got, err := f.srv.Sum(cts)
			if err != nil {
				t.Fatal(err)
			}
			oneRun(t, f, runs, bd0, len(cts[0].Polys)*f.params.N)
			if !got.Equal(perComponentSum(t, f, cts)) {
				t.Fatalf("k=%d deg2=%v: fused Sum differs from per-component sums", k, deg2)
			}
			ref := cts[0].Clone()
			for _, ct := range cts[1:] {
				ref = f.eval.Add(ref, ct)
			}
			if !got.Equal(ref) {
				t.Fatalf("k=%d deg2=%v: fused Sum differs from the host fold", k, deg2)
			}
		}
	}
}

func TestSumRejectsMixedDegrees(t *testing.T) {
	f := newFixture(t, 23)
	cts := append(f.batchInputs(t, 2, 1, false), f.batchInputs(t, 1, 1, true)...)
	if _, err := f.srv.Sum(cts); err == nil {
		t.Error("mixed-degree sum accepted")
	}
}
