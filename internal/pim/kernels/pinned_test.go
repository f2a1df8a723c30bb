package kernels

import (
	"math/rand"
	"testing"

	"repro/internal/pim"
	"repro/internal/pimsched"
)

// modeledCost is the part of a scheduler report that the DPU cost model
// produces: simulator speed-ups must leave every field unchanged.
type modeledCost struct {
	KernelCycles, TotalInstr, TotalDMACycles, BytesIn, BytesOut int64
}

func costOf(rep *pimsched.Report) modeledCost {
	return modeledCost{rep.KernelCycles, rep.TotalInstr, rep.TotalDMACycles, rep.BytesIn, rep.BytesOut}
}

// sec109Sched is the paper machine (2,524 DPUs, 39 whole ranks
// scheduled) with overlap on, as the hebfv pim backend builds it.
func sec109Sched(t *testing.T) *pimsched.Scheduler {
	t.Helper()
	sys, err := pim.NewSystem(pim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sched, err := pimsched.New(sys, pimsched.FitTopology(len(sys.DPUs)), true)
	if err != nil {
		t.Fatal(err)
	}
	return sched
}

// TestPinnedModeledCostSec109 pins the modeled cost of fixed sec109
// (n = 4096, 109-bit q, 4-limb coefficients) vector-add and vector-sum
// runs. The numbers were recorded before the simulator's allocation
// work and must match exactly: a change here is a change to the cost
// model, not a speed-up.
func TestPinnedModeledCostSec109(t *testing.T) {
	const n, w = 4096, 4
	mod := modulusFor(t, w)
	rng := rand.New(rand.NewSource(109))
	vecs := make([][]uint32, 32)
	for i := range vecs {
		vecs[i] = randVec(rng, 2*n, mod)
	}
	flat := func(vs [][]uint32) []uint32 {
		var out []uint32
		for _, v := range vs {
			out = append(out, v...)
		}
		return out
	}
	half := func(vs [][]uint32) [][]uint32 {
		out := make([][]uint32, len(vs))
		for i, v := range vs {
			out[i] = v[:n*w]
		}
		return out
	}

	cases := []struct {
		name string
		run  func(*pimsched.Scheduler) (*pimsched.Report, error)
		want modeledCost
	}{
		{"add/one-ciphertext", func(s *pimsched.Scheduler) (*pimsched.Report, error) {
			_, rep, err := RunVectorAddSched(s, vecs[0], vecs[1], w, mod.Q)
			return rep, err
		}, modeledCost{33408, 285460, 2138112, 262144, 131072}},
		{"add/16-ciphertexts", func(s *pimsched.Scheduler) (*pimsched.Report, error) {
			_, rep, err := RunVectorAddSched(s, flat(vecs[:16]), flat(vecs[16:]), w, mod.Q)
			return rep, err
		}, modeledCost{209856, 4592167, 13430784, 4194304, 2097152}},
		{"sum/32-polys", func(s *pimsched.Scheduler) (*pimsched.Report, error) {
			_, rep, err := RunVectorSumSched(s, half(vecs), w, mod.Q)
			return rep, err
		}, modeledCost{500115, 4444514, 11759616, 2097152, 65536}},
	}
	sched := sec109Sched(t)
	for _, tc := range cases {
		rep, err := tc.run(sched)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := costOf(rep); got != tc.want {
			t.Errorf("%s: modeled cost %+v, pinned %+v", tc.name, got, tc.want)
		}
	}
}

// TestBatchDriversMatchFlatRuns: the batch drivers read and write their
// segments in place but shard, compute and cost exactly like the
// single-vector drivers over the segments' concatenation.
func TestBatchDriversMatchFlatRuns(t *testing.T) {
	topo := pimsched.Topology{Ranks: 3, DPUsPerRank: 4}
	rng := rand.New(rand.NewSource(7))
	for _, w := range []int{1, 2, 4} {
		mod := modulusFor(t, w)
		const segs, segCoeffs = 5, 13 // shards straddle segment boundaries
		var as, bs, outs [][]uint32
		var flatA, flatB []uint32
		for i := 0; i < segs; i++ {
			a, b := randVec(rng, segCoeffs, mod), randVec(rng, segCoeffs, mod)
			as, bs = append(as, a), append(bs, b)
			outs = append(outs, make([]uint32, len(a)))
			flatA, flatB = append(flatA, a...), append(flatB, b...)
		}
		batchRep, err := RunVectorAddBatchSched(testSched(t, topo, true), as, bs, outs, w, mod.Q)
		if err != nil {
			t.Fatal(err)
		}
		want, flatRep, err := RunVectorAddSched(testSched(t, topo, true), flatA, flatB, w, mod.Q)
		if err != nil {
			t.Fatal(err)
		}
		for i, out := range outs {
			for j, x := range out {
				if x != want[i*segCoeffs*w+j] {
					t.Fatalf("w=%d add segment %d word %d differs from the flat run", w, i, j)
				}
			}
		}
		if *batchRep != *flatRep {
			t.Errorf("w=%d add: batch report %+v, flat %+v", w, batchRep, flatRep)
		}

		// Sum: group g is vectors {as[g], bs[g]}; the flat run sums the
		// concatenations of each vector position across groups.
		groups := make([][][]uint32, segs)
		for g := range groups {
			groups[g] = [][]uint32{as[g], bs[g], as[(g+1)%segs]}
			outs[g] = make([]uint32, len(as[g]))
		}
		var flat2 []uint32
		for g := range groups {
			flat2 = append(flat2, groups[g][2]...)
		}
		batchRep, err = RunVectorSumBatchSched(testSched(t, topo, true), groups, outs, w, mod.Q)
		if err != nil {
			t.Fatal(err)
		}
		want, flatRep, err = RunVectorSumSched(testSched(t, topo, true), [][]uint32{flatA, flatB, flat2}, w, mod.Q)
		if err != nil {
			t.Fatal(err)
		}
		for i, out := range outs {
			for j, x := range out {
				if x != want[i*segCoeffs*w+j] {
					t.Fatalf("w=%d sum group %d word %d differs from the flat run", w, i, j)
				}
			}
		}
		if *batchRep != *flatRep {
			t.Errorf("w=%d sum: batch report %+v, flat %+v", w, batchRep, flatRep)
		}
	}
}
