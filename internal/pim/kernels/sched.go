package kernels

import (
	"errors"
	"fmt"

	"repro/internal/limb32"
	"repro/internal/pim"
	"repro/internal/pimsched"
)

// Scheduler-routed drivers: the same kernels and MRAM layouts as the
// monolithic Run* drivers, but described as pimsched.Shard plans and
// executed through the async multi-DPU pipeline — rank-granularity
// launches, per-rank transfer pricing, staging overlapped with
// compute, and the same fault retry/re-dispatch semantics (pimsched
// re-places a dead DPU's shards on survivors, so results stay
// bit-identical to the host under any seeded fault schedule).

// segVec is one logical coefficient vector held as equal-length
// segments — one polynomial each, e.g. every component of a batch of
// ciphertexts — so drivers stage and gather it in place rather than
// through a flattened copy.
type segVec struct {
	segs      [][]uint32
	segCoeffs int // coefficients per segment
}

// newSegVec checks that every segment holds the same whole number of
// w-limb coefficients.
func newSegVec(segs [][]uint32, w int) (segVec, error) {
	if len(segs) == 0 || len(segs[0])%w != 0 {
		return segVec{}, errors.New("kernels: vector length not a multiple of the limb width")
	}
	for _, sg := range segs {
		if len(sg) != len(segs[0]) {
			return segVec{}, errors.New("kernels: segment length mismatch")
		}
	}
	return segVec{segs: segs, segCoeffs: len(segs[0]) / w}, nil
}

func (v segVec) coeffs() int { return len(v.segs) * v.segCoeffs }

// copyRange applies copyFn — the System's CopyToDPU or CopyFromDPU —
// to each segment piece of coefficients [s, e), placed in DPU d's MRAM
// from word off on.
func (v segVec) copyRange(copyFn func(d, off int, data []uint32) error, d, off, s, e, w int) error {
	for c := s; c < e; {
		g, lo := c/v.segCoeffs, c%v.segCoeffs
		hi := min(v.segCoeffs, lo+e-c)
		if err := copyFn(d, off+(c-s)*w, v.segs[g][lo*w:hi*w]); err != nil {
			return err
		}
		c += hi - lo
	}
	return nil
}

// planVectorAdd cuts out[i] = (a[i] + b[i]) mod q into nShards shards
// with the [a | b | out] per-DPU MRAM layout of RunVectorAdd.
func planVectorAdd(sys *pim.System, a, b, out segVec, w, nShards int, q limb32.Nat) []pimsched.Shard {
	coeffs := a.coeffs()
	toDPU, fromDPU := sys.CopyToDPU, sys.CopyFromDPU
	shards := make([]pimsched.Shard, nShards)
	for i := 0; i < nShards; i++ {
		s, e := pim.Partition(coeffs, nShards, i)
		cnt := e - s
		cw := cnt * w
		shards[i] = pimsched.Shard{
			BytesIn:  int64(8 * cw),
			BytesOut: int64(4 * cw),
			Stage: func(d int) error {
				if cw == 0 {
					return nil
				}
				if err := sys.DPUs[d].EnsureMRAM(3 * cw); err != nil {
					return err
				}
				if err := a.copyRange(toDPU, d, 0, s, e, w); err != nil {
					return err
				}
				return b.copyRange(toDPU, d, cw, s, e, w)
			},
			Gather: func(d int) error {
				if cw == 0 {
					return nil
				}
				return out.copyRange(fromDPU, d, 2*cw, s, e, w)
			},
		}
		if cnt > 0 {
			shards[i].Kernel = VectorAdd(VecAddLayout{
				W: w, Coeffs: cnt,
				OffA: 0, OffB: cw, OffOut: 2 * cw,
				Q: q,
			})
		}
	}
	return shards
}

// RunVectorAddSched is RunVectorAdd through the async execution plane.
func RunVectorAddSched(sched *pimsched.Scheduler, a, b []uint32, w int, q limb32.Nat) ([]uint32, *pimsched.Report, error) {
	out := make([]uint32, len(a))
	rep, err := RunVectorAddBatchSched(sched, [][]uint32{a}, [][]uint32{b}, [][]uint32{out}, w, q)
	if err != nil {
		return nil, nil, err
	}
	return out, rep, nil
}

// RunVectorAddBatchSched adds segment-wise, outs[k] = (as[k] + bs[k])
// mod q, in one scheduler run. The segments are read and written in
// place, and the run is sharded and costed exactly like
// RunVectorAddSched over their concatenation. All segments must have
// the same length.
func RunVectorAddBatchSched(sched *pimsched.Scheduler, as, bs, outs [][]uint32, w int, q limb32.Nat) (*pimsched.Report, error) {
	if len(as) != len(bs) || len(as) != len(outs) {
		return nil, errors.New("kernels: operand length mismatch")
	}
	a, err := newSegVec(as, w)
	if err != nil {
		return nil, err
	}
	b, err := newSegVec(bs, w)
	if err != nil {
		return nil, err
	}
	out, err := newSegVec(outs, w)
	if err != nil {
		return nil, err
	}
	if b.segCoeffs != a.segCoeffs || out.segCoeffs != a.segCoeffs {
		return nil, errors.New("kernels: operand length mismatch")
	}
	n := sched.TargetShards(a.coeffs())
	return sched.Run(planVectorAdd(sched.Sys, a, b, out, w, n, q))
}

// planVectorPolyMul cuts `pairs` negacyclic products into nShards
// shards with the [a | b | out] layout of RunVectorPolyMul.
func planVectorPolyMul(sys *pim.System, a, b, out []uint32, n, w, pairs, nShards int, q limb32.Nat) []pimsched.Shard {
	polyWords := n * w
	br := limb32.NewBarrett(q)
	shards := make([]pimsched.Shard, nShards)
	for i := 0; i < nShards; i++ {
		s, e := pim.Partition(pairs, nShards, i)
		cnt := e - s
		words := cnt * polyWords
		shards[i] = pimsched.Shard{
			BytesIn:  int64(8 * words),
			BytesOut: int64(4 * words),
			Stage: func(d int) error {
				if words == 0 {
					return nil
				}
				if err := sys.DPUs[d].EnsureMRAM(3 * words); err != nil {
					return err
				}
				if err := sys.CopyToDPU(d, 0, a[s*polyWords:e*polyWords]); err != nil {
					return err
				}
				return sys.CopyToDPU(d, words, b[s*polyWords:e*polyWords])
			},
			Gather: func(d int) error {
				if words == 0 {
					return nil
				}
				return sys.CopyFromDPU(d, 2*words, out[s*polyWords:e*polyWords])
			},
		}
		if cnt > 0 {
			shards[i].Kernel = VectorPolyMul(PolyMulLayout{
				W: w, N: n, Pairs: cnt,
				OffA: 0, OffB: words, OffOut: 2 * words,
				Q: q, BR: br,
			})
		}
	}
	return shards
}

// RunVectorPolyMulSched is RunVectorPolyMul through the async
// execution plane.
func RunVectorPolyMulSched(sched *pimsched.Scheduler, a, b []uint32, n, w int, q limb32.Nat) ([]uint32, *pimsched.Report, error) {
	if len(a) != len(b) {
		return nil, nil, errors.New("kernels: operand length mismatch")
	}
	polyWords := n * w
	if polyWords == 0 || len(a)%polyWords != 0 {
		return nil, nil, fmt.Errorf("kernels: vector length %d not a multiple of poly size %d", len(a), polyWords)
	}
	pairs := len(a) / polyWords
	out := make([]uint32, len(a))
	nShards := sched.TargetShards(pairs)
	rep, err := sched.Run(planVectorPolyMul(sched.Sys, a, b, out, n, w, pairs, nShards, q))
	if err != nil {
		return nil, nil, err
	}
	return out, rep, nil
}

// planVectorSum cuts an M-vector element-wise reduction into nShards
// coefficient shards with the layout of RunVectorSum.
func planVectorSum(sys *pim.System, vecs []segVec, out segVec, w, nShards int, q limb32.Nat) []pimsched.Shard {
	coeffs := out.coeffs()
	M := len(vecs)
	toDPU, fromDPU := sys.CopyToDPU, sys.CopyFromDPU
	shards := make([]pimsched.Shard, nShards)
	for i := 0; i < nShards; i++ {
		s, e := pim.Partition(coeffs, nShards, i)
		cnt := e - s
		cw := cnt * w
		shards[i] = pimsched.Shard{
			BytesIn:  int64(4 * M * cw),
			BytesOut: int64(4 * cw),
			Stage: func(d int) error {
				if cw == 0 {
					return nil
				}
				if err := sys.DPUs[d].EnsureMRAM((M + 1) * cw); err != nil {
					return err
				}
				for v := 0; v < M; v++ {
					if err := vecs[v].copyRange(toDPU, d, v*cw, s, e, w); err != nil {
						return err
					}
				}
				return nil
			},
			Gather: func(d int) error {
				if cw == 0 {
					return nil
				}
				return out.copyRange(fromDPU, d, M*cw, s, e, w)
			},
		}
		if cnt > 0 {
			shards[i].Kernel = VectorSum(VecSumLayout{
				W: w, Coeffs: cnt, M: M,
				OffIn: 0, OffOut: M * cw,
				Q: q,
			})
		}
	}
	return shards
}

// RunVectorSumSched is RunVectorSum through the async execution plane.
func RunVectorSumSched(sched *pimsched.Scheduler, vecs [][]uint32, w int, q limb32.Nat) ([]uint32, *pimsched.Report, error) {
	if len(vecs) == 0 {
		return nil, nil, errors.New("kernels: no vectors to sum")
	}
	out := make([]uint32, len(vecs[0]))
	rep, err := RunVectorSumBatchSched(sched, [][][]uint32{vecs}, [][]uint32{out}, w, q)
	if err != nil {
		return nil, nil, err
	}
	return out, rep, nil
}

// RunVectorSumBatchSched computes outs[g] = Σ_v groups[g][v] mod q for
// every group in one scheduler run: shards cover (group, coefficient
// range) pairs of the groups' concatenation, and each DPU reduces the
// M vectors of its shard in place, as RunVectorSumSched does for one
// group. Every group holds the same number M of vectors, and every
// vector and output has the same length.
func RunVectorSumBatchSched(sched *pimsched.Scheduler, groups [][][]uint32, outs [][]uint32, w int, q limb32.Nat) (*pimsched.Report, error) {
	if len(groups) == 0 || len(groups[0]) == 0 {
		return nil, errors.New("kernels: no vectors to sum")
	}
	if len(outs) != len(groups) {
		return nil, errors.New("kernels: output count mismatch")
	}
	out, err := newSegVec(outs, w)
	if err != nil {
		return nil, err
	}
	M := len(groups[0])
	vecs := make([]segVec, M)
	for v := range vecs {
		segs := make([][]uint32, len(groups))
		for g, grp := range groups {
			if len(grp) != M {
				return nil, errors.New("kernels: groups differ in vector count")
			}
			segs[g] = grp[v]
		}
		if vecs[v], err = newSegVec(segs, w); err != nil {
			return nil, err
		}
		if vecs[v].segCoeffs != out.segCoeffs {
			return nil, errors.New("kernels: vector length mismatch")
		}
	}
	nShards := sched.TargetShards(out.coeffs())
	return sched.Run(planVectorSum(sched.Sys, vecs, out, w, nShards, q))
}
