package kernels

import (
	"errors"

	"repro/internal/limb32"
	"repro/internal/pim"
)

// VecSumLayout describes one DPU's shard of an element-wise modular sum
// over M vectors: M shards of Coeffs coefficients stored consecutively
// starting at OffIn (vector v's shard at OffIn + v·Coeffs·W), output at
// OffOut.
type VecSumLayout struct {
	W      int
	Coeffs int
	M      int
	OffIn  int
	OffOut int
	Q      limb32.Nat
}

// VectorSum returns the tasklet program computing
// out[i] = Σ_v vec_v[i] mod q — the reduction at the heart of the paper's
// arithmetic-mean workload (§3: polynomial addition on the PIM cores, the
// final scalar division on the host).
func VectorSum(l VecSumLayout) pim.KernelFunc {
	return func(ctx *pim.TaskletCtx) error {
		start, end := pim.Partition(l.Coeffs, ctx.NumTasklets, ctx.TaskletID)
		if start >= end {
			return nil
		}
		w := l.W
		tile := addTile(w)
		tw := min(tile, end-start) * w // see VectorAdd: same DMAs as full tiles
		tiles := ctx.WRAM(2 * tw)
		acc, buf := tiles[:tw], tiles[tw:]
		for c := start; c < end; c += tile {
			cnt := tile
			if c+cnt > end {
				cnt = end - c
			}
			ctx.MRAMRead(l.OffIn+c*w, acc[:cnt*w]) // vector 0 seeds the accumulator
			for v := 1; v < l.M; v++ {
				ctx.MRAMRead(l.OffIn+(v*l.Coeffs+c)*w, buf[:cnt*w])
				for i := 0; i < cnt; i++ {
					limb32.AddMod(
						limb32.Nat(acc[i*w:(i+1)*w]),
						limb32.Nat(acc[i*w:(i+1)*w]),
						limb32.Nat(buf[i*w:(i+1)*w]),
						l.Q, ctx)
					ctx.ChargeInstr(2)
				}
			}
			ctx.MRAMWrite(l.OffOut+c*w, acc[:cnt*w])
		}
		return nil
	}
}

// RunVectorSum reduces M equal-length coefficient vectors element-wise
// modulo q across the system's DPUs: each DPU owns a coefficient shard of
// every vector and reduces it locally in a single kernel launch.
func RunVectorSum(sys *pim.System, vecs [][]uint32, w int, q limb32.Nat) ([]uint32, *pim.Report, error) {
	if len(vecs) == 0 {
		return nil, nil, errors.New("kernels: no vectors to sum")
	}
	length := len(vecs[0])
	for _, v := range vecs {
		if len(v) != length {
			return nil, nil, errors.New("kernels: vector length mismatch")
		}
	}
	if length%w != 0 {
		return nil, nil, errors.New("kernels: vector length not a multiple of the limb width")
	}
	coeffs := length / w
	dpus := activeDPUsFor(sys, coeffs)
	M := len(vecs)

	type shard struct{ start, end int }
	shards := make([]shard, dpus)
	for i := 0; i < dpus; i++ {
		s, e := pim.Partition(coeffs, dpus, i)
		shards[i] = shard{s, e}
	}
	out := make([]uint32, length)
	sys.ResetTransferAccounting()
	rep, err := runSharded(sys, dpus, shardOps{
		stage: func(i, d int) error {
			sh := shards[i]
			cw := (sh.end - sh.start) * w
			if cw == 0 {
				return nil
			}
			for v := 0; v < M; v++ {
				if err := sys.CopyToDPU(d, v*cw, vecs[v][sh.start*w:sh.end*w]); err != nil {
					return err
				}
			}
			return sys.DPUs[d].EnsureMRAM((M + 1) * cw)
		},
		kernel: func(i int) pim.KernelFunc {
			cnt := shards[i].end - shards[i].start
			if cnt == 0 {
				return nopKernel
			}
			return VectorSum(VecSumLayout{
				W: w, Coeffs: cnt, M: M,
				OffIn: 0, OffOut: M * cnt * w,
				Q: q,
			})
		},
		gather: func(i, d int) error {
			sh := shards[i]
			cw := (sh.end - sh.start) * w
			if cw == 0 {
				return nil
			}
			return sys.CopyFromDPU(d, M*cw, out[sh.start*w:sh.end*w])
		},
	})
	if err != nil {
		return nil, nil, err
	}
	rep.CopyOutSeconds = float64(int64(length*4)) / sys.Config.DPUToHostBytesPerSec
	return out, rep, nil
}
