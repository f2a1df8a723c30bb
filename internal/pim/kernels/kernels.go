// Package kernels contains the DPU programs of the paper's §3: polynomial
// (vector) addition and negacyclic polynomial multiplication over 32-, 64-
// and 128-bit coefficients, written against the pim simulator's tasklet
// API. Each kernel is the direct analogue of the UPMEM C code the paper
// describes: WRAM tiles staged by DMA, add/addc chains for wide addition,
// Karatsuba + Barrett for wide multiplication.
package kernels

import (
	"fmt"

	"repro/internal/limb32"
	"repro/internal/pim"
)

// VecAddLayout describes one DPU's shard of an element-wise modular
// vector addition: Coeffs W-limb values at OffA and OffB, result at OffOut.
type VecAddLayout struct {
	W      int
	Coeffs int
	OffA   int
	OffB   int
	OffOut int
	Q      limb32.Nat
	BR     *limb32.Barrett // unused by addition; kept for symmetry
}

// addTile returns the DMA tile size (in coefficients) for width w: three
// buffers (a, b, out) must fit comfortably in WRAM.
func addTile(w int) int {
	t := (pim.WRAMWords / 4) / (3 * w) // quarter of WRAM for data tiles
	if t < 1 {
		t = 1
	}
	return t
}

// VectorAdd returns the tasklet program computing out[i] = (a[i]+b[i]) mod q.
// Each PIM thread performs the element-wise addition of the coefficients
// of two polynomials (paper §3, "Homomorphic Addition"), using the native
// 32-bit add/addc instructions for multi-limb carries.
func VectorAdd(l VecAddLayout) pim.KernelFunc {
	return func(ctx *pim.TaskletCtx) error {
		start, end := pim.Partition(l.Coeffs, ctx.NumTasklets, ctx.TaskletID)
		if start >= end {
			return nil
		}
		w := l.W
		tile := addTile(w)
		// Tiles hold at most this tasklet's share: no DMA is longer, so
		// the transfers and their charges are the same as with full tiles.
		tw := min(tile, end-start) * w
		buf := ctx.WRAM(3 * tw)
		bufA, bufB, bufO := buf[:tw], buf[tw:2*tw], buf[2*tw:]
		for c := start; c < end; c += tile {
			cnt := tile
			if c+cnt > end {
				cnt = end - c
			}
			ctx.MRAMRead(l.OffA+c*w, bufA[:cnt*w])
			ctx.MRAMRead(l.OffB+c*w, bufB[:cnt*w])
			for i := 0; i < cnt; i++ {
				limb32.AddMod(
					limb32.Nat(bufO[i*w:(i+1)*w]),
					limb32.Nat(bufA[i*w:(i+1)*w]),
					limb32.Nat(bufB[i*w:(i+1)*w]),
					l.Q, ctx)
				ctx.ChargeInstr(2) // loop index + branch
			}
			ctx.MRAMWrite(l.OffOut+c*w, bufO[:cnt*w])
		}
		return nil
	}
}

// PolyMulLayout describes one DPU's shard of a ciphertext vector
// multiplication: Pairs polynomial pairs of degree N with W-limb
// coefficients. Polynomial p's operands live at OffA+p·N·W and
// OffB+p·N·W; the product goes to OffOut+p·N·W.
type PolyMulLayout struct {
	W      int
	N      int
	Pairs  int
	OffA   int
	OffB   int
	OffOut int
	Q      limb32.Nat
	BR     *limb32.Barrett
}

// VectorPolyMul returns the tasklet program computing, for every pair,
// the negacyclic product a·b mod (Xᴺ+1, q) by schoolbook multiplication —
// the paper's §3 "Homomorphic Multiplication" kernel: 32-bit products use
// the compiler's shift-and-add multiply; 64- and 128-bit coefficients are
// split into 32-bit chunks combined with Karatsuba.
//
// Tasklets split the output coefficients of each pair. Operand data is
// staged through WRAM tiles; accumulation happens in WRAM at full
// 2W+1-limb precision, with a single modular reduction per output
// coefficient.
func VectorPolyMul(l PolyMulLayout) pim.KernelFunc {
	return func(ctx *pim.TaskletCtx) error {
		n, w := l.N, l.W
		accW := 2*w + 1
		k0, k1 := pim.Partition(n, ctx.NumTasklets, ctx.TaskletID)
		if k0 >= k1 {
			return nil
		}
		K := k1 - k0

		// WRAM budget: accumulators (pos+neg), an a-tile, and a b-window.
		tile := (pim.WRAMWords - 2*K*accW) / (4 * w)
		if tile < 1 {
			return fmt.Errorf("kernels: WRAM exhausted (N=%d W=%d tasklets=%d)", n, w, ctx.NumTasklets)
		}
		if tile > n {
			tile = n
		}

		accPos := make([]uint32, K*accW)
		accNeg := make([]uint32, K*accW)
		aTile := make([]uint32, tile*w)
		bWin := make([]uint32, (K+tile-1)*w)
		prod := limb32.NewNat(2 * w)
		rp := limb32.NewNat(w)
		rn := limb32.NewNat(w)
		out := make([]uint32, K*w)

		for p := 0; p < l.Pairs; p++ {
			offA := l.OffA + p*n*w
			offB := l.OffB + p*n*w
			for i := range accPos {
				accPos[i] = 0
			}
			for i := range accNeg {
				accNeg[i] = 0
			}

			for i0 := 0; i0 < n; i0 += tile {
				cnt := tile
				if i0+cnt > n {
					cnt = n - i0
				}
				ctx.MRAMRead(offA+i0*w, aTile[:cnt*w])

				// b indices needed: j = (k−i) mod n for k∈[k0,k1), i∈[i0,i0+cnt)
				// — a contiguous window of length K+cnt−1 starting at
				// (k0−i0−cnt+1) mod n. Read it with at most two DMAs (wrap).
				winLen := K + cnt - 1
				winStart := ((k0-i0-cnt+1)%n + n) % n
				readWindow(ctx, offB, winStart, winLen, n, w, bWin)

				for k := k0; k < k1; k++ {
					for i := i0; i < i0+cnt; i++ {
						j := k - i
						negTerm := false
						if j < 0 {
							j += n
							negTerm = true
						}
						wi := j - winStart
						if wi < 0 {
							wi += n
						}
						ai := limb32.Nat(aTile[(i-i0)*w : (i-i0+1)*w])
						bj := limb32.Nat(bWin[wi*w : (wi+1)*w])
						limb32.Mul(prod, ai, bj, ctx)
						acc := accPos
						if negTerm {
							acc = accNeg
						}
						accumAdd(acc[(k-k0)*accW:(k-k0+1)*accW], prod, ctx)
						ctx.ChargeInstr(3) // index arithmetic + wrap test + branch
					}
				}
			}

			// Reduce accumulators mod q and write the shard's outputs.
			for k := 0; k < K; k++ {
				limb32.Mod(rp, limb32.Nat(accPos[k*accW:(k+1)*accW]), l.Q, ctx)
				limb32.Mod(rn, limb32.Nat(accNeg[k*accW:(k+1)*accW]), l.Q, ctx)
				limb32.SubMod(limb32.Nat(out[k*w:(k+1)*w]), rp, rn, l.Q, ctx)
			}
			ctx.MRAMWrite(l.OffOut+p*n*w+k0*w, out[:K*w])
		}
		return nil
	}
}

// readWindow reads winLen coefficients of width w starting at circular
// coefficient index start (mod n) from the polynomial at MRAM offset
// base, handling the wraparound with a second DMA.
func readWindow(ctx *pim.TaskletCtx, base, start, winLen, n, w int, dst []uint32) {
	first := winLen
	if start+first > n {
		first = n - start
	}
	ctx.MRAMRead(base+start*w, dst[:first*w])
	if first < winLen {
		ctx.MRAMRead(base, dst[first*w:winLen*w])
	}
}

// accumAdd adds a 2w-limb product into a (2w+1)-limb accumulator with an
// addc chain, charging the tasklet.
func accumAdd(acc []uint32, src limb32.Nat, m limb32.Meter) {
	var carry uint64
	for i := 0; i < len(src); i++ {
		s := uint64(acc[i]) + uint64(src[i]) + carry
		acc[i] = uint32(s)
		carry = s >> 32
	}
	if carry != 0 {
		acc[len(src)] += uint32(carry) // accumulator is sized to never carry out
	}
	if m != nil {
		m.Tick(limb32.OpLoad, len(src))
		m.Tick(limb32.OpAddC, len(src)+1)
		m.Tick(limb32.OpStore, len(src))
		m.Tick(limb32.OpLoop, len(src))
	}
}
