// Fast exact base conversion out of the extended RNS basis.
//
// The BEHZ/HPS-style conversion computes, for an integer X held as
// residues x_i over the basis primes p_i, the value X mod q for the ring
// modulus q — entirely in word arithmetic. Writing γ_i = [x_i·(Q'/p_i)⁻¹
// mod p_i], the CRT gives X = Σ γ_i·(Q'/p_i) − e·Q' for a small lift
// counter e = ⌊Σ γ_i/p_i⌋ < k, so
//
//	X mod q = ( Σ γ_i·[(Q'/p_i) mod q] − e·[Q' mod q] ) mod q .
//
// The only hazard is e: the classic approximate conversion estimates the
// sum Σ γ_i/p_i in fixed point and can be off by one when the fractional
// part X/Q' lands near 0 or 1. Instead of absorbing that error into
// noise (this backend must stay bit-identical to the schoolbook oracle),
// the kernel converts the shifted value Z = X + δ with δ = ⌊Q'/4⌋ and
// subtracts δ mod q afterwards. The Context sizes the basis so
// |X| ≤ 2^BoundBits ≤ Q'/8, which pins frac(Z/Q') into [1/8−ε, 3/8] —
// while the fixed-point estimate Σ ⌊γ_i·⌊2⁹⁶/p_i⌋/2³²⌋ undershoots
// Σ γ_i·2⁶⁴/p_i by less than k·(2²⁸+1) ≪ 2⁶⁴/8. The floor of the
// estimate therefore always equals e: the "approximate" conversion is
// exact for every value the evaluator produces.
//
// Both modulus widths run the conversion as one fused sweep over the
// coefficients: each coefficient's γ_i are computed in registers and
// consumed at once by the fixed-point lift sum and the dot product,
// followed by one reduction mod q and one lift-table subtraction. A
// one-word q accumulates the dot product in 128 bits and folds it with
// modring's Barrett reduction; a two-word q accumulates it in three
// words (below 2¹⁸⁹ for K ≤ maxFusedChunk) and folds it with
// qring.reduce192. The basis shapes of the paper's parameter sets —
// k = 3 for one-word q, K = 4 for the 109-bit q — run fully unrolled
// forms. A basis wider than maxFusedChunk primes is not RNS-native.
package dcrt

import (
	"math/big"
	"math/bits"
	"sync"

	"repro/internal/poly"
)

// modQTables are the word-pair constants that take the γ_i to a residue
// mod q: the per-prime (Q'/p_i) mod q and the lift table (e·Q' + δ) mod q
// for e = 0..k. The conversion's own tables yield X mod q; t-scaled
// copies (each entry times t, mod q) yield t·X mod q from the same sweep.
type modQTables struct {
	cLo, cHi []uint64
	eLo, eHi []uint64
}

// scaled returns the tables multiplied by s (s < min(q, 2⁶⁴)) mod q.
func (tb *modQTables) scaled(qr *qring, s uint64) *modQTables {
	out := &modQTables{
		cLo: make([]uint64, len(tb.cLo)), cHi: make([]uint64, len(tb.cHi)),
		eLo: make([]uint64, len(tb.eLo)), eHi: make([]uint64, len(tb.eHi)),
	}
	for i := range tb.cLo {
		out.cLo[i], out.cHi[i] = qr.mulSmall(tb.cLo[i], tb.cHi[i], s)
	}
	for e := range tb.eLo {
		out.eLo[e], out.eHi[e] = qr.mulSmall(tb.eLo[e], tb.eHi[e], s)
	}
	return out
}

// convState holds the precomputed tables of the fast base conversion
// basis → q. It exists only when the modulus shape supports the
// word-sized path (see newQring); otherwise the Context falls back to
// big.Int CRT recombination.
type convState struct {
	qr *qring

	// Per-prime: ω_i = (Q'/p_i)⁻¹ mod p_i with Shoup companion, the
	// fixed-point constant ν_i = ⌊2⁹⁶/p_i⌋, δ mod p_i, and q⁻¹ mod p_i
	// (the exact-division constant of the scale-and-round step).
	omega, omegaShoup []uint64
	nu                []uint64
	deltaP            []uint64
	qInvP, qInvPShoup []uint64

	tabs modQTables // the unscaled tables: the sweep yields X mod q

	// remFits[i] reports q ≤ p_i for a one-word q: a mod-q remainder
	// magnitude is then already a canonical residue in limb channel i and
	// the per-coefficient ReduceWide fold is skipped.
	remFits []bool

	rounders sync.Map // t (uint64) → *ScaleRounder
}

// newConvState builds the conversion tables, or returns nil when the
// modulus or basis shape rules the word-sized path out (q even, 63/64
// bits, above 2¹²⁴, sharing a factor with a basis prime, basis primes
// too narrow for the ν trick, or more than maxFusedChunk of them — 16
// for a one-word q). Callers then keep the big.Int path.
func newConvState(c *Context) *convState {
	qr := newQring(c.Mod.QBig)
	k := c.K()
	if qr == nil || k > maxFusedChunk || (qr.words == 1 && k > 16) {
		// A one-word q folds its 128-bit dot product Σ γ_i·C_i < q·Σ p_i
		// with modring's Barrett reduction, valid below q·2⁶⁴: at most
		// 16 primes below 2⁶⁰.
		return nil
	}
	cv := &convState{qr: qr}
	q := c.Mod.QBig
	delta := new(big.Int).Rsh(c.Basis.Q, 2)
	t := new(big.Int)
	for i, p := range c.Basis.Primes {
		nu := c.Basis.Nu96(i)
		if nu == 0 {
			return nil
		}
		inv, shoup := c.Basis.QHatInv(i)
		cv.omega = append(cv.omega, inv)
		cv.omegaShoup = append(cv.omegaShoup, shoup)
		cv.nu = append(cv.nu, nu)
		pb := new(big.Int).SetUint64(p)
		cv.deltaP = append(cv.deltaP, t.Mod(delta, pb).Uint64())
		qInv := new(big.Int).ModInverse(t.Mod(q, pb), pb)
		if qInv == nil {
			return nil
		}
		cv.qInvP = append(cv.qInvP, qInv.Uint64())
		cv.qInvPShoup = append(cv.qInvPShoup, c.Tabs[i].R.ShoupConst(qInv.Uint64()))
		t.Mod(c.Basis.QHat(i), q)
		cv.tabs.cLo = append(cv.tabs.cLo, bigWord(t, 0))
		cv.tabs.cHi = append(cv.tabs.cHi, bigWord(t, 1))
		cv.remFits = append(cv.remFits, qr.words == 1 && qr.q0 <= p)
	}
	for e := 0; e <= k; e++ {
		t.Mul(big.NewInt(int64(e)), c.Basis.Q)
		t.Add(t, delta)
		t.Mod(t, q)
		cv.tabs.eLo = append(cv.tabs.eLo, bigWord(t, 0))
		cv.tabs.eHi = append(cv.tabs.eHi, bigWord(t, 1))
	}
	return cv
}

// RNSNative reports whether this context can leave the RNS domain
// through the word-sized fast base conversion: q odd and one word below
// 2⁶² or two words between 2⁶⁴ and 2¹²⁴, and a basis of at most
// maxFusedChunk primes (16 for a one-word q), which every fused sweep
// requires. When false, FromRNS uses big.Int CRT recombination instead;
// bfv.NewParameters rejects such moduli.
func (c *Context) RNSNative() bool { return c.conv != nil }

// convModQ converts a residue-domain element (representing exact integer
// coefficients X with |X| ≤ 2^BoundBits) to X mod q, writing the
// canonical values into the (lo, hi) word slabs. Limb values may be
// lazily reduced (< 2p): the γ computation folds them exactly. dstHi may
// be nil for one-word moduli.
func (c *Context) convModQ(x *Poly, dstLo, dstHi []uint64) {
	c.convSweep(x, &c.conv.tabs, dstLo, dstHi, nil)
}

// convSweep is the fused conversion with the constant tables tb: it
// writes u = (Σ γ_i·C_i − E_e) mod q per coefficient — X mod q for the
// conversion's own tables, t·X mod q for t-scaled ones. With sign nil u
// is stored canonically; otherwise the centered form is stored as the
// magnitude |u cmod q| in (dstLo, dstHi) and sign[j] = 1 when negative.
// dstHi may be nil for one-word moduli (it is zeroed otherwise).
//
// Each γ_i = [(x_i + δ_i)·ω_i] mod p_i is computed in registers: the
// plain add never wraps (x_i < 2p, δ_i < p, 3p < 2⁶⁴) and the Shoup
// multiply reduces any word-sized operand exactly.
func (c *Context) convSweep(x *Poly, tb *modQTables, dstLo, dstHi, sign []uint64) {
	cv := c.conv
	qr := cv.qr
	k := c.K()
	var xs [maxFusedChunk][]uint64
	for i := 0; i < k; i++ {
		xs[i] = x.Coeffs[i]
	}
	primes := c.Basis.Primes
	eLo, eHi := tb.eLo, tb.eHi

	if qr.words == 1 {
		r1 := qr.r1
		if dstHi != nil {
			clear(dstHi[:c.N])
		}
		if k == 3 {
			// Fully unrolled three-limb form — the one-word basis shape of
			// every paper parameter set — with the per-limb constants held
			// in registers.
			x0, x1, x2 := xs[0], xs[1], xs[2]
			p0, p1, p2 := primes[0], primes[1], primes[2]
			d0, d1, d2 := cv.deltaP[0], cv.deltaP[1], cv.deltaP[2]
			om0, om1, om2 := cv.omega[0], cv.omega[1], cv.omega[2]
			os0, os1, os2 := cv.omegaShoup[0], cv.omegaShoup[1], cv.omegaShoup[2]
			nu0, nu1, nu2 := cv.nu[0], cv.nu[1], cv.nu[2]
			c0, c1, c2 := tb.cLo[0], tb.cLo[1], tb.cLo[2]
			parallelChunks(c.N, func(lo, hi int) {
				for j := lo; j < hi; j++ {
					g0 := gammaShoup(x0[j]+d0, om0, os0, p0)
					g1 := gammaShoup(x1[j]+d1, om1, os1, p1)
					g2 := gammaShoup(x2[j]+d2, om2, os2, p2)
					sLo, sHi := fix32(g0, nu0), uint64(0)
					var cc uint64
					sLo, cc = bits.Add64(sLo, fix32(g1, nu1), 0)
					sHi += cc
					_, cc = bits.Add64(sLo, fix32(g2, nu2), 0)
					sHi += cc
					aHi, aLo := bits.Mul64(g0, c0)
					aLo, aHi = mac2(aLo, aHi, g1, c1)
					aLo, aHi = mac2(aLo, aHi, g2, c2)
					qr.put1(dstLo, sign, j, r1.Sub(r1.ReduceWide(aHi, aLo), eLo[sHi]))
				}
			})
			return
		}
		parallelChunks(c.N, func(lo, hi int) {
			for j := lo; j < hi; j++ {
				var sLo, sHi, aLo, aHi, cc uint64
				for i := 0; i < k; i++ {
					g := gammaShoup(xs[i][j]+cv.deltaP[i], cv.omega[i], cv.omegaShoup[i], primes[i])
					sLo, cc = bits.Add64(sLo, fix32(g, cv.nu[i]), 0)
					sHi += cc
					aLo, aHi = mac2(aLo, aHi, g, tb.cLo[i])
				}
				qr.put1(dstLo, sign, j, r1.Sub(r1.ReduceWide(aHi, aLo), eLo[sHi]))
			}
		})
		return
	}

	if k == 4 {
		// Fully unrolled four-limb form — the basis shape of the 109-bit
		// paper modulus.
		x0, x1, x2, x3 := xs[0], xs[1], xs[2], xs[3]
		p0, p1, p2, p3 := primes[0], primes[1], primes[2], primes[3]
		d0, d1, d2, d3 := cv.deltaP[0], cv.deltaP[1], cv.deltaP[2], cv.deltaP[3]
		om0, om1, om2, om3 := cv.omega[0], cv.omega[1], cv.omega[2], cv.omega[3]
		os0, os1, os2, os3 := cv.omegaShoup[0], cv.omegaShoup[1], cv.omegaShoup[2], cv.omegaShoup[3]
		nu0, nu1, nu2, nu3 := cv.nu[0], cv.nu[1], cv.nu[2], cv.nu[3]
		cl0, cl1, cl2, cl3 := tb.cLo[0], tb.cLo[1], tb.cLo[2], tb.cLo[3]
		ch0, ch1, ch2, ch3 := tb.cHi[0], tb.cHi[1], tb.cHi[2], tb.cHi[3]
		parallelChunks(c.N, func(lo, hi int) {
			for j := lo; j < hi; j++ {
				g0 := gammaShoup(x0[j]+d0, om0, os0, p0)
				g1 := gammaShoup(x1[j]+d1, om1, os1, p1)
				g2 := gammaShoup(x2[j]+d2, om2, os2, p2)
				g3 := gammaShoup(x3[j]+d3, om3, os3, p3)
				sLo, sHi := fix32(g0, nu0), uint64(0)
				var cc uint64
				sLo, cc = bits.Add64(sLo, fix32(g1, nu1), 0)
				sHi += cc
				sLo, cc = bits.Add64(sLo, fix32(g2, nu2), 0)
				sHi += cc
				_, cc = bits.Add64(sLo, fix32(g3, nu3), 0)
				sHi += cc
				a0, a1, a2 := mac3(0, 0, 0, g0, cl0, ch0)
				a0, a1, a2 = mac3(a0, a1, a2, g1, cl1, ch1)
				a0, a1, a2 = mac3(a0, a1, a2, g2, cl2, ch2)
				a0, a1, a2 = mac3(a0, a1, a2, g3, cl3, ch3)
				uLo, uHi := qr.reduce192(a0, a1, a2)
				uLo, uHi = qr.subMod(uLo, uHi, eLo[sHi], eHi[sHi])
				qr.put2(dstLo, dstHi, sign, j, uLo, uHi)
			}
		})
		return
	}
	parallelChunks(c.N, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			var sLo, sHi, a0, a1, a2, cc uint64
			for i := 0; i < k; i++ {
				g := gammaShoup(xs[i][j]+cv.deltaP[i], cv.omega[i], cv.omegaShoup[i], primes[i])
				sLo, cc = bits.Add64(sLo, fix32(g, cv.nu[i]), 0)
				sHi += cc
				a0, a1, a2 = mac3(a0, a1, a2, g, tb.cLo[i], tb.cHi[i])
			}
			uLo, uHi := qr.reduce192(a0, a1, a2)
			uLo, uHi = qr.subMod(uLo, uHi, eLo[sHi], eHi[sHi])
			qr.put2(dstLo, dstHi, sign, j, uLo, uHi)
		}
	})
}

// gammaShoup returns (v·ω) mod p for any word v, given ω's Shoup
// companion ωs = ⌊ω·2⁶⁴/p⌋.
func gammaShoup(v, om, oms, p uint64) uint64 {
	qh, _ := bits.Mul64(v, oms)
	g := v*om - qh*p
	if g >= p {
		g -= p
	}
	return g
}

// fix32 returns ⌊g·ν/2³²⌋ mod 2⁶⁴, one term of the fixed-point lift sum.
func fix32(g, nu uint64) uint64 {
	ph, pl := bits.Mul64(g, nu)
	return ph<<32 | pl>>32
}

// mac2 adds g·c to the two-word accumulator (lo, hi); the one-word dot
// product Σ γ_i·C_i < q·Σ p_i < 2¹²⁶ never overflows it.
func mac2(lo, hi, g, c uint64) (uint64, uint64) {
	ph, pl := bits.Mul64(g, c)
	var cc uint64
	lo, cc = bits.Add64(lo, pl, 0)
	return lo, hi + ph + cc
}

// mac3 adds g·(cl + ch·2⁶⁴) to the three-word accumulator (a0, a1, a2);
// the two-word dot product stays below 2¹⁹² (see qring).
func mac3(a0, a1, a2, g, cl, ch uint64) (uint64, uint64, uint64) {
	h0, l0 := bits.Mul64(g, cl)
	h1, l1 := bits.Mul64(g, ch)
	var c1, c3 uint64
	a0, c1 = bits.Add64(a0, l0, 0)
	mid, c2 := bits.Add64(h0, l1, 0)
	a1, c3 = bits.Add64(a1, mid, c1)
	return a0, a1, a2 + h1 + c2 + c3
}

// packModQ packs canonical mod-q word pairs into a coefficient-domain
// R_q polynomial (W ≤ 4 limbs, guaranteed by the qring width limits).
func (c *Context) packModQ(dst *poly.Poly, lo, hi []uint64) {
	w := c.Mod.W
	for j := 0; j < c.N; j++ {
		cf := dst.C[j*w : (j+1)*w]
		cf[0] = uint32(lo[j])
		if w > 1 {
			cf[1] = uint32(lo[j] >> 32)
		}
		if w > 2 {
			cf[2] = uint32(hi[j])
			cf[3] = uint32(hi[j] >> 32)
		}
	}
}

// getU64 returns a pooled length-N word slab.
func (c *Context) getU64() *[]uint64 { return c.u64s.Get().(*[]uint64) }

// getHi returns a pooled slab for the high words of mod-q values, or nil
// when q fits one word.
func (c *Context) getHi() *[]uint64 {
	if c.conv.qr.words == 1 {
		return nil
	}
	return c.getU64()
}

// putU64 returns a slab from getU64 or getHi (nil is a no-op).
func (c *Context) putU64(s *[]uint64) {
	if s != nil {
		c.u64s.Put(s)
	}
}

// slab dereferences a pooled slab; nil stays nil.
func slab(s *[]uint64) []uint64 {
	if s == nil {
		return nil
	}
	return *s
}

// DigitsToRNS splits p into its base-2^baseBits digit polynomials and
// returns each directly in double-CRT (NTT) form — the relinearization
// and Galois key-switching digit kernel. A digit value is below 2³² and
// hence below every basis prime, so its residue is itself in every limb
// channel: the decomposition is pure limb shifts (no big.Int) and the
// only per-digit cost beyond them is the forward transform set.
//
// Digit NTT forms are lazily reduced (< 2p): the lazy forward transform's
// [0, 4p) outputs are folded once instead of twice, because every
// consumer — the 128-bit fused accumulators, the per-digit Shoup and
// Barrett kernels, and the inverse transform behind FromRNS — accepts the
// 2p bound and reduces digit operands exactly.
//
// The returned elements come from the context's scratch pool: callers
// that drop them after one use (the key-switching accumulators do)
// should hand them back via PutScratch to keep steady-state evaluation
// allocation-free.
func (c *Context) DigitsToRNS(p *poly.Poly, baseBits uint, count int) []*Poly {
	if baseBits == 0 || baseBits > 32 {
		panic("dcrt: digit base must be 1..32 bits")
	}
	if p.N != c.N || p.W != c.Mod.W {
		panic("dcrt: polynomial shape mismatch")
	}
	mask := uint64(1)<<baseBits - 1
	w := p.W
	out := make([]*Poly, count)
	for d := range out {
		out[d] = c.getScratch()
		ch0 := out[d].Coeffs[0]
		s := uint(d) * baseBits
		li, off := int(s/32), s%32
		for j := 0; j < c.N; j++ {
			var v uint64
			if li < w {
				limbs := p.C[j*w : (j+1)*w]
				v = uint64(limbs[li]) >> off
				if li+1 < w {
					v |= uint64(limbs[li+1]) << (32 - off)
				}
			}
			ch0[j] = v & mask
		}
		for i := 1; i < c.K(); i++ {
			copy(out[d].Coeffs[i], ch0)
		}
	}
	c.digitsForward(out, c.K())
	return out
}

// digitsForward runs the lazy forward transform set over the first
// `limbs` limb channels of every digit, folding the outputs below 2p so
// the elements satisfy the general Poly lazy bound (every kernel,
// including the inverse transform, accepts < 2p).
func (c *Context) digitsForward(out []*Poly, limbs int) {
	parallelFor(len(out)*limbs, func(t int) {
		tab := c.Tabs[t%limbs]
		ch := out[t/limbs].Coeffs[t%limbs]
		tab.ForwardLazy(ch)
		twoQ := 2 * tab.R.Q
		for j, v := range ch {
			if v >= twoQ {
				ch[j] = v - twoQ
			}
		}
	})
}

// digitsForwardLazy is digitsForward without the folding pass: digit
// channels keep the raw [0, 4p) ForwardLazy bound. Only for digit sets
// that feed the 128-bit fused accumulators exclusively (fuseCap accounts
// for the 4p operand) — the deferred multiplication path.
func (c *Context) digitsForwardLazy(out []*Poly, limbs int) {
	parallelFor(len(out)*limbs, func(t int) {
		c.Tabs[t%limbs].ForwardLazy(out[t/limbs].Coeffs[t%limbs])
	})
}

// DigitsToRNSWords is DigitsToRNS reading the canonical mod-q coefficients
// from base-conversion word pairs instead of a packed polynomial — the
// deferred multiplication pipeline's digit source, which never
// materializes the rescaled c2 component. Only the first `limbs` limb
// channels are populated and transformed (lazily, < 4p: the digits feed
// the fused accumulators, which fold exactly); pass K() for a full-basis
// digit set. hi may be nil when q fits one word.
func (c *Context) DigitsToRNSWords(lo, hi []uint64, baseBits uint, count, limbs int) []*Poly {
	if baseBits == 0 || baseBits > 32 {
		panic("dcrt: digit base must be 1..32 bits")
	}
	mask := uint64(1)<<baseBits - 1
	out := make([]*Poly, count)
	for d := range out {
		out[d] = c.getScratch()
		ch0 := out[d].Coeffs[0]
		off := uint(d) * baseBits
		switch {
		case off >= 64 && hi == nil:
			for j := 0; j < c.N; j++ {
				ch0[j] = 0
			}
		case off >= 64:
			sh := off - 64
			for j := 0; j < c.N; j++ {
				ch0[j] = hi[j] >> sh & mask
			}
		case hi == nil:
			for j := 0; j < c.N; j++ {
				ch0[j] = lo[j] >> off & mask
			}
		default:
			for j := 0; j < c.N; j++ {
				v := lo[j] >> off
				if off != 0 {
					v |= hi[j] << (64 - off)
				}
				ch0[j] = v & mask
			}
		}
		for i := 1; i < limbs; i++ {
			copy(out[d].Coeffs[i], ch0)
		}
	}
	c.digitsForwardLazy(out, limbs)
	return out
}
