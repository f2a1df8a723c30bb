package dcrt

import (
	"math/big"
	"math/bits"

	"repro/internal/modring"
)

// qring is fixed-width modular arithmetic for the ring modulus q of a
// Context, used by the RNS-native base-conversion and scale-and-round
// kernels. The paper's moduli are 27/54/109-bit primes, so q always fits
// two 64-bit words: below 2⁶² a modring.Ring does the work, and between
// 2⁶⁴ and 2¹²⁴ a three-word base-2⁶⁴ Barrett reduction (reduce192) does.
// Values are passed as (lo, hi) word pairs; for one-word moduli hi is
// always zero.
//
// Three words are enough for every value the kernels reduce: the base
// conversion's dot product Σ γ_i·[(Q'/p_i) mod q] has K ≤ maxFusedChunk
// terms, each below 2⁶⁰·q ≤ 2¹⁸⁴ (γ_i < p_i < 2⁶⁰), so it stays below
// 2¹⁸⁹; and mulSmall's v·s is below q·2⁶⁴ < 2¹⁸⁸.
//
// Moduli with 63/64 bits (no headroom for either path), above 2¹²⁴, or
// even (the centered remainder could tie at exactly q/2, which the
// round-half-away-from-zero oracle and the tie-free centering here would
// resolve differently) are rejected; the Context then keeps the big.Int
// recombination path.
type qring struct {
	words int           // 1 or 2
	r1    *modring.Ring // one-word path (q < 2⁶²)

	// two-word path: q = q1·2⁶⁴ + q0 with q1 ≠ 0, mu = ⌊2²⁵⁶/q⌋.
	q0, q1 uint64
	mu     [3]uint64

	half0, half1 uint64 // ⌊q/2⌋
}

// newQring returns the fixed-width ring for q, or nil when q's shape
// rules the word-sized path out.
func newQring(q *big.Int) *qring {
	if q.Bit(0) == 0 {
		return nil // even q could tie at q/2 during centering
	}
	b := q.BitLen()
	half := new(big.Int).Rsh(q, 1)
	switch {
	case b > 1 && b <= 62:
		return &qring{
			words: 1,
			r1:    modring.New(q.Uint64()),
			q0:    q.Uint64(),
			half0: half.Uint64(),
		}
	case b >= 65 && b <= 124:
		mu := new(big.Int).Lsh(big.NewInt(1), 256)
		mu.Div(mu, q)
		qr := &qring{
			words: 2,
			q0:    bigWord(q, 0),
			q1:    bigWord(q, 1),
			half0: bigWord(half, 0),
			half1: bigWord(half, 1),
		}
		qr.mu[0], qr.mu[1], qr.mu[2] = bigWord(mu, 0), bigWord(mu, 1), bigWord(mu, 2)
		return qr
	default:
		return nil
	}
}

// bigWord returns 64-bit word i of v (little-endian).
func bigWord(v *big.Int, i int) uint64 {
	w := v.Bits()
	if i >= len(w) {
		return 0
	}
	return uint64(w[i]) // big.Word is 64-bit on all supported platforms
}

// reduce192 returns x mod q for the three-word value x = x2·2¹²⁸ +
// x1·2⁶⁴ + x0. Two-word path only. It is HAC 14.42 with b = 2⁶⁴, k = 2
// and μ = ⌊2²⁵⁶/q⌋, specialised to x < 2¹⁹². With a = ⌊x/2⁶⁴⌋ < 2¹²⁸ the
// estimate q̂ = ⌊a·μ/2¹⁹²⌋ never exceeds x/q, and
//
//	x/q − a·μ/2¹⁹² < (x mod 2⁶⁴)/q + a/2¹⁹² < (2⁶⁴−1)/q + 2⁻⁶⁴ < 1
//
// because q > 2⁶⁴, so q̂ ≥ ⌊x/q⌋ − 1: the remainder x − q̂·q lies in
// [0, 2q) ⊂ [0, 2¹²⁸) — two words, computed mod 2¹²⁸ — and one
// conditional subtraction finishes (HAC's second correction covers
// x up to 2²⁵⁶ and never fires here).
func (qr *qring) reduce192(x0, x1, x2 uint64) (lo, hi uint64) {
	// Words 3 and 4 of the exact product (x1 + x2·2⁶⁴)·(μ0 + μ1·2⁶⁴ + μ2·2¹²⁸).
	h00, _ := bits.Mul64(x1, qr.mu[0])
	h01, l01 := bits.Mul64(x1, qr.mu[1])
	h02, l02 := bits.Mul64(x1, qr.mu[2])
	h10, l10 := bits.Mul64(x2, qr.mu[0])
	h11, l11 := bits.Mul64(x2, qr.mu[1])
	h12, l12 := bits.Mul64(x2, qr.mu[2])
	var c, c1, c2, c3 uint64
	w, c1 := bits.Add64(h00, l01, 0)
	_, c = bits.Add64(w, l10, 0)
	c1 += c
	w, c2 = bits.Add64(h01, h10, 0)
	w, c = bits.Add64(w, l02, 0)
	c2 += c
	w, c = bits.Add64(w, l11, 0)
	c2 += c
	_, c = bits.Add64(w, c1, 0)
	c2 += c
	q3, c3 := bits.Add64(h02, h11, 0)
	q3, c = bits.Add64(q3, l12, 0)
	c3 += c
	q3, c = bits.Add64(q3, c2, 0)
	c3 += c
	q4 := h12 + c3

	// r = (x − q̂·q) mod 2¹²⁸ < 2q, then one corrective subtraction.
	ph, pl := bits.Mul64(q3, qr.q0)
	ph += q3*qr.q1 + q4*qr.q0
	lo, b := bits.Sub64(x0, pl, 0)
	hi, _ = bits.Sub64(x1, ph, b)
	if hi > qr.q1 || (hi == qr.q1 && lo >= qr.q0) {
		lo, b = bits.Sub64(lo, qr.q0, 0)
		hi, _ = bits.Sub64(hi, qr.q1, b)
	}
	return lo, hi
}

// mulSmall returns (v·s) mod q for v = (lo, hi) < q and s < min(q, 2⁶⁴).
func (qr *qring) mulSmall(lo, hi, s uint64) (uint64, uint64) {
	if qr.words == 1 {
		return qr.r1.Mul(lo, s), 0
	}
	h0, x0 := bits.Mul64(lo, s)
	h1, l1 := bits.Mul64(hi, s)
	x1, c := bits.Add64(h0, l1, 0)
	return qr.reduce192(x0, x1, h1+c) // v·s < 2¹⁸⁸
}

// subMod returns (a - b) mod q for a, b < q. Two-word path only.
func (qr *qring) subMod(alo, ahi, blo, bhi uint64) (uint64, uint64) {
	lo, b := bits.Sub64(alo, blo, 0)
	hi, b := bits.Sub64(ahi, bhi, b)
	if b != 0 {
		var c uint64
		lo, c = bits.Add64(lo, qr.q0, 0)
		hi, _ = bits.Add64(hi, qr.q1, c)
	}
	return lo, hi
}

// put1 stores the one-word residue u < q at dst[j] — canonically when
// sign is nil, else as its centered magnitude with sign[j] = 1 for
// u > ⌊q/2⌋ (the centering test of poly.Poly.ToCenteredCoeffs; q being
// odd, it can never tie).
func (qr *qring) put1(dst, sign []uint64, j int, u uint64) {
	if sign != nil {
		var neg uint64
		if u > qr.half0 {
			u, neg = qr.q0-u, 1
		}
		sign[j] = neg
	}
	dst[j] = u
}

// put2 is put1 for the two-word residue (lo, hi) < q.
func (qr *qring) put2(dstLo, dstHi, sign []uint64, j int, lo, hi uint64) {
	if sign != nil {
		var neg uint64
		if hi > qr.half1 || (hi == qr.half1 && lo > qr.half0) {
			var b uint64
			lo, b = bits.Sub64(qr.q0, lo, 0)
			hi, _ = bits.Sub64(qr.q1, hi, b)
			neg = 1
		}
		sign[j] = neg
	}
	dstLo[j], dstHi[j] = lo, hi
}
