package poly

import (
	"math/bits"

	"repro/internal/limb32"
)

// Word kernels: the unmetered host form of Add, Sub, Neg, the range
// check and the Galois automorphism. A coefficient of W ∈ {1, 2, 4}
// limbs is one or two uint64 words, loaded from and stored to the
// []uint32 backing limb pair by limb (the compiler fuses each pair into
// one 64-bit access). One-limb coefficients run the one-word arithmetic
// on values below 2³² and store the low 32 bits back.
//
// Every kernel computes exactly what the limb32 routine it replaces
// computes, modulo 2^(32·W), for any operands — reduced or not — so a
// metered call and an unmetered one are bit-identical. The modular add
// subtracts q when the add carried out of the top word or when the sum
// is ≥ q; the carry case is reachable for every q > 2^(32·W−1), the
// largest primes below 2⁶⁴ and 2¹²⁸ among them.

// wordKernels reports whether mod's coefficients fit the word kernels.
// Wider moduli (over 128 bits) keep the limb loop.
func wordKernels(mod *Modulus) bool { return mod.W <= 4 }

func load64(c []uint32, i int) uint64 { return uint64(c[i]) | uint64(c[i+1])<<32 }

func store64(c []uint32, i int, v uint64) { c[i], c[i+1] = uint32(v), uint32(v>>32) }

// addMod64 returns x + y mod q on one word: subtract q if the add
// carried or the sum is ≥ q (branch-free; the outcome is a coin flip on
// uniform residues).
func addMod64(x, y, q uint64) uint64 {
	s, c := bits.Add64(x, y, 0)
	r, br := bits.Sub64(s, q, 0)
	return s ^ (s^r)&-(c|(br^1))
}

// subMod64 returns x − y mod q on one word: add q back on borrow.
func subMod64(x, y, q uint64) uint64 {
	d, br := bits.Sub64(x, y, 0)
	return d + q&-br
}

// negMod64 returns −x mod q on one word, with −0 = 0.
func negMod64(x, q uint64) uint64 {
	return (q - x) & uint64(int64(x|-x)>>63)
}

// addMod128 is addMod64 on two words (x0, y0, q0 low): subtract q if
// the add carried out of the high word or the sum is ≥ q.
func addMod128(x0, x1, y0, y1, q0, q1 uint64) (uint64, uint64) {
	s0, c := bits.Add64(x0, y0, 0)
	s1, c := bits.Add64(x1, y1, c)
	r0, br := bits.Sub64(s0, q0, 0)
	r1, br := bits.Sub64(s1, q1, br)
	mask := -(c | (br ^ 1))
	return s0 ^ (s0^r0)&mask, s1 ^ (s1^r1)&mask
}

// subMod128 is subMod64 on two words.
func subMod128(x0, x1, y0, y1, q0, q1 uint64) (uint64, uint64) {
	d0, br := bits.Sub64(x0, y0, 0)
	d1, br := bits.Sub64(x1, y1, br)
	mask := -br
	d0, c := bits.Add64(d0, q0&mask, 0)
	d1, _ = bits.Add64(d1, q1&mask, c)
	return d0, d1
}

// negMod128 is negMod64 on two words.
func negMod128(x0, x1, q0, q1 uint64) (uint64, uint64) {
	r0, br := bits.Sub64(q0, x0, 0)
	r1, _ := bits.Sub64(q1, x1, br)
	nz := x0 | x1
	mask := uint64(int64(nz|-nz) >> 63)
	return r0 & mask, r1 & mask
}

// addWords sets d = a + b mod q coefficient-wise. d may alias a or b:
// each coefficient is fully loaded before it is stored.
func addWords(d, a, b []uint32, mod *Modulus) {
	q0, q1 := mod.qw[0], mod.qw[1]
	a, b = a[:len(d)], b[:len(d)]
	switch mod.W {
	case 1:
		for i := range d {
			d[i] = uint32(addMod64(uint64(a[i]), uint64(b[i]), q0))
		}
	case 2:
		for i := 0; i+2 <= len(d); i += 2 {
			x, y, z := a[i:i+2:i+2], b[i:i+2:i+2], d[i:i+2:i+2]
			store64(z, 0, addMod64(load64(x, 0), load64(y, 0), q0))
		}
	case 4:
		for i := 0; i+4 <= len(d); i += 4 {
			x, y, z := a[i:i+4:i+4], b[i:i+4:i+4], d[i:i+4:i+4]
			s0, s1 := addMod128(load64(x, 0), load64(x, 2), load64(y, 0), load64(y, 2), q0, q1)
			store64(z, 0, s0)
			store64(z, 2, s1)
		}
	}
}

// subWords sets d = a − b mod q coefficient-wise; d may alias a or b.
func subWords(d, a, b []uint32, mod *Modulus) {
	q0, q1 := mod.qw[0], mod.qw[1]
	a, b = a[:len(d)], b[:len(d)]
	switch mod.W {
	case 1:
		for i := range d {
			d[i] = uint32(subMod64(uint64(a[i]), uint64(b[i]), q0))
		}
	case 2:
		for i := 0; i+2 <= len(d); i += 2 {
			x, y, z := a[i:i+2:i+2], b[i:i+2:i+2], d[i:i+2:i+2]
			store64(z, 0, subMod64(load64(x, 0), load64(y, 0), q0))
		}
	case 4:
		for i := 0; i+4 <= len(d); i += 4 {
			x, y, z := a[i:i+4:i+4], b[i:i+4:i+4], d[i:i+4:i+4]
			s0, s1 := subMod128(load64(x, 0), load64(x, 2), load64(y, 0), load64(y, 2), q0, q1)
			store64(z, 0, s0)
			store64(z, 2, s1)
		}
	}
}

// negWords sets d = −a mod q coefficient-wise; d may alias a.
func negWords(d, a []uint32, mod *Modulus) {
	q0, q1 := mod.qw[0], mod.qw[1]
	a = a[:len(d)]
	switch mod.W {
	case 1:
		for i := range d {
			d[i] = uint32(negMod64(uint64(a[i]), q0))
		}
	case 2:
		for i := 0; i+2 <= len(d); i += 2 {
			x, z := a[i:i+2:i+2], d[i:i+2:i+2]
			store64(z, 0, negMod64(load64(x, 0), q0))
		}
	case 4:
		for i := 0; i+4 <= len(d); i += 4 {
			x, z := a[i:i+4:i+4], d[i:i+4:i+4]
			s0, s1 := negMod128(load64(x, 0), load64(x, 2), q0, q1)
			store64(z, 0, s0)
			store64(z, 2, s1)
		}
	}
}

// FirstUnreduced returns the index of the first coefficient of p that is
// not below q, or −1 when p is fully reduced — the range check every
// decoder runs on untrusted bytes.
func FirstUnreduced(p *Poly, mod *Modulus) int {
	if p.W != mod.W {
		panic("poly: operand shape mismatch")
	}
	c, q0, q1 := p.C, mod.qw[0], mod.qw[1]
	switch mod.W {
	case 1:
		for i, v := range c {
			if uint64(v) >= q0 {
				return i
			}
		}
	case 2:
		for i := 0; i+1 < len(c); i += 2 {
			if load64(c, i) >= q0 {
				return i / 2
			}
		}
	case 4:
		for i := 0; i+3 < len(c); i += 4 {
			_, br := bits.Sub64(load64(c, i), q0, 0)
			if _, br = bits.Sub64(load64(c, i+2), q1, br); br == 0 {
				return i / 4
			}
		}
	default:
		for i := 0; i < p.N; i++ {
			if limb32.Cmp(p.Coeff(i), mod.Q, nil) >= 0 {
				return i
			}
		}
	}
	return -1
}

// Automorphism sets dst = a(X^g) in R_q: coefficient i moves to
// position i·g mod 2n, negated when that position wraps past n
// (Xⁿ ≡ −1). g must be odd, making the map a permutation of the n
// positions, and dst must not alias a. With a non-nil Meter it charges
// the DPU stream: a W-limb move per kept coefficient, limb32.NegMod per
// negated one.
func Automorphism(dst, a *Poly, g uint64, mod *Modulus, m limb32.Meter) {
	if dst.N != a.N || dst.W != mod.W || a.W != mod.W {
		panic("poly: operand shape mismatch")
	}
	n, w := a.N, a.W
	// 2n divides 2⁶⁴, so the wrapped product keeps i·g mod 2n exact.
	mask := uint64(2*n - 1)
	if m != nil || !wordKernels(mod) {
		for i := 0; i < n; i++ {
			j := int((uint64(i) * g) & mask)
			src := a.Coeff(i)
			if j < n {
				dst.Coeff(j).Set(src)
				if m != nil {
					m.Tick(limb32.OpMove, w)
				}
			} else {
				limb32.NegMod(dst.Coeff(j-n), src, mod.Q, m)
			}
		}
		return
	}
	d, c, q0, q1 := dst.C, a.C, mod.qw[0], mod.qw[1]
	switch w {
	case 1:
		for i, v := range c {
			j := int((uint64(i) * g) & mask)
			if j < n {
				d[j] = v
			} else {
				d[j-n] = uint32(negMod64(uint64(v), q0))
			}
		}
	case 2:
		for i := 0; i < n; i++ {
			j := int((uint64(i) * g) & mask)
			v := load64(c, 2*i)
			if j >= n {
				j -= n
				v = negMod64(v, q0)
			}
			store64(d, 2*j, v)
		}
	case 4:
		for i := 0; i < n; i++ {
			j := int((uint64(i) * g) & mask)
			v0, v1 := load64(c, 4*i), load64(c, 4*i+2)
			if j >= n {
				j -= n
				v0, v1 = negMod128(v0, v1, q0, q1)
			}
			store64(d, 4*j, v0)
			store64(d, 4*j+2, v1)
		}
	}
}
