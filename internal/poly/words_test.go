package poly

import (
	"fmt"
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/limb32"
)

// wordTestModuli returns the paper's three primes plus the largest
// primes below 2³², 2⁶⁴ and 2¹²⁸: two moduli per width W = 1, 2, 4, the
// second of each pair close enough to the top of its width that a sum
// of two residues carries out of the top word.
func wordTestModuli(t testing.TB) []*Modulus {
	t.Helper()
	mods := testModuli(t)
	for _, bits := range []uint{32, 64, 128} {
		q := new(big.Int).Lsh(big.NewInt(1), bits)
		q.Sub(q, big.NewInt(1))
		for !q.ProbablyPrime(20) {
			q.Sub(q, big.NewInt(2))
		}
		m, err := NewModulus(q)
		if err != nil {
			t.Fatal(err)
		}
		mods = append(mods, m)
	}
	return mods
}

// edgePair builds operand polynomials a, b whose leading coefficients
// are the edge pairs — zeros, ones, q−1, pairs summing to exactly q and
// to 2q−2 — and whose remaining coefficients are random residues.
func edgePair(rng *rand.Rand, n int, mod *Modulus) (a, b *Poly) {
	q := mod.QBig
	one := big.NewInt(1)
	qm1 := new(big.Int).Sub(q, one)
	x := new(big.Int).Rand(rng, q)
	qmx := new(big.Int).Sub(q, x)
	if qmx.Cmp(q) == 0 {
		qmx.SetInt64(0)
	}
	zero := new(big.Int)
	pairs := [][2]*big.Int{
		{zero, zero}, {zero, one}, {one, zero}, {one, one},
		{qm1, zero}, {zero, qm1}, {qm1, one}, {one, qm1},
		{x, qmx}, {qmx, x}, {qm1, qm1},
	}
	a, b = randPoly(rng, n, mod), randPoly(rng, n, mod)
	for i, p := range pairs {
		a.Coeff(i).SetBig(p[0])
		b.Coeff(i).SetBig(p[1])
	}
	return a, b
}

// TestWordKernelsMatchLimbs: with a nil Meter Add, Sub and Neg run the
// word kernels, with a Meter the limb32 stream; both must give the same
// bits, including when dst aliases an operand.
func TestWordKernelsMatchLimbs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n = 64
	for _, mod := range wordTestModuli(t) {
		t.Run(fmt.Sprintf("W=%d/bits=%d", mod.W, mod.Bits()), func(t *testing.T) {
			a, b := edgePair(rng, n, mod)
			binary := []struct {
				name string
				op   func(dst, a, b *Poly, mod *Modulus, m limb32.Meter)
			}{{"Add", Add}, {"Sub", Sub}}
			for _, op := range binary {
				var c limb32.Counts
				want := NewPoly(n, mod.W)
				op.op(want, a, b, mod, &c)
				if c.Total() == 0 {
					t.Fatalf("%s: metered call charged nothing", op.name)
				}
				got := NewPoly(n, mod.W)
				op.op(got, a, b, mod, nil)
				if !got.Equal(want) {
					t.Fatalf("%s: word kernel differs from limb stream", op.name)
				}
				dstA := a.Clone()
				op.op(dstA, dstA, b, mod, nil)
				if !dstA.Equal(want) {
					t.Errorf("%s: dst == a differs", op.name)
				}
				dstB := b.Clone()
				op.op(dstB, a, dstB, mod, nil)
				if !dstB.Equal(want) {
					t.Errorf("%s: dst == b differs", op.name)
				}
			}
			for _, src := range []*Poly{a, b} {
				var c limb32.Counts
				want := NewPoly(n, mod.W)
				Neg(want, src, mod, &c)
				got := NewPoly(n, mod.W)
				Neg(got, src, mod, nil)
				if !got.Equal(want) {
					t.Fatal("Neg: word kernel differs from limb stream")
				}
				Neg(got, got, mod, nil)
				if !got.Equal(src) {
					t.Error("Neg: in-place double negation is not the identity")
				}
			}
		})
	}
}

// TestWordKernelsMatchLimbsUnreduced: the bit-identity holds for any
// limb patterns, not only residues — the word kernels compute what the
// limb32 routines compute modulo 2^(32·W).
func TestWordKernelsMatchLimbsUnreduced(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	const n = 64
	raw := func(w int) *Poly {
		p := NewPoly(n, w)
		for i := range p.C {
			p.C[i] = rng.Uint32()
		}
		for i := 0; i < w; i++ {
			p.C[i] = ^uint32(0) // one all-ones coefficient
		}
		return p
	}
	for _, mod := range wordTestModuli(t) {
		a, b := raw(mod.W), raw(mod.W)
		for _, op := range []func(dst, a, b *Poly, mod *Modulus, m limb32.Meter){Add, Sub} {
			want, got := NewPoly(n, mod.W), NewPoly(n, mod.W)
			op(want, a, b, mod, new(limb32.Counts))
			op(got, a, b, mod, nil)
			if !got.Equal(want) {
				t.Errorf("W=%d bits=%d: binary op differs on unreduced operands", mod.W, mod.Bits())
			}
		}
		want, got := NewPoly(n, mod.W), NewPoly(n, mod.W)
		Neg(want, a, mod, new(limb32.Counts))
		Neg(got, a, mod, nil)
		if !got.Equal(want) {
			t.Errorf("W=%d bits=%d: Neg differs on unreduced operands", mod.W, mod.Bits())
		}
	}
}

// TestFirstUnreducedMatchesCmp: the word range check accepts q−1 and
// rejects q and all-ones coefficients at the same index limb32.Cmp does.
func TestFirstUnreducedMatchesCmp(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const n = 64
	ref := func(p *Poly, mod *Modulus) int {
		for i := 0; i < p.N; i++ {
			if limb32.Cmp(p.Coeff(i), mod.Q, nil) >= 0 {
				return i
			}
		}
		return -1
	}
	for _, mod := range wordTestModuli(t) {
		qm1 := new(big.Int).Sub(mod.QBig, big.NewInt(1))
		allOnes := NewPoly(1, mod.W)
		for i := range allOnes.C {
			allOnes.C[i] = ^uint32(0)
		}
		for _, tc := range []struct {
			name string
			set  func(c limb32.Nat)
			want int
		}{
			{"reduced", func(limb32.Nat) {}, -1},
			{"q-1", func(c limb32.Nat) { c.SetBig(qm1) }, -1},
			{"q", func(c limb32.Nat) { c.Set(mod.Q) }, 37},
			{"all-ones", func(c limb32.Nat) { c.Set(allOnes.Coeff(0)) }, 37},
		} {
			p := randPoly(rng, n, mod)
			tc.set(p.Coeff(37))
			if got, want := FirstUnreduced(p, mod), ref(p, mod); got != want || got != tc.want {
				t.Errorf("W=%d bits=%d %s: FirstUnreduced = %d, limb32.Cmp scan = %d, want %d",
					mod.W, mod.Bits(), tc.name, got, want, tc.want)
			}
		}
	}
}

// limbAutomorphism is the limb-wise τ_g the word kernel replaced: Set
// for a kept coefficient (charged as W moves), limb32.NegMod for a
// negated one.
func limbAutomorphism(p *Poly, g uint64, mod *Modulus, m limb32.Meter) *Poly {
	n := p.N
	out := NewPoly(n, p.W)
	for i := 0; i < n; i++ {
		j := int((uint64(i) * g) % uint64(2*n))
		if j < n {
			out.Coeff(j).Set(p.Coeff(i))
			tick(m, limb32.OpMove, p.W)
		} else {
			limb32.NegMod(out.Coeff(j-n), p.Coeff(i), mod.Q, m)
		}
	}
	return out
}

// TestAutomorphismMatchesLimbs: τ_g from the word kernel and from the
// metered stream equal the limb-wise reference bit for bit, and the
// metered stream charges the reference's ticks.
func TestAutomorphismMatchesLimbs(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, mod := range wordTestModuli(t) {
		for _, n := range []int{64, 4096} {
			a, _ := edgePair(rng, n, mod)
			for _, g := range []uint64{1, 3, 5, uint64(2*n - 1), uint64(n + 1), 2*rng.Uint64() + 1} {
				var wantC, gotC limb32.Counts
				want := limbAutomorphism(a, g, mod, &wantC)
				got := NewPoly(n, mod.W)
				Automorphism(got, a, g, mod, nil)
				if !got.Equal(want) {
					t.Fatalf("W=%d bits=%d n=%d g=%d: word automorphism differs", mod.W, mod.Bits(), n, g)
				}
				metered := NewPoly(n, mod.W)
				Automorphism(metered, a, g, mod, &gotC)
				if !metered.Equal(want) || gotC != wantC {
					t.Fatalf("W=%d bits=%d n=%d g=%d: metered automorphism differs (ticks %v, want %v)",
						mod.W, mod.Bits(), n, g, gotC, wantC)
				}
			}
		}
	}
}

// BenchmarkAdd times one unmetered Add at n = 4096 for each paper
// modulus — the host's inner loop of a ciphertext Add or Sum.
func BenchmarkAdd(b *testing.B) {
	for _, mod := range testModuli(b) {
		b.Run(fmt.Sprintf("bits=%d", mod.Bits()), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			x, y := randPoly(rng, 4096, mod), randPoly(rng, 4096, mod)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Add(x, x, y, mod, nil)
			}
		})
	}
}
