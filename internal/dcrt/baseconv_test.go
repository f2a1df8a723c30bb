package dcrt

import (
	"math/big"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/limb32"
	"repro/internal/poly"
)

// Property tests for the fast base conversion and the RNS-native
// scale-and-round, against big.Int oracles, over adversarial inputs:
// values at the ±2^BoundBits extremes, values whose remainder t·x mod q
// lands next to the ±q/2 centering boundary, tiny values near zero
// (the lift-counter danger zone the quarter shift exists for), and bulk
// random sweeps.

// residuePoly builds a residue-domain (non-NTT) element whose channel i
// holds vals[j] mod p_i — the exact-integer representation convModQ and
// ScaleRound consume after intt.
func residuePoly(c *Context, vals []*big.Int) *Poly {
	p := c.NewPoly()
	t := new(big.Int)
	for i, prime := range c.Basis.Primes {
		pb := new(big.Int).SetUint64(prime)
		for j, v := range vals {
			p.Coeffs[i][j] = t.Mod(v, pb).Uint64()
		}
	}
	return p
}

// testValues returns n signed integers covering the adversarial corners
// for the given context.
func testValues(c *Context, n int, rng *rand.Rand) []*big.Int {
	q := c.Mod.QBig
	bound := new(big.Int).Lsh(big.NewInt(1), uint(c.BoundBits))
	vals := make([]*big.Int, 0, n)
	add := func(v *big.Int) {
		if len(vals) < n {
			vals = append(vals, v)
		}
	}
	// Extremes and near-zero (the lift counter's danger zone without the
	// quarter shift).
	add(new(big.Int).Set(bound))
	add(new(big.Int).Neg(bound))
	add(big.NewInt(0))
	add(big.NewInt(1))
	add(big.NewInt(-1))
	add(new(big.Int).Sub(bound, big.NewInt(1)))
	add(new(big.Int).Sub(big.NewInt(0), new(big.Int).Sub(bound, big.NewInt(1))))
	// Values v = m·q + s with t·? — directly target the centering
	// boundary: pick v so that v mod q sits at (q±1)/2 and just beside.
	half := new(big.Int).Rsh(q, 1) // (q-1)/2 for odd q
	for _, off := range []int64{-1, 0, 1, 2} {
		s := new(big.Int).Add(half, big.NewInt(off))
		m := new(big.Int).Rand(rng, new(big.Int).Div(bound, q))
		v := new(big.Int).Mul(m, q)
		v.Add(v, s)
		if rng.Intn(2) == 0 {
			v.Neg(v)
		}
		add(v)
	}
	// Random fill, signed, up to the full bound.
	for len(vals) < n {
		v := new(big.Int).Rand(rng, bound)
		if rng.Intn(2) == 0 {
			v.Neg(v)
		}
		add(v)
	}
	return vals
}

func convContexts(t *testing.T, n int) []*Context {
	t.Helper()
	var out []*Context
	for _, qs := range testModuli {
		q, _ := new(big.Int).SetString(qs, 10)
		mod, err := poly.NewModulus(q)
		if err != nil {
			t.Fatal(err)
		}
		c, err := GetContext(mod, n, 2*mod.Bits()+40)
		if err != nil {
			t.Fatal(err)
		}
		if !c.RNSNative() {
			t.Fatalf("context for %d-bit modulus is not RNS-native", mod.Bits())
		}
		out = append(out, c)
	}
	return out
}

// largestPrimeBelow returns the largest prime below 2^bits.
func largestPrimeBelow(bits uint) *big.Int {
	p := new(big.Int).Lsh(big.NewInt(1), bits)
	p.Sub(p, big.NewInt(1))
	for !p.ProbablyPrime(32) {
		p.Sub(p, big.NewInt(2))
	}
	return p
}

// sec109Q is the 109-bit paper modulus.
func sec109Q() *big.Int {
	q, _ := new(big.Int).SetString(testModuli[2], 10)
	return q
}

// edgeContexts returns two-word contexts at the edges of the qring
// window and of the fused sweeps: the largest primes below 2⁶⁶ and 2¹²⁴
// (generic two-word loop, K = 3 and 5), the 109-bit modulus at the bound
// bfv sizes its basis for at n = 4096 (K = 4, the unrolled form) and with
// a wide bound (K ≥ 7).
func edgeContexts(t *testing.T, n int) []*Context {
	t.Helper()
	shapes := []struct {
		q     *big.Int
		bound int // 0: 2·bits(q) + 40, as convContexts
		wantK int // 0: any
	}{
		{largestPrimeBelow(66), 0, 0},
		{largestPrimeBelow(124), 0, 0},
		{sec109Q(), 232, 4},
		{sec109Q(), 400, 7},
	}
	var out []*Context
	for _, sh := range shapes {
		mod, err := poly.NewModulus(sh.q)
		if err != nil {
			t.Fatal(err)
		}
		bound := sh.bound
		if bound == 0 {
			bound = 2*mod.Bits() + 40
		}
		c, err := GetContext(mod, n, bound)
		if err != nil {
			t.Fatal(err)
		}
		if !c.RNSNative() {
			t.Fatalf("context for %d-bit modulus is not RNS-native", mod.Bits())
		}
		if sh.wantK != 0 && c.K() != sh.wantK {
			t.Fatalf("%d-bit modulus, bound %d: K = %d, want %d", mod.Bits(), bound, c.K(), sh.wantK)
		}
		out = append(out, c)
	}
	return out
}

// oracleContexts is convContexts followed by edgeContexts.
func oracleContexts(t *testing.T, n int) []*Context {
	return append(convContexts(t, n), edgeContexts(t, n)...)
}

// TestConvModQOracle drives the fast base conversion against x mod q
// computed with big.Int, over boundary and random inputs.
func TestConvModQOracle(t *testing.T) {
	const n = 64
	rng := rand.New(rand.NewSource(7))
	for _, c := range oracleContexts(t, n) {
		vals := testValues(c, n, rng)
		x := residuePoly(c, vals)
		lo := make([]uint64, n)
		hi := make([]uint64, n)
		c.convModQ(x, lo, hi)
		for j, v := range vals {
			want := new(big.Int).Mod(v, c.Mod.QBig)
			got := new(big.Int).SetUint64(hi[j])
			got.Lsh(got, 64)
			got.Or(got, new(big.Int).SetUint64(lo[j]))
			if got.Cmp(want) != 0 {
				t.Fatalf("q=%d bits K=%d, coeff %d (x=%v): convModQ=%v want %v",
					c.Mod.Bits(), c.K(), j, v, got, want)
			}
		}
	}
}

// TestScaleRoundOracle drives the full RNS-native rescale against the
// big.Int round-half-away-from-zero oracle, including remainders placed
// hard against the ±q/2 sign boundary.
func TestScaleRoundOracle(t *testing.T) {
	const n = 64
	rng := rand.New(rand.NewSource(11))
	for _, tMod := range []uint64{2, 16, 65537} {
		for _, c := range oracleContexts(t, n) {
			vals := testValues(c, n, rng)
			x := residuePoly(c, vals)
			// ScaleRound expects the NTT domain; transform the residues in.
			for i := range x.Coeffs {
				c.Tabs[i].Forward(x.Coeffs[i])
			}
			got := c.ScaleRounder(tMod).ScaleRound(x)
			tBig := new(big.Int).SetUint64(tMod)
			half := new(big.Int).Rsh(c.Mod.QBig, 1)
			for j, v := range vals {
				num := new(big.Int).Mul(v, tBig)
				if num.Sign() >= 0 {
					num.Add(num, half)
				} else {
					num.Sub(num, half)
				}
				num.Quo(num, c.Mod.QBig)
				num.Mod(num, c.Mod.QBig)
				if got.Coeff(j).Big().Cmp(num) != 0 {
					t.Fatalf("q=%d bits K=%d t=%d coeff %d (x=%v): ScaleRound=%v want %v",
						c.Mod.Bits(), c.K(), tMod, j, v, got.Coeff(j).Big(), num)
				}
			}
		}
	}
}

// TestScaleRoundParallel runs limb-parallel ScaleRound from many
// goroutines against precomputed answers — under -race this is the
// kernel's thread-safety proof (shared context, pooled scratch, shared
// rounder cache).
func TestScaleRoundParallel(t *testing.T) {
	const n = 256
	rng := rand.New(rand.NewSource(13))
	c := convContexts(t, n)[1] // 54-bit modulus
	sr := c.ScaleRounder(16)
	inputs := make([]*Poly, 8)
	want := make([]*poly.Poly, len(inputs))
	for g := range inputs {
		vals := testValues(c, n, rng)
		x := residuePoly(c, vals)
		for i := range x.Coeffs {
			c.Tabs[i].Forward(x.Coeffs[i])
		}
		inputs[g] = x
		want[g] = sr.ScaleRound(x)
	}
	var wg sync.WaitGroup
	errc := make(chan string, 4*len(inputs))
	for rep := 0; rep < 4; rep++ {
		for g := range inputs {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				if !c.ScaleRounder(16).ScaleRound(inputs[g]).Equal(want[g]) {
					errc <- "parallel ScaleRound diverged"
				}
			}(g)
		}
	}
	wg.Wait()
	close(errc)
	for msg := range errc {
		t.Fatal(msg)
	}
}

// TestDigitsToRNSOracle checks the limb-shift digit decomposition + NTT
// against the big.Int shift-and-mask oracle recombined through FromRNS.
func TestDigitsToRNSOracle(t *testing.T) {
	const n = 64
	rng := rand.New(rand.NewSource(17))
	for _, c := range convContexts(t, n) {
		base := uint(13)
		count := (c.Mod.Bits() + int(base) - 1) / int(base)
		p := poly.NewPoly(n, c.Mod.W)
		for j := 0; j < n; j++ {
			v := new(big.Int).Rand(rng, c.Mod.QBig)
			p.Coeff(j).Set(limb32.FromBig(v, c.Mod.W))
		}
		digits := c.DigitsToRNS(p, base, count)
		mask := new(big.Int).SetUint64(1<<base - 1)
		for d, dp := range digits {
			back := c.FromRNS(dp)
			for j := 0; j < n; j++ {
				want := new(big.Int).Rsh(p.Coeff(j).Big(), uint(d)*base)
				want.And(want, mask)
				if back.Coeff(j).Big().Cmp(want) != 0 {
					t.Fatalf("q=%d bits digit %d coeff %d: got %v want %v",
						c.Mod.Bits(), d, j, back.Coeff(j).Big(), want)
				}
			}
		}
	}
}

// boundedTestValues is testValues clamped to |v| < 2^magBits — the
// validity window RoundModT's limb-0 quotient read is gated on.
func boundedTestValues(c *Context, n, magBits int, rng *rand.Rand) []*big.Int {
	bound := new(big.Int).Lsh(big.NewInt(1), uint(magBits))
	vals := testValues(c, n, rng)
	for _, v := range vals {
		if v.CmpAbs(bound) >= 0 {
			v.Mod(v, bound)
		}
	}
	return vals
}

// TestRoundModTOracle drives the RNS-native decryption tail — the
// ⌊t·X/q⌉ mod t fold — against the big.Int round-half-away-from-zero +
// Euclidean-Mod oracle used by the schoolbook Decrypt.
func TestRoundModTOracle(t *testing.T) {
	const n = 64
	rng := rand.New(rand.NewSource(17))
	for _, tMod := range []uint64{2, 16, 65537} {
		for _, c := range oracleContexts(t, n) {
			sr := c.ScaleRounder(tMod)
			// The decryption phase magnitude is ~q·n²; give the oracle the
			// widest window the limb-0 read supports.
			magBits := 0
			for m := 1; m < c.BoundBits; m++ {
				if sr.CanRoundModT(m) {
					magBits = m
				}
			}
			if magBits < c.Mod.Bits()+10 {
				t.Fatalf("q=%d bits t=%d: RoundModT window %d too narrow for decryption",
					c.Mod.Bits(), tMod, magBits)
			}
			vals := boundedTestValues(c, n, magBits, rng)
			x := residuePoly(c, vals)
			for i := range x.Coeffs {
				c.Tabs[i].Forward(x.Coeffs[i])
			}
			out := make([]uint64, n)
			sr.RoundModT(x, out)
			tBig := new(big.Int).SetUint64(tMod)
			half := new(big.Int).Rsh(c.Mod.QBig, 1)
			for j, v := range vals {
				num := new(big.Int).Mul(v, tBig)
				if num.Sign() >= 0 {
					num.Add(num, half)
				} else {
					num.Sub(num, half)
				}
				num.Quo(num, c.Mod.QBig)
				num.Mod(num, tBig)
				if out[j] != num.Uint64() {
					t.Fatalf("q=%d bits K=%d t=%d coeff %d (x=%v): RoundModT=%d want %v",
						c.Mod.Bits(), c.K(), tMod, j, v, out[j], num)
				}
			}
		}
	}
}
