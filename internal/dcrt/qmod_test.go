package dcrt

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// Oracle tests for the fixed-width mod-q kernels against big.Int, over
// their whole documented domain: reduce192 takes any x < 2¹⁹², mulSmall
// any v < q and s < min(q, 2⁶⁴).

// twoWordModuli returns the two-word moduli the qring tests run on: the
// window's edges — the smallest prime above 2⁶⁴, where reduce192's
// one-correction bound is tightest, and the largest primes below 2⁶⁶
// and 2¹²⁴ — and the 109-bit paper modulus.
func twoWordModuli() []*big.Int {
	above64 := new(big.Int).Lsh(big.NewInt(1), 64)
	above64.Add(above64, big.NewInt(1))
	for !above64.ProbablyPrime(32) {
		above64.Add(above64, big.NewInt(2))
	}
	return []*big.Int{above64, largestPrimeBelow(66), sec109Q(), largestPrimeBelow(124)}
}

func words3(x *big.Int) (uint64, uint64, uint64) {
	return bigWord(x, 0), bigWord(x, 1), bigWord(x, 2)
}

func pairBig(lo, hi uint64) *big.Int {
	v := new(big.Int).SetUint64(hi)
	v.Lsh(v, 64)
	return v.Or(v, new(big.Int).SetUint64(lo))
}

// reduce192Inputs returns the adversarial and random x < 2¹⁹² for q.
func reduce192Inputs(q *big.Int, rng *rand.Rand) []*big.Int {
	one := big.NewInt(1)
	top := new(big.Int).Lsh(one, 192) // exclusive bound
	maxM := new(big.Int).Div(new(big.Int).Sub(top, one), q)
	var xs []*big.Int
	add := func(v *big.Int) {
		if v.Sign() >= 0 && v.Cmp(top) < 0 {
			xs = append(xs, v)
		}
	}
	// All-ones words, in every combination.
	for mask := 0; mask < 8; mask++ {
		v := new(big.Int)
		for w := 0; w < 3; w++ {
			if mask>>w&1 == 1 {
				v.Or(v, new(big.Int).Lsh(new(big.Int).SetUint64(math.MaxUint64), uint(64*w)))
			}
		}
		add(v)
	}
	add(new(big.Int).Sub(q, one))
	add(new(big.Int).Set(q))
	add(new(big.Int).Add(q, one))
	// Exact multiples m·q and m·q + (q−1), for m at the ends of the range
	// and random in between.
	ms := []*big.Int{big.NewInt(1), big.NewInt(2), big.NewInt(3), new(big.Int).Set(maxM),
		new(big.Int).Sub(maxM, one), new(big.Int).Rsh(maxM, 1), new(big.Int).Lsh(one, 64)}
	for i := 0; i < 64; i++ {
		ms = append(ms, new(big.Int).Rand(rng, maxM))
	}
	for _, m := range ms {
		mq := new(big.Int).Mul(m, q)
		add(mq)
		add(new(big.Int).Add(mq, new(big.Int).Sub(q, one)))
		add(new(big.Int).Sub(mq, one))
	}
	for i := 0; i < 2000; i++ {
		add(new(big.Int).Rand(rng, top))
	}
	return xs
}

func TestReduce192Oracle(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, q := range twoWordModuli() {
		qr := newQring(q)
		if qr == nil || qr.words != 2 {
			t.Fatalf("%d-bit q: no two-word ring", q.BitLen())
		}
		for _, x := range reduce192Inputs(q, rng) {
			x0, x1, x2 := words3(x)
			lo, hi := qr.reduce192(x0, x1, x2)
			want := new(big.Int).Mod(x, q)
			if got := pairBig(lo, hi); got.Cmp(want) != 0 {
				t.Fatalf("%d-bit q: reduce192(%v) = %v, want %v", q.BitLen(), x, got, want)
			}
		}
	}
}

func TestMulSmallOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	one := big.NewInt(1)
	moduli := append(twoWordModuli(), largestPrimeBelow(62), new(big.Int).SetUint64(134217689))
	for _, q := range moduli {
		qr := newQring(q)
		if qr == nil {
			t.Fatalf("%d-bit q: no ring", q.BitLen())
		}
		// s < min(q, 2⁶⁴).
		sMax := new(big.Int).Lsh(one, 64)
		if q.Cmp(sMax) < 0 {
			sMax.Set(q)
		}
		sMax.Sub(sMax, one)
		vs := []*big.Int{big.NewInt(0), big.NewInt(1), new(big.Int).Sub(q, one),
			new(big.Int).Rsh(q, 1), new(big.Int).Add(new(big.Int).Rsh(q, 1), one)}
		ss := []*big.Int{big.NewInt(0), big.NewInt(1), big.NewInt(2), big.NewInt(65537), sMax,
			new(big.Int).Sub(sMax, one)}
		for i := 0; i < 40; i++ {
			vs = append(vs, new(big.Int).Rand(rng, q))
			ss = append(ss, new(big.Int).Rand(rng, sMax))
		}
		for _, v := range vs {
			for _, s := range ss {
				lo, hi := qr.mulSmall(bigWord(v, 0), bigWord(v, 1), s.Uint64())
				want := new(big.Int).Mul(v, s)
				want.Mod(want, q)
				if got := pairBig(lo, hi); got.Cmp(want) != 0 {
					t.Fatalf("%d-bit q: mulSmall(%v, %v) = %v, want %v", q.BitLen(), v, s, got, want)
				}
			}
		}
	}
}
