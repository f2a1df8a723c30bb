package bfv

import (
	"math/big"
	"testing"

	"repro/internal/sampling"
)

// ctx bundles everything a functional test needs.
type ctx struct {
	params *Parameters
	sk     *SecretKey
	pk     *PublicKey
	rlk    *RelinKey
	enc    *Encryptor
	dec    *Decryptor
	eval   *Evaluator
}

func newCtx(t *testing.T, params *Parameters, seed uint64, relin bool) *ctx {
	t.Helper()
	src := sampling.NewSourceFromUint64(seed)
	kg := NewKeyGenerator(params, src)
	sk, pk := kg.GenKeyPair()
	var rlk *RelinKey
	if relin {
		rlk = kg.GenRelinKey(sk)
	}
	return &ctx{
		params: params,
		sk:     sk,
		pk:     pk,
		rlk:    rlk,
		enc:    NewEncryptor(params, pk, src),
		dec:    NewDecryptor(params, sk),
		eval:   NewEvaluator(params, rlk),
	}
}

func TestParamsValidation(t *testing.T) {
	q := ParamsToy().Q.QBig
	if _, err := NewParameters(100, q, 16, 20); err == nil {
		t.Error("non-power-of-two N accepted")
	}
	if _, err := NewParameters(64, q, 1, 20); err == nil {
		t.Error("t=1 accepted")
	}
	if _, err := NewParameters(64, q, 16, 0); err == nil {
		t.Error("relin base 0 accepted")
	}
	if _, err := NewParameters(64, q, 16, 40); err == nil {
		t.Error("relin base 40 accepted")
	}
	// Moduli outside the RNS-native window: even, 63- and 64-bit, and
	// above 124 bits.
	q125 := new(big.Int).Lsh(big.NewInt(1), 124)
	q125.Add(q125, big.NewInt(1))
	for _, qs := range []string{
		"1152921504606846882", "9223372036854775783", "18446744073709551557", q125.String(),
	} {
		bad, _ := new(big.Int).SetString(qs, 10)
		if _, err := NewParameters(64, bad, 16, 20); err == nil {
			t.Errorf("q=%s (%d bits) outside the RNS-native window accepted", qs, bad.BitLen())
		}
	}
	// Every preset and the swept Sec54 degrees stay inside it.
	for _, build := range []func() *Parameters{ParamsToy, ParamsSec27, ParamsSec54, ParamsSec109, ParamsBatching} {
		if p := build(); p.dcrt == nil || !p.dcrt.RNSNative() {
			t.Errorf("%v: no RNS-native context", p)
		}
	}
	for n := 64; n <= 4096; n *= 2 {
		if p := ParamsSec54AtDegree(n); p.dcrt == nil || !p.dcrt.RNSNative() {
			t.Errorf("%v: no RNS-native context", p)
		}
	}
}

func TestPresetShapes(t *testing.T) {
	cases := []struct {
		p        *Parameters
		n, w, qb int
	}{
		{ParamsSec27(), 1024, 1, 27},
		{ParamsSec54(), 2048, 2, 54},
		{ParamsSec109(), 4096, 4, 109},
	}
	for _, c := range cases {
		if c.p.N != c.n || c.p.Q.W != c.w || c.p.Q.Bits() != c.qb {
			t.Errorf("%v: want N=%d W=%d bits=%d", c.p, c.n, c.w, c.qb)
		}
	}
	// Ciphertext expansion: the paper's motivation (§1) — encrypted data is
	// orders of magnitude larger than plain data.
	p := ParamsSec109()
	if p.CiphertextBytes() != 2*4096*4*4 {
		t.Errorf("CiphertextBytes = %d", p.CiphertextBytes())
	}
	if ratio := p.CiphertextBytes() / p.PlaintextBytes(); ratio < 1000 {
		t.Errorf("ciphertext expansion %dx, expected >1000x", ratio)
	}
}

func TestEncryptDecryptRoundTrip(t *testing.T) {
	c := newCtx(t, ParamsToy(), 1, false)
	for _, v := range []uint64{0, 1, 7, 15} {
		ct, err := c.enc.EncryptValue(v)
		if err != nil {
			t.Fatal(err)
		}
		if got := c.dec.DecryptValue(ct); got != v {
			t.Errorf("decrypt(encrypt(%d)) = %d", v, got)
		}
	}
}

func TestEncryptDecryptFullPlaintext(t *testing.T) {
	c := newCtx(t, ParamsToy(), 2, false)
	pt := NewPlaintext(c.params)
	for i := range pt.Coeffs {
		pt.Coeffs[i] = uint64(i) % c.params.T
	}
	ct, err := c.enc.Encrypt(pt)
	if err != nil {
		t.Fatal(err)
	}
	got := c.dec.Decrypt(ct)
	for i := range pt.Coeffs {
		if got.Coeffs[i] != pt.Coeffs[i] {
			t.Fatalf("coeff %d: got %d want %d", i, got.Coeffs[i], pt.Coeffs[i])
		}
	}
}

func TestEncryptionIsRandomized(t *testing.T) {
	c := newCtx(t, ParamsToy(), 3, false)
	ct1, _ := c.enc.EncryptValue(5)
	ct2, _ := c.enc.EncryptValue(5)
	if ct1.Equal(ct2) {
		t.Error("two encryptions of the same value must differ")
	}
}

func TestHomomorphicAdd(t *testing.T) {
	c := newCtx(t, ParamsToy(), 4, false)
	ct1, _ := c.enc.EncryptValue(3)
	ct2, _ := c.enc.EncryptValue(9)
	sum := c.eval.Add(ct1, ct2)
	if got := c.dec.DecryptValue(sum); got != 12 {
		t.Errorf("3 + 9 = %d", got)
	}
	// Chained additions mod t.
	acc := sum
	for i := 0; i < 10; i++ {
		acc = c.eval.Add(acc, ct1)
	}
	want := uint64((12 + 10*3) % 16)
	if got := c.dec.DecryptValue(acc); got != want {
		t.Errorf("chained adds = %d, want %d", got, want)
	}
}

func TestHomomorphicSubNeg(t *testing.T) {
	c := newCtx(t, ParamsToy(), 5, false)
	ct1, _ := c.enc.EncryptValue(9)
	ct2, _ := c.enc.EncryptValue(3)
	if got := c.dec.DecryptValue(c.eval.Sub(ct1, ct2)); got != 6 {
		t.Errorf("9 - 3 = %d", got)
	}
	neg := c.eval.Neg(ct2)
	if got := c.dec.DecryptValue(neg); got != c.params.T-3 {
		t.Errorf("-3 mod t = %d, want %d", got, c.params.T-3)
	}
}

func TestAddPlainMulPlain(t *testing.T) {
	c := newCtx(t, ParamsToy(), 6, false)
	ie := NewIntegerEncoder(c.params)
	ct, _ := c.enc.EncryptValue(5)
	ct2 := c.eval.AddPlain(ct, ie.Encode(4))
	if got := c.dec.DecryptValue(ct2); got != 9 {
		t.Errorf("5 + plain 4 = %d", got)
	}
	ct3 := c.eval.MulPlain(ct, ie.Encode(3))
	if got := c.dec.DecryptValue(ct3); got != 15 {
		t.Errorf("5 * plain 3 = %d", got)
	}
}

func TestHomomorphicMul(t *testing.T) {
	c := newCtx(t, ParamsToy(), 7, true)
	ct1, _ := c.enc.EncryptValue(3)
	ct2, _ := c.enc.EncryptValue(5)
	prod, err := c.eval.Mul(ct1, ct2)
	if err != nil {
		t.Fatal(err)
	}
	if prod.Degree() != 1 {
		t.Errorf("relinearized product has degree %d", prod.Degree())
	}
	if got := c.dec.DecryptValue(prod); got != 15 {
		t.Errorf("3 * 5 = %d", got)
	}
}

func TestMulNoRelinDecrypts(t *testing.T) {
	c := newCtx(t, ParamsToy(), 8, false)
	ct1, _ := c.enc.EncryptValue(7)
	ct2, _ := c.enc.EncryptValue(2)
	prod, err := c.eval.MulNoRelin(ct1, ct2)
	if err != nil {
		t.Fatal(err)
	}
	if prod.Degree() != 2 {
		t.Fatalf("tensor product degree = %d, want 2", prod.Degree())
	}
	if got := c.dec.DecryptValue(prod); got != 14 {
		t.Errorf("7 * 2 (degree-2) = %d", got)
	}
}

func TestSquareForVariance(t *testing.T) {
	c := newCtx(t, ParamsToy(), 9, true)
	ct, _ := c.enc.EncryptValue(3)
	sq, err := c.eval.Square(ct)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.dec.DecryptValue(sq); got != 9 {
		t.Errorf("3^2 = %d", got)
	}
}

func TestMulDepthTwo(t *testing.T) {
	c := newCtx(t, ParamsToy(), 10, true)
	ct2, _ := c.enc.EncryptValue(2)
	ct3, _ := c.enc.EncryptValue(3)
	p1, err := c.eval.Mul(ct2, ct3) // 6
	if err != nil {
		t.Fatal(err)
	}
	p2, err := c.eval.Mul(p1, ct2) // 12
	if err != nil {
		t.Fatal(err)
	}
	if got := c.dec.DecryptValue(p2); got != 12 {
		t.Errorf("2*3*2 = %d", got)
	}
}

func TestMulRequiresDegreeOne(t *testing.T) {
	c := newCtx(t, ParamsToy(), 11, true)
	ct1, _ := c.enc.EncryptValue(1)
	ct2, _ := c.enc.EncryptValue(2)
	d2, _ := c.eval.MulNoRelin(ct1, ct2)
	if _, err := c.eval.MulNoRelin(d2, ct1); err == nil {
		t.Error("MulNoRelin on degree-2 operand should fail")
	}
}

func TestRelinearizeWithoutKey(t *testing.T) {
	c := newCtx(t, ParamsToy(), 12, false)
	ct1, _ := c.enc.EncryptValue(1)
	ct2, _ := c.enc.EncryptValue(2)
	d2, _ := c.eval.MulNoRelin(ct1, ct2)
	if _, err := c.eval.Relinearize(d2); err == nil {
		t.Error("Relinearize without key should fail")
	}
}

func TestNoiseBudgetDecreases(t *testing.T) {
	c := newCtx(t, ParamsToy(), 13, true)
	ct, _ := c.enc.EncryptValue(5)
	fresh := c.dec.NoiseBudget(ct)
	if fresh <= 0 {
		t.Fatalf("fresh budget %d should be positive", fresh)
	}
	sum := c.eval.Add(ct, ct)
	afterAdd := c.dec.NoiseBudget(sum)
	if afterAdd > fresh {
		t.Errorf("budget grew after add: %d -> %d", fresh, afterAdd)
	}
	prod, _ := c.eval.Mul(ct, ct)
	afterMul := c.dec.NoiseBudget(prod)
	if afterMul >= fresh {
		t.Errorf("budget did not shrink after mul: %d -> %d", fresh, afterMul)
	}
	if afterMul <= 0 {
		t.Errorf("budget exhausted after one mul: %d", afterMul)
	}
}

func TestAdditionChainNoiseGrowth(t *testing.T) {
	// Mean-style workload: summing many ciphertexts must stay decryptable.
	c := newCtx(t, ParamsToy(), 14, false)
	cts := make([]*Ciphertext, 64)
	var want uint64
	for i := range cts {
		v := uint64(i % 4)
		cts[i], _ = c.enc.EncryptValue(v)
		want += v
	}
	acc := cts[0]
	for _, ct := range cts[1:] {
		acc = c.eval.Add(acc, ct)
	}
	if got := c.dec.DecryptValue(acc); got != want%c.params.T {
		t.Errorf("sum of 64 ciphertexts = %d, want %d", got, want%c.params.T)
	}
	if b := c.dec.NoiseBudget(acc); b <= 0 {
		t.Errorf("budget exhausted after 64 adds: %d", b)
	}
}

func TestSec27AdditionRealParams(t *testing.T) {
	// The paper's smallest security level supports the addition workloads.
	c := newCtx(t, ParamsSec27(), 15, false)
	ct1, _ := c.enc.EncryptValue(6)
	ct2, _ := c.enc.EncryptValue(7)
	if got := c.dec.DecryptValue(c.eval.Add(ct1, ct2)); got != 13 {
		t.Errorf("sec27: 6+7 = %d", got)
	}
}

func TestSec54MulRealParams(t *testing.T) {
	if testing.Short() {
		t.Skip("real-parameter multiplication is slow")
	}
	c := newCtx(t, ParamsSec54(), 16, true)
	ct1, _ := c.enc.EncryptValue(11)
	ct2, _ := c.enc.EncryptValue(13)
	prod, err := c.eval.Mul(ct1, ct2)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.dec.DecryptValue(prod); got != (11*13)%c.params.T {
		t.Errorf("sec54: 11*13 mod %d = %d", c.params.T, got)
	}
}

func TestEvaluatorMeterCharges(t *testing.T) {
	c := newCtx(t, ParamsToy(), 17, true)
	var m limbCounts
	c.eval.Meter = &m
	ct1, _ := c.enc.EncryptValue(1)
	ct2, _ := c.enc.EncryptValue(2)
	c.eval.Add(ct1, ct2)
	addOps := m.Total()
	if addOps == 0 {
		t.Fatal("Add charged nothing")
	}
	m.Reset()
	if _, err := c.eval.Mul(ct1, ct2); err != nil {
		t.Fatal(err)
	}
	if m.Total() <= addOps*100 {
		t.Errorf("Mul (%d ops) should dwarf Add (%d ops)", m.Total(), addOps)
	}
}

// TestSumMatchesPairwiseFold: the in-place Sum equals the pairwise Add
// fold bit for bit — across a degree change mid-fold — charges the Meter
// the same ticks, and leaves its inputs untouched.
func TestSumMatchesPairwiseFold(t *testing.T) {
	c := newCtx(t, ParamsToy(), 23, true)
	var cts []*Ciphertext
	for v := uint64(0); v < 6; v++ {
		ct, err := c.enc.EncryptValue(v)
		if err != nil {
			t.Fatal(err)
		}
		cts = append(cts, ct)
	}
	deg2, err := c.eval.MulNoRelin(cts[1], cts[2])
	if err != nil {
		t.Fatal(err)
	}
	cts = append(cts[:3], append([]*Ciphertext{deg2}, cts[3:]...)...)
	before := make([]*Ciphertext, len(cts))
	for i, ct := range cts {
		before[i] = ct.Clone()
	}
	for n := 1; n <= len(cts); n++ {
		var pairwise, inPlace limbCounts
		c.eval.Meter = &pairwise
		want := cts[0].Clone()
		for _, ct := range cts[1:n] {
			want = c.eval.Add(want, ct)
		}
		c.eval.Meter = &inPlace
		got := c.eval.Sum(cts[:n])
		c.eval.Meter = nil
		if !got.Equal(want) {
			t.Fatalf("Sum of %d differs from the pairwise fold", n)
		}
		if inPlace != pairwise {
			t.Errorf("Sum of %d charged %+v, pairwise fold %+v", n, inPlace, pairwise)
		}
		for i, ct := range cts {
			if !ct.Equal(before[i]) {
				t.Fatalf("Sum of %d modified input %d", n, i)
			}
			for j, p := range got.Polys {
				if j < len(ct.Polys) && p == ct.Polys[j] {
					t.Fatalf("Sum of %d aliases input %d", n, i)
				}
			}
		}
	}
}
