// Package hepim executes BFV homomorphic operations on the simulated
// UPMEM PIM system — the deployment the paper proposes (§3): users
// encrypt locally, the PIM server computes on ciphertexts, results come
// back still encrypted.
//
// Addition and summation run entirely as DPU kernels and are bit-exact
// against the host evaluator. A batched op is one launch set: AddMany
// adds every pair, and Sum reduces every component, in a single
// scheduler run sharded over all DPUs, so launch overheads are paid
// once per batch rather than once per ciphertext or component. Multiplication follows the paper's split:
// the polynomial multiplications (the dominant cost) run on the PIM
// cores, while the host performs the t/q rescaling — made exact by
// lifting centered operands into a 256-bit working modulus wide enough
// that no tensor coefficient wraps.
package hepim

import (
	"errors"
	"fmt"
	"math/big"

	"repro/internal/bfv"
	"repro/internal/pim"
	"repro/internal/pim/kernels"
	"repro/internal/pimsched"
	"repro/internal/poly"
)

// Server is a PIM-resident BFV evaluation service. All kernels run
// through the async multi-DPU execution plane (internal/pimsched):
// work is sharded over the scheduler's rank×DPU topology, and the
// server keeps a running total of the runs' sharded
// cycle/transfer/energy breakdowns, including both the pipelined
// makespan and the no-overlap serial time.
type Server struct {
	Sys    *pim.System
	Sched  *pimsched.Scheduler
	Params *bfv.Parameters

	lift *poly.Modulus // 256-bit lift modulus for exact tensor products
	rlk  *bfv.RelinKey

	total pimsched.Report // every run since the last ResetReports
	runs  int
}

// NewServer builds a PIM evaluation server over the largest whole-rank
// topology fitting cfg.NumDPUs, with transfer/compute overlap enabled.
// rlk may be nil when Mul is not used.
func NewServer(cfg pim.SystemConfig, params *bfv.Parameters, rlk *bfv.RelinKey) (*Server, error) {
	return NewServerWithTopology(cfg, params, rlk, pimsched.FitTopology(cfg.NumDPUs), true)
}

// NewServerWithTopology builds a PIM evaluation server scheduling over
// an explicit rank×DPU topology. The topology must fit within
// cfg.NumDPUs; overlap selects whether the modeled makespan pipelines
// staging against compute or serializes every phase.
func NewServerWithTopology(cfg pim.SystemConfig, params *bfv.Parameters, rlk *bfv.RelinKey, topo pimsched.Topology, overlap bool) (*Server, error) {
	sys, err := pim.NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	sched, err := pimsched.New(sys, topo, overlap)
	if err != nil {
		return nil, err
	}
	// Lift modulus: any modulus exceeding 2·n·(q/2)² + margin keeps the
	// centered tensor coefficients from wrapping. 2²⁵⁶−189 covers every
	// paper parameter set (n ≤ 4096, q ≤ 2¹⁰⁹ → bound < 2²³⁰).
	liftQ := new(big.Int).Lsh(big.NewInt(1), 256)
	liftQ.Sub(liftQ, big.NewInt(189))
	bound := new(big.Int).Mul(params.Q.QBig, params.Q.QBig)
	bound.Mul(bound, big.NewInt(int64(params.N)))
	if bound.BitLen() >= liftQ.BitLen()-1 {
		return nil, fmt.Errorf("hepim: parameters too large for the 256-bit lift modulus")
	}
	lift, err := poly.NewModulus(liftQ)
	if err != nil {
		return nil, err
	}
	return &Server{Sys: sys, Sched: sched, Params: params, lift: lift, rlk: rlk}, nil
}

// ResetReports clears the accumulated breakdown and run count.
func (s *Server) ResetReports() { s.total, s.runs = pimsched.Report{}, 0 }

// record folds one scheduler run into the running total.
func (s *Server) record(rep *pimsched.Report) {
	s.total.Accumulate(rep)
	s.runs++
}

// Runs is the number of scheduler runs since the last ResetReports:
// one per batched op, a few per Mul or ApplyGalois.
func (s *Server) Runs() int { return s.runs }

// ModeledSeconds is the modeled kernel time, launch overheads
// included, of the runs since the last ResetReports.
func (s *Server) ModeledSeconds() float64 { return s.total.KernelSeconds }

// Breakdown is the sharded cycle/transfer/energy summary of the runs
// since the last ResetReports.
func (s *Server) Breakdown() *pimsched.Report {
	total := s.total
	total.Topology, total.Overlap = s.Sched.Topo, s.Sched.Overlap
	return &total
}

// Add returns ct0 + ct1 computed by the PIM vector-addition kernel.
// Bit-exact against bfv.Evaluator.Add.
func (s *Server) Add(ct0, ct1 *bfv.Ciphertext) (*bfv.Ciphertext, error) {
	out, err := s.AddMany([]*bfv.Ciphertext{ct0}, []*bfv.Ciphertext{ct1})
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// AddMany returns as[i] + bs[i] for every pair in one vector-addition
// scheduler run over all pairs' components: the batch is sharded as
// the concatenation of the components, pair by pair, so the DPUs split
// the whole batch between them. Bit-exact against bfv.Evaluator.Add.
func (s *Server) AddMany(as, bs []*bfv.Ciphertext) ([]*bfv.Ciphertext, error) {
	if len(as) != len(bs) {
		return nil, fmt.Errorf("hepim: AddMany length mismatch: %d vs %d", len(as), len(bs))
	}
	res := make([]*bfv.Ciphertext, len(as))
	if len(as) == 0 {
		return res, nil
	}
	par := s.Params
	var a, b, outs [][]uint32
	for i, ct0 := range as {
		ct1 := bs[i]
		if len(ct0.Polys) != len(ct1.Polys) {
			return nil, errors.New("hepim: degree mismatch (relinearize first)")
		}
		res[i] = &bfv.Ciphertext{Polys: make([]*poly.Poly, len(ct0.Polys))}
		for c := range ct0.Polys {
			p := poly.NewPoly(par.N, par.Q.W)
			res[i].Polys[c] = p
			a = append(a, ct0.Polys[c].C)
			b = append(b, ct1.Polys[c].C)
			outs = append(outs, p.C)
		}
	}
	rep, err := kernels.RunVectorAddBatchSched(s.Sched, a, b, outs, par.Q.W, par.Q.Q)
	if err != nil {
		return nil, err
	}
	s.record(rep)
	return res, nil
}

// Neg returns −ct. Negation is a single data-recoding pass (q − x per
// coefficient) the host performs while staging, like the paper's
// host-side scalar work; no kernel launch is charged.
func (s *Server) Neg(ct *bfv.Ciphertext) (*bfv.Ciphertext, error) {
	par := s.Params
	out := &bfv.Ciphertext{Polys: make([]*poly.Poly, len(ct.Polys))}
	for i, p := range ct.Polys {
		np := poly.NewPoly(par.N, par.Q.W)
		poly.Neg(np, p, par.Q, nil)
		out.Polys[i] = np
	}
	return out, nil
}

// Sub returns ct0 − ct1 computed on the PIM system: the host negates ct1
// (data recoding) and the addition kernel does the arithmetic.
func (s *Server) Sub(ct0, ct1 *bfv.Ciphertext) (*bfv.Ciphertext, error) {
	neg, err := s.Neg(ct1)
	if err != nil {
		return nil, err
	}
	return s.Add(ct0, neg)
}

// AddPlain returns ct + Δ·m with the addition on the PIM system.
func (s *Server) AddPlain(ct *bfv.Ciphertext, pt *bfv.Plaintext) (*bfv.Ciphertext, error) {
	par := s.Params
	dm := bfv.DeltaEncode(par, pt)
	other := ct.Clone()
	other.Polys[0] = dm
	for i := 1; i < len(other.Polys); i++ {
		other.Polys[i] = poly.NewPoly(par.N, par.Q.W)
	}
	return s.Add(ct, other)
}

// Sum reduces many ciphertexts of one degree in a single scheduler
// run — the paper's arithmetic-mean aggregation. Shards cover
// (component, coefficient range) pairs, so all components share one
// launch set.
func (s *Server) Sum(cts []*bfv.Ciphertext) (*bfv.Ciphertext, error) {
	if len(cts) == 0 {
		return nil, errors.New("hepim: empty sum")
	}
	par := s.Params
	comps := len(cts[0].Polys)
	for _, ct := range cts {
		if len(ct.Polys) != comps {
			return nil, errors.New("hepim: mixed-degree ciphertexts in sum")
		}
	}
	groups := make([][][]uint32, comps)
	outs := make([][]uint32, comps)
	res := &bfv.Ciphertext{Polys: make([]*poly.Poly, comps)}
	for c := range groups {
		groups[c] = make([][]uint32, len(cts))
		for i, ct := range cts {
			groups[c][i] = ct.Polys[c].C
		}
		res.Polys[c] = poly.NewPoly(par.N, par.Q.W)
		outs[c] = res.Polys[c].C
	}
	rep, err := kernels.RunVectorSumBatchSched(s.Sched, groups, outs, par.Q.W, par.Q.Q)
	if err != nil {
		return nil, err
	}
	s.record(rep)
	return res, nil
}

// liftCentered maps a mod-q polynomial to the 256-bit lift modulus with
// centered representatives, so PIM products equal the integer products.
func (s *Server) liftCentered(p *poly.Poly) *poly.Poly {
	return poly.FromBigCoeffs(p.ToCenteredCoeffs(s.Params.Q), s.lift)
}

// Mul returns the relinearized product of two degree-1 ciphertexts with
// every polynomial multiplication executed on the PIM system:
//
//  1. tensor products a·b over the 256-bit lift modulus (4 pairs, one
//     kernel launch);
//  2. host t/q rescaling of the centered results (cheap, linear);
//  3. relinearization digit products against the evaluation key (2·digits
//     pairs, one kernel launch) and the final additions (one launch).
//
// Bit-exact against bfv.Evaluator.Mul.
func (s *Server) Mul(ct0, ct1 *bfv.Ciphertext) (*bfv.Ciphertext, error) {
	if ct0.Degree() != 1 || ct1.Degree() != 1 {
		return nil, errors.New("hepim: Mul requires degree-1 ciphertexts")
	}
	if s.rlk == nil {
		return nil, errors.New("hepim: server has no relinearization key")
	}
	par := s.Params
	n := par.N
	lw := s.lift.W

	// Tensor products on PIM over the lift modulus.
	a0, a1 := s.liftCentered(ct0.Polys[0]), s.liftCentered(ct0.Polys[1])
	b0, b1 := s.liftCentered(ct1.Polys[0]), s.liftCentered(ct1.Polys[1])
	a := make([]uint32, 0, 4*n*lw)
	b := make([]uint32, 0, 4*n*lw)
	a = append(append(append(append(a, a0.C...), a0.C...), a1.C...), a1.C...)
	b = append(append(append(append(b, b0.C...), b1.C...), b0.C...), b1.C...)
	prods, rep, err := kernels.RunVectorPolyMulSched(s.Sched, a, b, n, lw, s.lift.Q)
	if err != nil {
		return nil, err
	}
	s.record(rep)

	// Host: centered-lift each product back to Z, combine the cross terms,
	// rescale by t/q.
	productZ := func(idx int) []*big.Int {
		p := poly.NewPoly(n, lw)
		copy(p.C, prods[idx*n*lw:(idx+1)*n*lw])
		return p.ToCenteredCoeffs(s.lift)
	}
	d0z := productZ(0)
	d1z := productZ(1)
	for i, c := range productZ(2) {
		d1z[i] = new(big.Int).Add(d1z[i], c)
	}
	d2z := productZ(3)

	d0 := bfv.ScaleRoundCoeffs(par, d0z)
	d1 := bfv.ScaleRoundCoeffs(par, d1z)
	d2 := bfv.ScaleRoundCoeffs(par, d2z)

	// Relinearization: digit products on PIM over q.
	digits := bfv.DecomposeForRelin(d2, par)
	w := par.Q.W
	ra := make([]uint32, 0, 2*len(digits)*n*w)
	rb := make([]uint32, 0, 2*len(digits)*n*w)
	for i, d := range digits {
		if i >= len(s.rlk.K0) {
			break
		}
		ra = append(ra, d.C...)
		rb = append(rb, s.rlk.K0[i].C...)
		ra = append(ra, d.C...)
		rb = append(rb, s.rlk.K1[i].C...)
	}
	rprods, rep2, err := kernels.RunVectorPolyMulSched(s.Sched, ra, rb, n, w, par.Q.Q)
	if err != nil {
		return nil, err
	}
	s.record(rep2)

	// Final additions on PIM: c0 = d0 + Σ even products, c1 = d1 + Σ odd.
	pairs := len(rprods) / (2 * n * w)
	sum0 := [][]uint32{d0.C}
	sum1 := [][]uint32{d1.C}
	for i := 0; i < pairs; i++ {
		sum0 = append(sum0, rprods[(2*i)*n*w:(2*i+1)*n*w])
		sum1 = append(sum1, rprods[(2*i+1)*n*w:(2*i+2)*n*w])
	}
	c0flat, rep3, err := kernels.RunVectorSumSched(s.Sched, sum0, w, par.Q.Q)
	if err != nil {
		return nil, err
	}
	s.record(rep3)
	c1flat, rep4, err := kernels.RunVectorSumSched(s.Sched, sum1, w, par.Q.Q)
	if err != nil {
		return nil, err
	}
	s.record(rep4)

	c0 := poly.NewPoly(n, w)
	copy(c0.C, c0flat)
	c1 := poly.NewPoly(n, w)
	copy(c1.C, c1flat)
	return &bfv.Ciphertext{Polys: []*poly.Poly{c0, c1}}, nil
}

// Square is Mul(ct, ct) — the variance workload's inner operation.
func (s *Server) Square(ct *bfv.Ciphertext) (*bfv.Ciphertext, error) {
	return s.Mul(ct, ct)
}

// ApplyGalois applies the automorphism X→X^g to a degree-1 ciphertext
// with the key-switching digit products executed on the PIM system (one
// kernel launch), bit-exact against bfv.Evaluator.ApplyGalois. Like the
// host evaluator, it uses the decompose-then-permute convention (c1's
// digits are computed first, then permuted — the ordering that lets a
// host hoist one decomposition across many Galois elements). The
// permutations themselves are data movement, not arithmetic; the host
// performs them as the paper's host performs scalar work.
func (s *Server) ApplyGalois(ct *bfv.Ciphertext, gk *bfv.GaloisKey) (*bfv.Ciphertext, error) {
	if ct.Degree() != 1 {
		return nil, errors.New("hepim: ApplyGalois requires a degree-1 ciphertext")
	}
	if gk == nil {
		return nil, errors.New("hepim: nil Galois key")
	}
	par := s.Params
	n, w := par.N, par.Q.W

	// Host: permute c0 and the digits of c1 (pure data movement).
	c0 := bfv.PermuteGaloisPoly(ct.Polys[0], gk.G, par)

	// PIM: permuted digit × key products, one launch.
	digits := bfv.DecomposeForRelin(ct.Polys[1], par)
	for i, d := range digits {
		digits[i] = bfv.PermuteGaloisPoly(d, gk.G, par)
	}
	ra := make([]uint32, 0, 2*len(digits)*n*w)
	rb := make([]uint32, 0, 2*len(digits)*n*w)
	pairs := 0
	for i, d := range digits {
		if i >= len(gk.K0) {
			break
		}
		ra = append(ra, d.C...)
		rb = append(rb, gk.K0[i].C...)
		ra = append(ra, d.C...)
		rb = append(rb, gk.K1[i].C...)
		pairs += 2
	}
	prods, rep, err := kernels.RunVectorPolyMulSched(s.Sched, ra, rb, n, w, par.Q.Q)
	if err != nil {
		return nil, err
	}
	s.record(rep)

	// PIM: fold the products into (c0, c1) with sum kernels.
	sum0 := [][]uint32{c0.C}
	var sum1 [][]uint32
	for i := 0; i < pairs/2; i++ {
		sum0 = append(sum0, prods[(2*i)*n*w:(2*i+1)*n*w])
		sum1 = append(sum1, prods[(2*i+1)*n*w:(2*i+2)*n*w])
	}
	c0flat, rep2, err := kernels.RunVectorSumSched(s.Sched, sum0, w, par.Q.Q)
	if err != nil {
		return nil, err
	}
	s.record(rep2)
	c1flat, rep3, err := kernels.RunVectorSumSched(s.Sched, sum1, w, par.Q.Q)
	if err != nil {
		return nil, err
	}
	s.record(rep3)

	outC0 := poly.NewPoly(n, w)
	copy(outC0.C, c0flat)
	outC1 := poly.NewPoly(n, w)
	copy(outC1.C, c1flat)
	return &bfv.Ciphertext{Polys: []*poly.Poly{outC0, outC1}}, nil
}
