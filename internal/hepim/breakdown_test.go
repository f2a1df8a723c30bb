package hepim

import (
	"testing"

	"repro/internal/bfv"
	"repro/internal/pim"
	"repro/internal/pimsched"
	"repro/internal/sampling"
)

// multiRankFixture builds a server over an explicit multi-rank
// topology so the sharded breakdown exercises the overlap path.
func multiRankFixture(t *testing.T, overlap bool) *fixture {
	t.Helper()
	params := bfv.ParamsToy()
	src := sampling.NewSourceFromUint64(5)
	kg := bfv.NewKeyGenerator(params, src)
	sk, pk := kg.GenKeyPair()
	rlk := kg.GenRelinKey(sk)

	cfg := pim.DefaultConfig()
	topo := pimsched.Topology{Ranks: 4, DPUsPerRank: 4}
	cfg.NumDPUs = topo.NumDPUs()
	srv, err := NewServerWithTopology(cfg, params, rlk, topo, overlap)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{
		params: params,
		sk:     sk,
		enc:    bfv.NewEncryptor(params, pk, src),
		dec:    bfv.NewDecryptor(params, sk),
		eval:   bfv.NewEvaluator(params, rlk),
		srv:    srv,
	}
}

func TestBreakdownAggregatesSchedReports(t *testing.T) {
	f := multiRankFixture(t, true)
	ct1, _ := f.enc.EncryptValue(3)
	ct2, _ := f.enc.EncryptValue(9)
	got, err := f.srv.Mul(ct1, ct2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := f.eval.Mul(ct1, ct2)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatal("PIM Mul differs from host evaluator")
	}
	bd := f.srv.Breakdown()
	if bd.Topology != f.srv.Sched.Topo || !bd.Overlap {
		t.Errorf("breakdown topology/overlap not carried: %+v", bd)
	}
	// Mul is four scheduler runs: tensor products, relinearization
	// products, and the two final sums.
	if f.srv.Runs() != 4 {
		t.Errorf("Mul recorded %d scheduler runs, want 4", f.srv.Runs())
	}
	if bd.Launches < f.srv.Runs() || bd.Chunks != bd.Launches {
		t.Errorf("breakdown launches %d / chunks %d for %d runs", bd.Launches, bd.Chunks, f.srv.Runs())
	}
	if bd.Launches == 0 || bd.Shards == 0 || bd.KernelCycles <= 0 {
		t.Errorf("empty breakdown: %+v", bd)
	}
	if bd.BytesIn <= 0 || bd.BytesOut <= 0 || bd.EnergyKernelJoules <= 0 || bd.EnergyTransferJoules <= 0 {
		t.Errorf("breakdown missing transfer/energy accounting: %+v", bd)
	}
	if bd.MakespanSeconds <= 0 || bd.SerialSeconds < bd.MakespanSeconds {
		t.Errorf("makespan/serial inconsistent: makespan=%g serial=%g",
			bd.MakespanSeconds, bd.SerialSeconds)
	}
}

// TestOverlapConfigPropagates checks overlap-off servers report
// makespan == serial while staying bit-identical.
func TestOverlapConfigPropagates(t *testing.T) {
	on := multiRankFixture(t, true)
	off := multiRankFixture(t, false)
	ct1, _ := on.enc.EncryptValue(7)
	ct2, _ := on.enc.EncryptValue(4)

	gotOn, err := on.srv.Add(ct1, ct2)
	if err != nil {
		t.Fatal(err)
	}
	gotOff, err := off.srv.Add(ct1, ct2)
	if err != nil {
		t.Fatal(err)
	}
	if !gotOn.Equal(gotOff) {
		t.Fatal("overlap mode changed results")
	}
	bdOff := off.srv.Breakdown()
	if bdOff.MakespanSeconds != bdOff.SerialSeconds {
		t.Errorf("overlap-off makespan %g != serial %g", bdOff.MakespanSeconds, bdOff.SerialSeconds)
	}
}
