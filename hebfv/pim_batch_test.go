package hebfv_test

import (
	"testing"

	"repro/hebfv"
)

// pimBatchFixture holds one key set and 2k marshaled ciphertexts, so
// contexts on different backends evaluate the same inputs.
type pimBatchFixture struct {
	keys []byte
	raw  [][]byte
}

func newPIMBatchFixture(t *testing.T, k int) *pimBatchFixture {
	t.Helper()
	ref := toyCtx(t, 31)
	keys, err := ref.ExportKeys(true)
	if err != nil {
		t.Fatal(err)
	}
	fx := &pimBatchFixture{keys: keys}
	for i := 0; i < 2*k; i++ {
		slots := make([]uint64, ref.Slots())
		for j := range slots {
			slots[j] = uint64(i*31+j*7) % 257
		}
		ct, err := ref.EncryptSlots(slots)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := ct.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		fx.raw = append(fx.raw, raw)
	}
	return fx
}

// open builds a context from the fixture's keys and decodes its inputs.
func (fx *pimBatchFixture) open(t *testing.T, opts ...hebfv.Option) (*hebfv.Context, []*hebfv.Ciphertext) {
	t.Helper()
	ctx, err := hebfv.New(append([]hebfv.Option{
		hebfv.WithInsecureToyParameters(), hebfv.WithKeySet(fx.keys), hebfv.WithSeed(1),
	}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	cts := make([]*hebfv.Ciphertext, len(fx.raw))
	for i, raw := range fx.raw {
		if cts[i], err = ctx.UnmarshalCiphertext(raw); err != nil {
			t.Fatal(err)
		}
	}
	return ctx, cts
}

// batchResults runs AddMany over the k pairs (x[i], x[k+i]) and Sum
// over all 2k inputs, and returns the marshaled outputs in that order.
func batchResults(t *testing.T, ctx *hebfv.Context, cts []*hebfv.Ciphertext) [][]byte {
	t.Helper()
	k := len(cts) / 2
	adds, err := ctx.AddMany(cts[:k], cts[k:])
	if err != nil {
		t.Fatal(err)
	}
	sum, err := ctx.Sum(cts)
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	for _, ct := range append(adds, sum) {
		raw, err := ct.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, raw)
	}
	return out
}

func sameBytes(t *testing.T, what string, got, want [][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d outputs, want %d", what, len(got), len(want))
	}
	for i := range want {
		if string(got[i]) != string(want[i]) {
			t.Fatalf("%s: output %d differs from dcrt-native", what, i)
		}
	}
}

// TestPIMBatchedOpsMatchHost: on the pim backend AddMany is one kernel
// launch set for the whole batch and Sum one for all components, and
// both are bit-identical to per-pair Add and to the host engine.
func TestPIMBatchedOpsMatchHost(t *testing.T) {
	for _, k := range []int{1, 3, 16} {
		fx := newPIMBatchFixture(t, k)
		host, hostCts := fx.open(t)
		want := batchResults(t, host, hostCts)

		ctx, cts := fx.open(t, hebfv.WithBackend("pim"), hebfv.WithPIMDPUs(16), hebfv.WithPIMTopology(4, 4))
		adds, err := ctx.AddMany(cts[:k], cts[k:])
		if err != nil {
			t.Fatal(err)
		}
		runs, _, _ := ctx.PIMReport()
		bd, _ := ctx.PIMBreakdown()
		// A batch has more coefficients than the 16 DPUs: one wave of 16
		// shards, one launch per rank.
		if runs != 1 || bd.Shards != 16 || bd.Launches != 4 {
			t.Errorf("k=%d: AddMany took %d runs, %d shards, %d launches; want 1, 16, 4",
				k, runs, bd.Shards, bd.Launches)
		}
		for i, a := range adds {
			single, err := ctx.Add(cts[i], cts[k+i])
			if err != nil {
				t.Fatal(err)
			}
			ra, _ := a.MarshalBinary()
			rs, _ := single.MarshalBinary()
			if string(ra) != string(rs) {
				t.Fatalf("k=%d: AddMany[%d] differs from per-pair Add", k, i)
			}
		}
		sameBytes(t, "pim", batchResults(t, ctx, cts), want)
	}
}

// TestPIMBatchedOpsUnderFaults: seeded transient faults and DPU deaths
// inside a batch are retried and re-dispatched on the PIM plane, and
// the results stay bit-identical to the host engine.
func TestPIMBatchedOpsUnderFaults(t *testing.T) {
	const k = 16
	fx := newPIMBatchFixture(t, k)
	host, hostCts := fx.open(t)
	want := batchResults(t, host, hostCts)

	ctx, cts := fx.open(t, hebfv.WithBackend("pim"), hebfv.WithPIMDPUs(32),
		hebfv.WithPIMFaultInjection(5, 0.2, 0.05, 0))
	for round := 0; round < 3; round++ {
		sameBytes(t, "pim under faults", batchResults(t, ctx, cts), want)
	}
	ps, _ := ctx.PIMStats()
	if ps.TransientFaults == 0 || ps.Retries == 0 || ps.DeadDPUs == 0 || ps.Redispatches == 0 {
		t.Fatalf("fault schedule left no trace: %+v", ps)
	}
	if fo, _ := ctx.FailoverStats(); fo.Engaged {
		t.Fatalf("faults inside the retry budget engaged failover: %+v", fo)
	}
}

// TestPIMFailoverReplaysWholeBatch: when every DPU dies the failed
// AddMany is replayed once, as a whole batch, on the host engine.
func TestPIMFailoverReplaysWholeBatch(t *testing.T) {
	const k = 16
	fx := newPIMBatchFixture(t, k)
	host, hostCts := fx.open(t)
	want := batchResults(t, host, hostCts)

	ctx, cts := fx.open(t, hebfv.WithBackend("pim"), hebfv.WithPIMDPUs(8),
		hebfv.WithPIMFaultInjection(3, 0, 1, 0))
	sameBytes(t, "failed-over pim", batchResults(t, ctx, cts), want)
	fo, ok := ctx.FailoverStats()
	if !ok || !fo.Engaged || fo.FailedOps != 1 {
		t.Fatalf("want one failed batch op replayed on the host, got %+v (ok=%v)", fo, ok)
	}
	if runs, _, _ := ctx.PIMReport(); runs != 0 {
		t.Errorf("the failed batch recorded %d PIM runs", runs)
	}
}
