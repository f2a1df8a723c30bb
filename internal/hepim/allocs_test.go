package hepim

import (
	"runtime"
	"testing"

	"repro/internal/bfv"
	"repro/internal/pim"
	"repro/internal/sampling"
)

// TestSumAllocsSec109 bounds what one sec109 Sum of 32 ciphertexts
// allocates on the paper machine (2,524 DPUs). The run stages every
// input into MRAM scratch, so its bytes are bounded by a small multiple
// of the declared transfer volume, and its allocation count by a fixed
// number per active DPU: no per-tasklet WRAM tile may be sized beyond
// the tasklet's share, and no MRAM image may be regrown copy by copy.
func TestSumAllocsSec109(t *testing.T) {
	params := bfv.ParamsSec109()
	src := sampling.NewSourceFromUint64(42)
	kg := bfv.NewKeyGenerator(params, src)
	_, pk := kg.GenKeyPair()
	enc := bfv.NewEncryptor(params, pk, src)
	cts := make([]*bfv.Ciphertext, 32)
	for i := range cts {
		if i < 4 {
			ct, err := enc.EncryptValue(uint64(i))
			if err != nil {
				t.Fatal(err)
			}
			cts[i] = ct
		} else {
			cts[i] = cts[i%4]
		}
	}
	srv, err := NewServer(pim.DefaultConfig(), params, nil)
	if err != nil {
		t.Fatal(err)
	}
	sum := func() {
		if _, err := srv.Sum(cts); err != nil {
			t.Fatal(err)
		}
	}
	sum()
	bd := srv.Breakdown()
	allocs := testing.AllocsPerRun(5, sum)
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	const iters = 5
	for i := 0; i < iters; i++ {
		sum()
	}
	runtime.ReadMemStats(&m1)
	bytesPerRun := float64(m1.TotalAlloc-m0.TotalAlloc) / iters
	staged := float64(bd.BytesIn + bd.BytesOut)
	t.Logf("sec109 Sum of %d: %.0f allocs/run over %d DPUs, %.0f bytes/run for %.0f staged bytes",
		len(cts), allocs, bd.ActiveDPUs, bytesPerRun, staged)
	if raceEnabled {
		return // the race detector's instrumentation allocates
	}
	// Measured at ~4.6 allocs per DPU and ~1.45× the staged bytes. WRAM
	// tiles allocated per tasklet add one alloc per active tasklet (3–4
	// per DPU here), and full-size tiles or MRAM regrown per copy
	// multiply the bytes.
	if perDPU := allocs / float64(bd.ActiveDPUs); perDPU > 6 {
		t.Errorf("sec109 Sum makes %.1f allocs per DPU, want ≤ 6", perDPU)
	}
	if bytesPerRun > 1.75*staged {
		t.Errorf("sec109 Sum allocates %.0f bytes per run, want ≤ 1.75 × %.0f staged", bytesPerRun, staged)
	}
}
