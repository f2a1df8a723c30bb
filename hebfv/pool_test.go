package hebfv

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"sync"
	"testing"
)

// Recycle-aware handle lifecycle and decode-pool tests: the zero-copy
// serving path's contract. Released handles must fail with
// ErrReleasedHandle (never panic, never compute on dead backings),
// pooled decodes must recycle bit-identically, and the steady-state
// decode->marshal->release loop must not re-allocate ciphertext
// backings once the pool is warm.

func TestReleaseErrors(t *testing.T) {
	ctx, err := New(WithInsecureToyParameters(), WithSeed(60))
	if err != nil {
		t.Fatal(err)
	}
	ct, err := ctx.EncryptSlots([]uint64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	other, err := ctx.EncryptSlots([]uint64{4, 5, 6})
	if err != nil {
		t.Fatal(err)
	}

	var nilCT *Ciphertext
	if err := nilCT.Release(); !errors.Is(err, ErrNilHandle) {
		t.Fatalf("nil Release: got %v, want ErrNilHandle", err)
	}

	if err := ct.Release(); err != nil {
		t.Fatalf("first Release: %v", err)
	}
	if err := ct.Release(); !errors.Is(err, ErrReleasedHandle) {
		t.Fatalf("double Release: got %v, want ErrReleasedHandle", err)
	}

	// Every error-bearing entry point reports ErrReleasedHandle, on
	// either operand side.
	if _, err := ctx.Add(ct, other); !errors.Is(err, ErrReleasedHandle) {
		t.Fatalf("Add(released, live): got %v", err)
	}
	if _, err := ctx.Add(other, ct); !errors.Is(err, ErrReleasedHandle) {
		t.Fatalf("Add(live, released): got %v", err)
	}
	if _, err := ctx.Mul(ct, other); !errors.Is(err, ErrReleasedHandle) {
		t.Fatalf("Mul(released, live): got %v", err)
	}
	if _, err := ctx.Square(ct); !errors.Is(err, ErrReleasedHandle) {
		t.Fatalf("Square(released): got %v", err)
	}
	if _, err := ctx.Decrypt(ct); !errors.Is(err, ErrReleasedHandle) {
		t.Fatalf("Decrypt(released): got %v", err)
	}
	if err := ct.MarshalTo(io.Discard); !errors.Is(err, ErrReleasedHandle) {
		t.Fatalf("MarshalTo(released): got %v", err)
	}
	if _, err := ct.MarshalBinary(); !errors.Is(err, ErrReleasedHandle) {
		t.Fatalf("MarshalBinary(released): got %v", err)
	}
	if _, err := ctx.RotateRows(ct, 1); !errors.Is(err, ErrReleasedHandle) {
		t.Fatalf("RotateRows(released): got %v", err)
	}

	// The no-error accessors degrade instead of panicking.
	if d := ct.Degree(); d != -1 {
		t.Fatalf("Degree on released handle: %d, want -1", d)
	}
	if ct.Equal(other) || other.Equal(ct) {
		t.Fatal("Equal involving a released handle must be false")
	}
}

func TestPooledDecodeRecycle(t *testing.T) {
	ctx, err := New(WithInsecureToyParameters(), WithSeed(61))
	if err != nil {
		t.Fatal(err)
	}
	want := []uint64{7, 8, 9, 10}
	ct, err := ctx.EncryptSlots(want)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := ct.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	// First pooled decode: a miss (cold pool), bit-identical round trip.
	h1, err := ctx.ReadCiphertext(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	s := ctx.PoolStats()
	if s.Gets == 0 || s.Misses == 0 {
		t.Fatalf("cold decode did not draw from the pool: %+v", s)
	}
	re1, err := h1.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(re1, blob) {
		t.Fatal("pooled decode round trip is not bit-identical")
	}
	if err := h1.Release(); err != nil {
		t.Fatal(err)
	}
	if s = ctx.PoolStats(); s.InUse != 0 {
		t.Fatalf("pool leaks after release: %+v", s)
	}

	// Second decode of the same blob recycles the released backings and
	// still decrypts to the same slots.
	h2, err := ctx.ReadCiphertext(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	if s = ctx.PoolStats(); s.Hits == 0 {
		t.Fatalf("warm decode did not hit the pool: %+v", s)
	}
	got, err := ctx.DecryptSlots(h2)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range want {
		if got[i] != v {
			t.Fatalf("slot %d: %d, want %d (recycled backing corrupted the decode)", i, got[i], v)
		}
	}
	re2, err := h2.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(re2, blob) {
		t.Fatal("recycled decode round trip is not bit-identical")
	}
	if err := h2.Release(); err != nil {
		t.Fatal(err)
	}
	if s = ctx.PoolStats(); s.InUse != 0 || s.Gets != s.Puts {
		t.Fatalf("pool unbalanced at end: %+v", s)
	}
}

// servePathBytesPerOp measures heap growth per serve-shaped op
// (decode two request ciphertexts, Add, stream the response, release
// all three) against the given context, after a warmup that fills the
// pool to steady state.
func servePathBytesPerOp(t *testing.T, ctx *Context, blobA, blobB []byte, iters int) float64 {
	t.Helper()
	op := func() {
		a, err := ctx.ReadCiphertext(bytes.NewReader(blobA))
		if err != nil {
			t.Fatal(err)
		}
		b, err := ctx.ReadCiphertext(bytes.NewReader(blobB))
		if err != nil {
			t.Fatal(err)
		}
		out, err := ctx.Add(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if err := out.MarshalTo(io.Discard); err != nil {
			t.Fatal(err)
		}
		for _, h := range []*Ciphertext{out, a, b} {
			if err := h.Release(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 4; i++ { // warm the pool and the chunk buffers
		op()
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < iters; i++ {
		op()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.TotalAlloc-m0.TotalAlloc) / float64(iters)
}

// TestPooledDecodeBytesReduction is the test-level form of the PR's
// acceptance criterion: pooling the decode backings must cut
// bytes-allocated per serve op by at least 30% against an identical
// context with retention off (every Get misses, every Put drops). The
// evaluation output is freshly allocated in both arms — the delta is
// purely the request-decode traffic the pool recycles.
func TestPooledDecodeBytesReduction(t *testing.T) {
	pooled, err := New(WithSecurityLevel(27), WithSeed(62))
	if err != nil {
		t.Fatal(err)
	}
	unpooled, err := New(WithSecurityLevel(27), WithSeed(62), WithPoolRetention(0))
	if err != nil {
		t.Fatal(err)
	}
	a, err := pooled.EncryptSlots([]uint64{11, 22, 33})
	if err != nil {
		t.Fatal(err)
	}
	b, err := pooled.EncryptSlots([]uint64{44, 55, 66})
	if err != nil {
		t.Fatal(err)
	}
	blobA, err := a.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	blobB, err := b.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	const iters = 50
	on := servePathBytesPerOp(t, pooled, blobA, blobB, iters)
	off := servePathBytesPerOp(t, unpooled, blobA, blobB, iters)
	t.Logf("serve-path add: %.0f bytes/op pooled vs %.0f bytes/op retention-off (%.1f%% reduction)",
		on, off, (1-on/off)*100)
	// Under the race detector sync.Pool drops items on purpose, so the
	// reduction holds only without it, where the allocation gates run.
	if !raceEnabled && on > 0.7*off {
		t.Fatalf("pooled serve path allocates %.0f bytes/op vs %.0f unpooled; want >=30%% reduction", on, off)
	}
	if s := pooled.PoolStats(); s.InUse != 0 {
		t.Fatalf("pooled context leaks backings: %+v", s)
	}
}

// TestServeAllocsSteadyState pins the serialization half of the serve
// path — decode request, stream response, release — to near-zero heap
// growth per op once the pool is warm: no coefficient backing may be
// re-allocated, leaving only small fixed-size header/handle structs.
func TestServeAllocsSteadyState(t *testing.T) {
	ctx, err := New(WithSecurityLevel(27), WithSeed(63))
	if err != nil {
		t.Fatal(err)
	}
	ct, err := ctx.EncryptSlots([]uint64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := ct.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	backingBytes := ctx.params.N * ctx.params.Q.W * 4 // one poly backing

	op := func() {
		h, err := ctx.ReadCiphertext(bytes.NewReader(blob))
		if err != nil {
			t.Fatal(err)
		}
		if err := h.MarshalTo(io.Discard); err != nil {
			t.Fatal(err)
		}
		if err := h.Release(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		op()
	}

	allocs := testing.AllocsPerRun(100, op)
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	const iters = 100
	for i := 0; i < iters; i++ {
		op()
	}
	runtime.ReadMemStats(&m1)
	bytesPerOp := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(iters)

	t.Logf("steady-state decode->marshal->release: %.1f allocs/op, %.0f bytes/op (backing is %d bytes)",
		allocs, bytesPerOp, backingBytes)
	// The race detector drops sync.Pool items on purpose, so the bounds
	// hold only without it; the blocking allocation gates run without.
	if !raceEnabled {
		// A single leaked backing re-allocation would add backingBytes
		// per op; the fixed header/handle structs stay well under half
		// of one.
		if bytesPerOp >= float64(backingBytes)/2 {
			t.Fatalf("steady-state serve path allocates %.0f bytes/op; backings (%d bytes) are not being recycled",
				bytesPerOp, backingBytes)
		}
		if allocs > 64 {
			t.Fatalf("steady-state serve path makes %.1f allocs/op; want a small fixed count", allocs)
		}
	}
	if s := ctx.PoolStats(); s.InUse != 0 {
		t.Fatalf("pool leaks after steady-state loop: %+v", s)
	}
}

// TestPoolStressConcurrent hammers two tenant contexts from concurrent
// goroutines — decode, evaluate, marshal, release — and asserts the
// leak balance afterwards. Run under -race this is the pool's
// thread-safety proof across the whole facade lifecycle.
func TestPoolStressConcurrent(t *testing.T) {
	tenants := make([]*Context, 2)
	blobs := make([][][]byte, 2)
	for i := range tenants {
		ctx, err := New(WithInsecureToyParameters(), WithSeed(uint64(70+i)))
		if err != nil {
			t.Fatal(err)
		}
		tenants[i] = ctx
		for j := 0; j < 2; j++ {
			ct, err := ctx.EncryptSlots([]uint64{uint64(i + 1), uint64(j + 2)})
			if err != nil {
				t.Fatal(err)
			}
			blob, err := ct.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			blobs[i] = append(blobs[i], blob)
		}
	}

	const workers = 8
	const iters = 100
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := tenants[w%len(tenants)]
			pair := blobs[w%len(tenants)]
			for i := 0; i < iters; i++ {
				a, err := ctx.ReadCiphertext(bytes.NewReader(pair[0]))
				if err != nil {
					errc <- err
					return
				}
				b, err := ctx.ReadCiphertext(bytes.NewReader(pair[1]))
				if err != nil {
					errc <- err
					return
				}
				out, err := ctx.Add(a, b)
				if err != nil {
					errc <- err
					return
				}
				if err := out.MarshalTo(io.Discard); err != nil {
					errc <- err
					return
				}
				for _, h := range []*Ciphertext{out, a, b} {
					if err := h.Release(); err != nil {
						errc <- err
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	for i, ctx := range tenants {
		if s := ctx.PoolStats(); s.InUse != 0 || s.Gets != s.Puts+s.InUse {
			t.Fatalf("tenant %d pool unbalanced after stress: %+v", i, s)
		}
	}
}
