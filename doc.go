// Package repro reproduces "Evaluating Homomorphic Operations on a
// Real-World Processing-In-Memory System" (Gupta, Kabra, Gómez-Luna,
// Kanellopoulos, Mutlu; IISWC 2023, arXiv:2309.06545) as a Go library:
// a from-scratch BFV somewhat-homomorphic encryption implementation, a
// cycle-level simulator of the first-generation UPMEM PIM system, the
// paper's CPU / CPU-SEAL / GPU baselines as calibrated analytic models,
// and a benchmark harness that regenerates every figure of the paper's
// evaluation.
//
// # Public API: package hebfv
//
// The public surface of the library is the hebfv package — a
// scheme-level facade with context-managed keys, slot-level rotations,
// versioned serialization, and pluggable evaluation backends selected
// by name ("dcrt-native", "schoolbook", "pim", "auto"). Every
// scheme-level consumer — all examples that touch BFV, cmd/hepim-bench's
// evaluation figures, and the served front end (hebfv/serve, cmd/hebfvd)
// — builds against hebfv only. (cmd/pimsim remains a thin demo of the
// raw PIM simulator; examples/platformcompare drives only the analytic
// platform models.)
//
// Everything under internal/ is private by policy as well as by Go
// visibility: the packages below are implementation layers whose APIs
// may change freely between commits, and new consumers must go through
// the facade (adding whatever the facade lacks) rather than reaching
// around it.
//
// # Evaluation backends
//
// Host-side BFV evaluation runs on a double-CRT (RNS + NTT) backend
// (internal/dcrt): each R_q polynomial is represented by its residues
// modulo word-sized NTT-friendly primes and kept in the NTT domain, so
// ring products are pointwise O(n) per limb instead of O(n²·W²) limb
// schoolbook, and the BFV tensor product runs in an extended basis wide
// enough that the exact integer coefficients never wrap — making the
// backend bit-identical to the schoolbook path. Limb channels execute on
// a bounded process-wide worker pool; twiddle tables and contexts are
// cached per (q, n).
//
// Between operations, evaluation stays inside the RNS domain. The BFV
// tensor rescaling ⌊t·x/q⌉ runs RNS-native (internal/dcrt.ScaleRounder):
// a fast base conversion out of the extended basis — γᵢ Shoup passes, a
// 128-bit fixed-point lift counter, and word-sized Barrett arithmetic
// modulo q (one or two 64-bit words for every paper modulus) — yields
// t·x mod q, and the rounded quotient follows by exact per-limb division
// (t·xᵢ − r)·q⁻¹ mod pᵢ. The basis is sized two bits beyond the
// exactness requirement so the quarter-shifted conversion's fixed-point
// estimate is provably exact (not approximate: results stay bit-identical
// to the schoolbook oracle; see internal/dcrt/baseconv.go). Key-switching
// digits decompose by limb shifts, and ciphertexts are NTT-resident —
// centered double-CRT forms are cached per component, so chained
// Mul/Rotate and squarings never repeat the decompose + forward-NTT round
// trip; coefficient form is materialized only at decryption and
// serialization boundaries. No big.Int arithmetic remains on the
// unmetered multiply/relinearize path.
//
// # Batched evaluation and hoisted rotations
//
// The paper's PIM workloads are inherently batched — many ciphertexts
// flowing through the same kernels — and bfv.BatchEvaluator is that
// front end: MulMany/AddMany/RotateMany/RotateAndSum run pipelines over
// ciphertext slices, scheduling per-ciphertext tasks on the same bounded
// pool the per-limb work uses (the pool is nestable: submitters help
// drain the queue instead of blocking, so batch- and limb-level
// parallelism compose without oversubscription or deadlock).
//
// Rotations use the decompose-then-permute convention on every backend:
// c1 is digit-decomposed first, and the Galois automorphism τ_g — a pure
// NTT-slot permutation in double-CRT form (internal/dcrt.GaloisNTTIndices)
// — is applied to the digits inside the key-switching accumulation. The
// digit set is therefore independent of g, which enables hoisting
// (bfv.Evaluator.Hoist): one decomposition serves every Galois element,
// so k rotations of a ciphertext pay 1 decomposition instead of k, and
// rotate-and-sum aggregations additionally fuse all k key-switching
// reductions into one extended-basis accumulator. Hoisted outputs are
// bit-identical to per-rotation ApplyGalois, which is bit-identical to
// the schoolbook oracle and the PIM server.
//
// Rotation outputs can additionally stay NTT-resident
// (bfv.RotatedNTT / BatchEvaluator.RotateManyNTT): the two per-output
// base conversions — the cost that capped hoisted RotateMany at ~1.4×
// over serial rotation — are deferred until a consumer forces
// coefficients, and sums of deferred outputs fuse entirely in the NTT
// domain. Multiplication outputs defer the same way (bfv.ProductNTT /
// Evaluator.MulNTT / BatchEvaluator.MulManyNTT): a relinearized
// product's two components are exact integers in the extended basis —
// the rescaled tensor part plus the key-switching accumulator — held as
// residue-domain accumulators until forced, so deferred products Add in
// the RNS domain (a MulMany-then-Sum dot product pays one conversion
// pair for the whole reduction) and chain into further multiplications
// through a centered-mod-q re-entry that never packs coefficients. The
// hebfv facade threads both transparently: a deferred handle
// materializes on first decrypt/serialize/incompatible-arithmetic
// touch, bit-identically.
//
// # Kernel architecture: lazy reduction and fusion
//
// The scalar kernels under internal/ntt and internal/dcrt are organized
// around Harvey-style lazy reduction with explicit bound contracts, so
// reduction work is paid once per pipeline rather than once per op:
//
//   - ForwardLazy emits NTT values in [0, 4q) (two butterfly layers
//     merged per memory pass, bounds-check-free inner loops); Forward
//     adds the single folding pass that restores < q.
//   - InverseLazy emits [0, 2q) — the n⁻¹ scaling is folded into the
//     last butterfly stage, so no separate scaling pass runs at all —
//     and Inverse adds one conditional-subtraction pass.
//   - The base-conversion γ pass, the scale-and-round division, and the
//     pointwise Barrett products all accept lazy inputs exactly, so
//     Convolve and the evaluator pipelines run transform→multiply→
//     transform with one reduction per coefficient end to end.
//   - Key switching folds its whole digit sum in one fused pass per
//     component (ntt.MulAddPair128 / GaloisAccPair128): per slot, the
//     digit×key products accumulate lazily in 128 bits — digits may
//     carry the 4q transform bound — and a single Barrett reduction
//     lands the sum below q. The binding invariant is the reduction's
//     q·2⁶⁴ validity domain, enforced by ntt.Acc128Capacity (for the
//     paper's shapes: exactly the three-digit key switch in one fold).
//   - Key-switching accumulators are far smaller integers than tensor
//     components, so their digit transforms and accumulation run on a
//     basis prefix only and the missing limb channels are recovered by
//     an exact residue-domain base extension (dcrt.ExtendResidues) —
//     trading transforms for one word-level recombination pass.
//
// Values above q therefore appear, by design, in: digit NTT forms
// (< 4p unfolded on the deferred path, < 2p folded elsewhere), lazy
// inverse-transform outputs (< 2p), deferred product accumulators
// (< 2p), and deferred-chain operand forms (< 4p); every kernel
// documents which lazy bound it accepts, and the property tests in
// internal/ntt pin the bounds at the 60-bit prime ceiling with inputs
// at 0, q−1, 2q−1 and 4q−1.
//
// # Vectorized kernels and runtime dispatch
//
// The hot scalar kernels above have hand-written Go-assembly
// counterparts (internal/ntt, amd64): AVX-512 implementations of the
// forward/inverse lazy butterfly passes, the pointwise Barrett and
// Shoup products, the fused 128-bit digit accumulators
// (MulAddPair128 / GaloisAccPair128) and the limb-loop primitives
// (MulShoupLazyVec / MulPairAddVec), plus AVX2 tiers for the kernels
// whose arithmetic fits 256-bit lanes (the butterfly passes and the
// Shoup product). Dispatch is decided once at process start from CPUID
// (internal/cpufeat) and consulted per call through internal/ntt's
// dispatch table; the scalar kernels remain compiled-in on every
// platform as the always-available oracle, and non-amd64 builds
// (including NEON hosts, until an arm64 tier lands) run them
// exclusively. The vector kernels honor the same lazy-bound contracts
// as the scalar ones and are bit-identical to them — not merely
// numerically close — on every input inside the documented domains.
//
// The dispatch decision is overridable without rebuilding: the
// HEPIM_VECTOR environment variable (or ntt.SetVectorMode) forces
// "off"/"scalar", "avx2", "avx512" or "auto", and unsupported or
// unknown requests fall back to scalar with a note recorded in
// ntt.EnvNote. CI runs the differential-race job and the allocation
// gates twice — HEPIM_VECTOR=off and auto — so a divergence on either
// path fails exactly one matrix leg. `hepim-bench -kernels` prints the
// host's detected features, the live per-kernel dispatch, and measured
// scalar vs vector ns/op; the same table is embedded in
// BENCH_dcrt.json (schema v6, "dispatch" section).
//
// Verifying a new vector kernel, in order:
//
//  1. State the bound contract first: maximum input magnitude (q, 2q,
//     4q, or any-uint64 for Shoup), output bound, and the reduction's
//     validity domain (Barrett: x < q·2⁶⁴). The scalar kernel's doc
//     comment is the contract; the vector kernel must match it exactly.
//  2. Add the kernel to ntt's dispatch table with its scalar fallback
//     and tier predicates, so forcing HEPIM_VECTOR=off|avx2|avx512
//     exercises every path through the same entry point.
//  3. Pin bit-identity against the scalar oracle in
//     internal/ntt/vector_test.go under forEachVectorMode: adversarial
//     lanes (0, 1, q−1, q, 2q−1, 2q, 4q−1, bound−1), non-lane-multiple
//     tails, and every (m, step) geometry the pass dispatcher can
//     select — small n values reach pass shapes that n=4096 never does.
//  4. Extend FuzzForwardLazyVector (or add a sibling fuzz target) if
//     the kernel transforms whole vectors; byte-driven inputs catch
//     carry-chain bugs that structured tests miss.
//  5. Keep it allocation-free — the alloc gate runs in both dispatch
//     modes — and confirm `hepim-bench -kernels` reports the expected
//     path and a speedup worth the assembly.
//  6. Only then wire it into the limb loops (internal/dcrt), and
//     re-run the full differential suite in both forced modes: the
//     end-to-end EvalMul/rotation parity tests are the final word.
//
// Decryption is RNS-native on the same machinery: the phase c0 + c1·s
// (+ c2·s²) accumulates on cached NTT forms and the exact t/q rounding
// folds to mod t per limb (internal/dcrt.ScaleRounder.RoundModT), leaving
// no big.Int on the unmetered decrypt path either; the big.Int path
// survives as the pinned rounding oracle (bfv.Decryptor.decryptBig).
//
// The O(n²) schoolbook path remains authoritative in two places: any
// bfv.Evaluator with a limb32.Meter attached runs it, because its
// instruction stream is what the PIM cost model counts (the paper's
// kernels deliberately do not use the NTT, §3); and it is the
// correctness oracle the double-CRT backend is differentially tested
// against (bfv.NewSchoolbookEvaluator).
//
// # Error contract and fault tolerance
//
// The facade's error contract is typed and panic-free: hebfv's public
// entry points recover internal panics into errors, blob rejection is
// hebfv.ErrCorruptBlob (deserialization validates magic, version,
// parameters and coefficient canonicity, and is fuzz-tested), and
// secret-key operations on evaluation-only contexts are
// hebfv.ErrNoSecretKey. See the hebfv package docs for the full
// taxonomy.
//
// Fault tolerance is built on a deterministic injector
// (internal/faultinject): a fault decision is a pure function of
// (seed, site, key), so chaos runs reproduce exactly. The simulated
// PIM system (internal/pim) models transient DPU faults (bounded retry
// with backoff), permanent DPU death (shards re-dispatch to
// survivors), and stragglers (modeled-cycle inflation); the kernel
// drivers in internal/pim/kernels re-stage and re-launch until the
// retry budget runs out, and pim.FaultStats counts the toll. The
// host-side worker pool (internal/dcrt) isolates task panics — a
// panicking task poisons only its own job, surfaces as a typed
// *dcrt.PanicError at the submitter, and leaves the pool serviceable —
// verified under the race detector with nested submissions. When the
// PIM backend degrades beyond its retry budget, the hebfv context
// fails over to the host backend and replays the operation,
// bit-identically. Reproducible chaos runs are scriptable:
//
//	hepim-bench -faults transient=0.1,dead=0.01,straggler=0.05
//	hepim-bench -faults dead=1 -fault-seed 11   # total DPU loss: exercises failover
//
// # PIM at scale: the sharded async execution plane
//
// internal/pimsched is the multi-DPU execution plane: it shards
// batched kernel work across an explicit rank topology and models the
// asynchronous host↔DPU pipeline the UPMEM runtime exposes. A
// pimsched.Topology is ranks × DPUs-per-rank (64 per rank, the real
// machine's granularity; FitTopology rounds a DPU budget down to whole
// ranks, so 2524 functional DPUs schedule as 39×64). The transfer cost
// model layers on the simulator's CostModel DMA pricing with the
// machine's two-level bus: DPUs within one rank load in parallel (one
// rank-wide transfer costs the slowest member), while distinct ranks
// serialize on the host memory bus.
//
// Execution is double-buffered at rank granularity — MRAM staging is
// single-buffered per DPU, so overlap happens across ranks, not within
// one: while rank r's shards execute, rank r+1's CopyToDPU streams in
// behind them, and the modeled makespan is the maximum over overlap
// lanes rather than the sum of phases. Two structural identities pin
// the model and are enforced by test and by the CI paper-validation
// gate: a single-rank topology has one transfer lane, so its pipelined
// makespan exactly equals the serialized one; and any multi-rank
// topology's pipelined makespan is strictly below serial. The plane is
// bit-identical to host evaluation — sharding, gathering and overlap
// are scheduling, never arithmetic — and deterministic under the fault
// injector: a dead DPU re-shards its work onto survivors through the
// same single-dispatcher path, so chaos runs reproduce exactly.
//
// internal/hepim drives BFV batches through the plane
// (NewServerWithTopology), one scheduler run per batched op (AddMany
// over every pair, Sum over every component), and keeps a running
// total of the runs' pimsched.Reports;
// hebfv surfaces the result as Context.PIMBreakdown — shards, launches,
// kernel cycles, per-direction transfer seconds and bytes, pipelined vs
// serialized makespan, and energy split by kernel vs transfer. The
// topology is selectable from the facade (WithPIMTopology,
// WithPIMOverlap) and from hepim-bench.
//
// A fifth registry backend, "auto", is the first heterogeneous
// scheduler: singleton ops stay on the host, while batched ops
// (Sum, RotateMany, RotateAndSum, MulMany, AddMany) route between the
// dcrt-native host and the PIM plane by comparing a measured host
// seconds-per-item estimate against the PIM plane's modeled makespan
// delta per item. The first batch of a family probes the host, the
// second probes PIM, and subsequent batches follow the cheaper side;
// every decision (target, reason, both estimates) is recorded in
// Context.AutoStats. A fault-class PIM failure retires the plane for
// the session and replays on the host, bit-identically.
//
// `hepim-bench -fig pim-scale -pim-json BENCH_pim.json` regenerates
// the tracked DPU-count sweep (1 → 2560 DPUs at n=2048 and n=4096,
// overlap on vs off, host-oracle identity checked at every point). The
// checked-in validation table (internal/bench/testdata/
// paper_validation.json) pins the sweep's metered cycle and byte
// counts exactly and its modeled makespans within a relative
// tolerance; CI regenerates the points and gates against it. The table
// gates on this repository's own metered values — the reproduction
// meters its own cost model rather than the paper's hardware — and
// each entry carries the paper's reported figures for the matching
// regime as context, so drift from the paper stays visible next to
// the gate.
//
// # Served evaluation plane
//
// The deployment model the paper assumes — clients hold keys, an
// evaluation server computes on ciphertexts it can never decrypt — is
// runnable: cmd/hebfvd serves the hebfv facade over HTTP, with the
// reusable pieces in repro/hebfv/serve. A tenant is an onboarded
// evaluation-only key set, identified by its SHA-256 fingerprint
// (hebfv.Context.KeySetHash, equal on both ends of the wire); the
// server keeps tenants in an LRU context cache under a byte budget
// (singleflight construction, Context.Close on eviction), coalesces
// concurrent single-op requests into the facade's batch pipelines
// (AddMany / MulMany / RotateRowsEach) within a bounded window, and
// streams ciphertext bodies in O(chunk) memory with exact
// Content-Length from MarshaledBytes. Results are bit-identical to
// local evaluation — coalescing is scheduling, never approximation.
// Backpressure is typed: per-tenant quota exhaustion is HTTP 429,
// global overload 503, corrupt blobs 400, unknown tenants 404, with
// machine-readable error codes throughout (serve.HTTPStatus is the
// contract). Topology: clients ↔ hebfvd over HTTP; hebfvd evaluates on
// any registry backend (-backend pim runs the modeled PIM system
// behind the same endpoints).
//
// Quickstart (two shells):
//
//	hebfvd -addr :8443                         # n=4096, dcrt-native
//	hebfv-loadgen -addr http://localhost:8443 -check
//
// hebfv-loadgen onboards simulated tenants, drives add/mul/rotate in a
// closed or open loop, verifies every response byte-for-byte against
// local evaluation (-check), and reports p50/p99 latency and ops/sec;
// `hebfv-loadgen -json BENCH_serve.json` emits the tracked serving
// report (schema repro/serve-loadgen/v2, internal/bench). v2 adds the
// GC axis: the loadgen diffs the server's /v1/stats memory counters
// across the run and reports server-side allocs/bytes per op, the GC
// pause tail, and the decode-pool recycling counters.
//
// # Memory management and handle lifecycle
//
// The serving path is zero-copy at steady state. Every hebfv.Context
// owns a size-classed pool of ciphertext coefficient backings
// (internal/polypool): Context.ReadCiphertext decodes straight into
// pooled backings — the only staging is the serializer's fixed 32 KiB
// chunk buffer — and Ciphertext.Release returns them for the next
// decode to reuse. At n=4096 one two-component ciphertext is 128 KiB
// of backing, so recycling the request traffic is the difference
// between a server that allocates per request and one that reaches a
// steady state; BENCH_serve.json's GC axis measures the win
// (>=30% fewer bytes allocated per op on the add/mul/rotate paths).
//
// Release is required only for handles from ReadCiphertext /
// UnmarshalCiphertext, and hebfvd's handlers call it automatically
// once the response is flushed — a released handle fails every
// subsequent use with hebfv.ErrReleasedHandle rather than corrupting a
// recycled backing. Retention is bounded per context
// (hebfv.WithPoolRetention, 32 MiB default; hebfvd -pool-mb;
// 0 disables retention for A/B runs), Context.Close drains the pool
// (the serve cache's eviction path, leak-checked in CI), and
// Context.PoolStats / the server's /v1/stats expose the
// gets/puts/hits/misses/in-use balance. Evaluation outputs are not
// pooled: engine results are freshly allocated and never alias their
// inputs.
//
// The root package holds the per-figure benchmarks (bench_test.go); the
// public API lives in hebfv/, the implementation under internal/ (see
// DESIGN.md for the map) and the runnable entry points under cmd/ and
// examples/. Evaluation-layer performance is
// tracked by `hepim-bench -fig dcrt -dcrt-json BENCH_dcrt.json` (v7:
// EvalMul incl. deferred Mul chains, batched-rotation, decryption and
// raw-kernel axes plus the SIMD dispatch table, measured through the
// hebfv backend registry and restrictable with -backend) and gated in
// CI by cmd/benchdiff against
// .github/bench-baseline.txt — a blocking job, now paired with an
// allocation-regression gate over the steady-state kernels. To profile
// the kernels from the CLI:
//
//	hepim-bench -fig dcrt -backend dcrt-native -cpuprofile cpu.out
//	go tool pprof -top cpu.out
//	hepim-bench -fig batch -memprofile mem.out
//	go tool pprof -alloc_space mem.out
package repro
