package hebfv

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/bfv"
	"repro/internal/faultinject"
	"repro/internal/hepim"
	"repro/internal/pim"
	"repro/internal/pimsched"
)

// Pluggable evaluation backends. A Backend turns a parameter set and
// evaluation keys into an Engine — the operation surface every facade
// call routes through — and is selectable by name through one
// constructor (New(WithBackend(name)) for contexts, NewEngine for
// lower-level harnesses like the benchmark suite).
//
// Four backends are built in:
//
//   - "dcrt-native": the double-CRT (RNS + NTT) backend with RNS-native
//     rescaling, NTT-resident ciphertexts, and hoisted rotations — the
//     default and the fast path.
//   - "schoolbook": the O(n²) limb schoolbook path — the paper's PIM
//     cost model (its instruction stream is what the simulator meters)
//     and the correctness oracle; every backend is bit-identical to it.
//   - "pim": the simulated UPMEM PIM server (internal/hepim) — kernels
//     run on the cycle-level simulator through the async multi-DPU
//     execution plane (internal/pimsched) and the engine reports
//     modeled kernel time and the sharded cycle/transfer/energy
//     breakdown (see Context.PIMReport and Context.PIMBreakdown).
//   - "auto": the heterogeneous scheduler — holds both the dcrt-native
//     host engine and the pim engine and routes each *batched*
//     operation to whichever side's cost estimate is lower (measured
//     host wall time vs the PIM plane's modeled makespan); singleton
//     operations always run on the host. Every routing decision is
//     recorded (see Context.AutoStats), and results are bit-identical
//     no matter where an operation lands.
//
// The Engine and Backend interfaces name internal types, so they are
// implementable only inside this repository — which is the point: the
// registry is the mount point for in-repo backends (the served
// evaluation front end, future accelerators), not a third-party plugin
// system. External consumers select backends by name.

// Engine is the evaluation capability a backend provides. All methods
// must be bit-identical to the schoolbook oracle's results; engines that
// do not support an operation return an error naming the backend.
type Engine interface {
	Add(a, b *bfv.Ciphertext) (*bfv.Ciphertext, error)
	Sub(a, b *bfv.Ciphertext) (*bfv.Ciphertext, error)
	Neg(a *bfv.Ciphertext) (*bfv.Ciphertext, error)
	AddPlain(a *bfv.Ciphertext, pt *bfv.Plaintext) (*bfv.Ciphertext, error)
	MulPlain(a *bfv.Ciphertext, pt *bfv.Plaintext) (*bfv.Ciphertext, error)
	Mul(a, b *bfv.Ciphertext) (*bfv.Ciphertext, error)
	Square(a *bfv.Ciphertext) (*bfv.Ciphertext, error)
	Sum(cts []*bfv.Ciphertext) (*bfv.Ciphertext, error)
	ApplyGalois(a *bfv.Ciphertext, gk *bfv.GaloisKey) (*bfv.Ciphertext, error)
	RotateMany(a *bfv.Ciphertext, gks []*bfv.GaloisKey) ([]*bfv.Ciphertext, error)
	RotateAndSum(cts []*bfv.Ciphertext, gks []*bfv.GaloisKey) ([]*bfv.Ciphertext, error)
	MulMany(as, bs []*bfv.Ciphertext) ([]*bfv.Ciphertext, error)
	AddMany(as, bs []*bfv.Ciphertext) ([]*bfv.Ciphertext, error)
}

// DeferredRotator is the optional Engine upgrade for NTT-resident
// rotation outputs: RotateManyNTT defers each output's base conversions
// until a consumer forces coefficients. CanDefer reports whether
// deferral actually happens on this engine's configuration —
// RotateManyNTT itself transparently materializes on backends that
// cannot defer, so callers that *label* results (the bench harness)
// must gate on CanDefer, not on the interface assertion. The facade
// uses the deferred path when CanDefer holds and falls back to
// RotateMany otherwise.
type DeferredRotator interface {
	CanDefer() bool
	RotateManyNTT(ct *bfv.Ciphertext, gks []*bfv.GaloisKey) ([]*bfv.RotatedNTT, error)
}

// DeferredMultiplier is the optional Engine upgrade for NTT-resident
// multiplication outputs: MulNTT/MulManyNTT return deferred product
// handles whose base conversions wait until a consumer forces
// coefficients, chain into further multiplications, and fuse sums in the
// RNS domain. CanDeferMul reports whether deferral actually happens on
// this engine's configuration — MulNTT itself transparently materializes
// on backends that cannot defer, so callers that route pipelines (the
// facade) gate on CanDeferMul and fall back to Mul/MulMany otherwise.
type DeferredMultiplier interface {
	CanDeferMul() bool
	MulNTT(a, b bfv.MulOperand) (*bfv.ProductNTT, error)
	MulManyNTT(as, bs []bfv.MulOperand) ([]*bfv.ProductNTT, error)
}

// batchApplier is the optional Engine upgrade for applying one Galois
// key across many ciphertexts as a single batch pipeline (the
// coalesced-rotation workload of the served front end: many tenants'
// same-step rotations gathered into one flush). Engines without it fall
// back to per-ciphertext ApplyGalois.
type batchApplier interface {
	RotateManyAll(cts []*bfv.Ciphertext, gks []*bfv.GaloisKey) ([][]*bfv.Ciphertext, error)
}

// pimReporter is the optional Engine upgrade for backends on the
// modeled PIM plane ("pim" and "auto"): accumulated kernel launches,
// modeled kernel seconds, fault/retry counters and the sharded
// cycle/transfer/energy breakdown in one snapshot, surfaced through
// Context.PIMReport, PIMStats and PIMBreakdown.
type pimReporter interface {
	pimReport() (launches int, modeledSeconds float64, faults pim.FaultStats, bd *pimsched.Report)
}

// Config carries everything a backend needs to construct its engine.
type Config struct {
	Params *bfv.Parameters
	Relin  *bfv.RelinKey // may be nil when Mul is not used

	// PIMDPUs overrides the simulated DPU count for the "pim" and
	// "auto" backends (0 = the paper machine's 2,524). Other backends
	// ignore it.
	PIMDPUs int

	// PIMRanks/PIMDPUsPerRank pin the rank×DPU topology of the async
	// execution plane (both zero = the largest whole-rank topology that
	// fits the DPU count). When set without PIMDPUs, the simulated
	// system is sized to the topology.
	PIMRanks       int
	PIMDPUsPerRank int

	// PIMNoOverlap disables the async plane's staging/compute
	// pipelining, so modeled makespans equal the serial sums. Results
	// are unaffected.
	PIMNoOverlap bool

	// PIMFaultSeed/PIMFaultRates arm the "pim" backend's deterministic
	// fault injector: rates maps injection sites (pim.SiteDPUTransient,
	// pim.SiteDPUDead, pim.SiteDPUStraggler) to per-launch-per-DPU
	// probabilities. A nil/empty map leaves injection disabled. Other
	// backends ignore both.
	PIMFaultSeed  uint64
	PIMFaultRates map[string]float64
}

// Backend constructs evaluation engines for a named strategy.
type Backend interface {
	Name() string
	New(cfg Config) (Engine, error)
}

// DefaultBackend is the backend a Context uses when WithBackend is not
// given.
const DefaultBackend = "dcrt-native"

var (
	backendMu sync.RWMutex
	backends  = map[string]Backend{}
)

// RegisterBackend adds a backend to the registry. It panics on a
// duplicate name — registration is init-time wiring, and a silent
// overwrite would make WithBackend ambiguous.
func RegisterBackend(b Backend) {
	backendMu.Lock()
	defer backendMu.Unlock()
	if _, dup := backends[b.Name()]; dup {
		panic(fmt.Sprintf("hebfv: backend %q registered twice", b.Name()))
	}
	backends[b.Name()] = b
}

// Backends returns the registered backend names, sorted.
func Backends() []string {
	backendMu.RLock()
	defer backendMu.RUnlock()
	names := make([]string, 0, len(backends))
	for name := range backends {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// NewEngine constructs the named backend's engine — the one constructor
// every consumer (contexts, the benchmark harness, a served front end)
// selects backends through.
func NewEngine(name string, cfg Config) (Engine, error) {
	if cfg.Params == nil {
		return nil, errors.New("hebfv: NewEngine requires parameters")
	}
	backendMu.RLock()
	b, ok := backends[name]
	backendMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("hebfv: unknown backend %q (have %v)", name, Backends())
	}
	return b.New(cfg)
}

// backendFunc adapts a constructor function to the Backend interface.
type backendFunc struct {
	name string
	mk   func(cfg Config) (Engine, error)
}

func (b backendFunc) Name() string                   { return b.name }
func (b backendFunc) New(cfg Config) (Engine, error) { return b.mk(cfg) }

func init() {
	RegisterBackend(backendFunc{"dcrt-native", func(cfg Config) (Engine, error) {
		return newEvalEngine(bfv.NewEvaluator(cfg.Params, cfg.Relin)), nil
	}})
	RegisterBackend(backendFunc{"schoolbook", func(cfg Config) (Engine, error) {
		return newEvalEngine(bfv.NewSchoolbookEvaluator(cfg.Params, cfg.Relin)), nil
	}})
	RegisterBackend(backendFunc{"pim", func(cfg Config) (Engine, error) {
		return newPIMEngine(cfg)
	}})
	RegisterBackend(backendFunc{"auto", func(cfg Config) (Engine, error) {
		return newAutoEngine(cfg)
	}})
}

// newPIMEngine builds the simulated PIM server engine — shared by the
// "pim" backend and the "auto" backend's PIM side. The topology is
// explicit when the config pins one, otherwise the largest whole-rank
// shape fitting the DPU count; an explicit topology without an explicit
// DPU count sizes the system to the topology.
func newPIMEngine(cfg Config) (*pimEngine, error) {
	sys := pim.DefaultConfig()
	if cfg.PIMDPUs > 0 {
		sys.NumDPUs = cfg.PIMDPUs
	}
	topo := pimsched.FitTopology(sys.NumDPUs)
	if cfg.PIMRanks > 0 && cfg.PIMDPUsPerRank > 0 {
		topo = pimsched.Topology{Ranks: cfg.PIMRanks, DPUsPerRank: cfg.PIMDPUsPerRank}
		if cfg.PIMDPUs == 0 {
			sys.NumDPUs = topo.NumDPUs()
		}
	}
	srv, err := hepim.NewServerWithTopology(sys, cfg.Params, cfg.Relin, topo, !cfg.PIMNoOverlap)
	if err != nil {
		return nil, err
	}
	if len(cfg.PIMFaultRates) > 0 {
		in := faultinject.New(cfg.PIMFaultSeed)
		for site, p := range cfg.PIMFaultRates {
			in.SetRate(site, p)
		}
		srv.Sys.SetFaultInjector(in)
	}
	return &pimEngine{srv: srv}, nil
}

// evalEngine adapts a host bfv.Evaluator (any of the three host
// backends) plus its batched front end to the Engine interface.
type evalEngine struct {
	ev *bfv.Evaluator
	be *bfv.BatchEvaluator
}

func newEvalEngine(ev *bfv.Evaluator) *evalEngine {
	return &evalEngine{ev: ev, be: bfv.NewBatchEvaluatorFrom(ev)}
}

func (e *evalEngine) Add(a, b *bfv.Ciphertext) (*bfv.Ciphertext, error) { return e.ev.Add(a, b), nil }
func (e *evalEngine) Sub(a, b *bfv.Ciphertext) (*bfv.Ciphertext, error) { return e.ev.Sub(a, b), nil }
func (e *evalEngine) Neg(a *bfv.Ciphertext) (*bfv.Ciphertext, error)    { return e.ev.Neg(a), nil }

func (e *evalEngine) AddPlain(a *bfv.Ciphertext, pt *bfv.Plaintext) (*bfv.Ciphertext, error) {
	return e.ev.AddPlain(a, pt), nil
}

func (e *evalEngine) MulPlain(a *bfv.Ciphertext, pt *bfv.Plaintext) (*bfv.Ciphertext, error) {
	return e.ev.MulPlain(a, pt), nil
}

func (e *evalEngine) Mul(a, b *bfv.Ciphertext) (*bfv.Ciphertext, error) { return e.ev.Mul(a, b) }
func (e *evalEngine) Square(a *bfv.Ciphertext) (*bfv.Ciphertext, error) { return e.ev.Square(a) }

// Sum folds in slice order — the convention every backend shares, so
// results stay mutually bit-identical.
func (e *evalEngine) Sum(cts []*bfv.Ciphertext) (*bfv.Ciphertext, error) {
	if len(cts) == 0 {
		return nil, errors.New("hebfv: empty sum")
	}
	// Engine outputs never alias inputs (the facade may recycle an
	// input's backings after the call); bfv's Sum allocates its output.
	return e.ev.Sum(cts), nil
}

func (e *evalEngine) ApplyGalois(a *bfv.Ciphertext, gk *bfv.GaloisKey) (*bfv.Ciphertext, error) {
	return e.ev.ApplyGalois(a, gk)
}

func (e *evalEngine) RotateMany(a *bfv.Ciphertext, gks []*bfv.GaloisKey) ([]*bfv.Ciphertext, error) {
	return e.be.RotateMany(a, gks)
}

func (e *evalEngine) CanDefer() bool { return e.be.CanDeferRotations() }

func (e *evalEngine) RotateManyNTT(a *bfv.Ciphertext, gks []*bfv.GaloisKey) ([]*bfv.RotatedNTT, error) {
	return e.be.RotateManyNTT(a, gks)
}

func (e *evalEngine) CanDeferMul() bool { return e.be.CanDeferMuls() }

func (e *evalEngine) MulNTT(a, b bfv.MulOperand) (*bfv.ProductNTT, error) {
	return e.ev.MulNTT(a, b)
}

func (e *evalEngine) MulManyNTT(as, bs []bfv.MulOperand) ([]*bfv.ProductNTT, error) {
	return e.be.MulManyNTT(as, bs)
}

func (e *evalEngine) RotateAndSum(cts []*bfv.Ciphertext, gks []*bfv.GaloisKey) ([]*bfv.Ciphertext, error) {
	return e.be.RotateAndSum(cts, gks)
}

func (e *evalEngine) RotateManyAll(cts []*bfv.Ciphertext, gks []*bfv.GaloisKey) ([][]*bfv.Ciphertext, error) {
	return e.be.RotateManyAll(cts, gks)
}

func (e *evalEngine) MulMany(as, bs []*bfv.Ciphertext) ([]*bfv.Ciphertext, error) {
	return e.be.MulMany(as, bs)
}

func (e *evalEngine) AddMany(as, bs []*bfv.Ciphertext) ([]*bfv.Ciphertext, error) {
	return e.be.AddMany(as, bs)
}

// pimEngine adapts the simulated UPMEM PIM server. Homomorphic
// arithmetic runs as DPU kernels on the cycle-level simulator;
// operations the server does not implement return an error naming the
// backend. The server's kernel-report accounting is unsynchronized, so
// the engine serializes operations behind one lock — the simulator
// models a single machine anyway.
type pimEngine struct {
	mu  sync.Mutex
	srv *hepim.Server
}

func (e *pimEngine) Add(a, b *bfv.Ciphertext) (*bfv.Ciphertext, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.srv.Add(a, b)
}
func (e *pimEngine) Sub(a, b *bfv.Ciphertext) (*bfv.Ciphertext, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.srv.Sub(a, b)
}
func (e *pimEngine) Neg(a *bfv.Ciphertext) (*bfv.Ciphertext, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.srv.Neg(a)
}

func (e *pimEngine) AddPlain(a *bfv.Ciphertext, pt *bfv.Plaintext) (*bfv.Ciphertext, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.srv.AddPlain(a, pt)
}

func (e *pimEngine) MulPlain(*bfv.Ciphertext, *bfv.Plaintext) (*bfv.Ciphertext, error) {
	return nil, errors.New("hebfv: backend \"pim\" does not implement MulPlain")
}

func (e *pimEngine) Mul(a, b *bfv.Ciphertext) (*bfv.Ciphertext, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.srv.Mul(a, b)
}
func (e *pimEngine) Square(a *bfv.Ciphertext) (*bfv.Ciphertext, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.srv.Square(a)
}

func (e *pimEngine) Sum(cts []*bfv.Ciphertext) (*bfv.Ciphertext, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.srv.Sum(cts)
}

func (e *pimEngine) ApplyGalois(a *bfv.Ciphertext, gk *bfv.GaloisKey) (*bfv.Ciphertext, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.srv.ApplyGalois(a, gk)
}

func (e *pimEngine) RotateMany(a *bfv.Ciphertext, gks []*bfv.GaloisKey) ([]*bfv.Ciphertext, error) {
	out := make([]*bfv.Ciphertext, len(gks))
	for i, gk := range gks {
		r, err := e.ApplyGalois(a, gk)
		if err != nil {
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}

// RotateAndSum folds ct + Σ_g τ_g(ct) in slice order — the same
// convention bfv.BatchEvaluator.RotateAndSum is pinned to.
func (e *pimEngine) RotateAndSum(cts []*bfv.Ciphertext, gks []*bfv.GaloisKey) ([]*bfv.Ciphertext, error) {
	out := make([]*bfv.Ciphertext, len(cts))
	for i, ct := range cts {
		acc := ct
		if len(gks) == 0 {
			// No steps: never alias the input (see evalEngine.Sum).
			acc = ct.Clone()
		}
		for _, gk := range gks {
			r, err := e.ApplyGalois(ct, gk)
			if err != nil {
				return nil, err
			}
			if acc, err = e.Add(acc, r); err != nil {
				return nil, err
			}
		}
		out[i] = acc
	}
	return out, nil
}

func (e *pimEngine) MulMany(as, bs []*bfv.Ciphertext) ([]*bfv.Ciphertext, error) {
	if len(as) != len(bs) {
		return nil, fmt.Errorf("hebfv: MulMany length mismatch: %d vs %d", len(as), len(bs))
	}
	out := make([]*bfv.Ciphertext, len(as))
	for i := range as {
		r, err := e.Mul(as[i], bs[i])
		if err != nil {
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}

// AddMany adds every pair in one scheduler run (hepim.Server.AddMany).
func (e *pimEngine) AddMany(as, bs []*bfv.Ciphertext) ([]*bfv.Ciphertext, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.srv.AddMany(as, bs)
}

func (e *pimEngine) pimReport() (int, float64, pim.FaultStats, *pimsched.Report) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.srv.Runs(), e.srv.ModeledSeconds(), e.srv.Sys.FaultStats(), e.srv.Breakdown()
}
