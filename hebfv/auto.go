package hebfv

import (
	"sync"
	"time"

	"repro/internal/bfv"
	"repro/internal/pim"
	"repro/internal/pimsched"
)

// The "auto" backend: a first heterogeneous scheduler over the host
// and PIM engines. It holds both a dcrt-native host engine and the
// simulated PIM server engine and routes each *batched* operation
// (AddMany, MulMany, Sum, RotateMany, RotateAndSum) to whichever side
// a per-op-family cost estimate says is cheaper. Singleton operations
// always run on the host: one ciphertext never amortizes a DPU launch,
// which is the paper's own offload rule (batch work goes to the PIM
// server, scalar work stays on the host CPU).
//
// The two cost estimates are deliberately asymmetric, matching what
// each side actually is in this repository: the host cost is *measured*
// wall time per item (the host engine is real code on the real CPU),
// while the PIM cost is the *modeled* makespan per item the async
// execution plane reports (the simulator's functional execution time is
// meaningless — its modeled time is the quantity the paper compares).
// Each family's first batch runs on the host and is timed; its second
// probes the PIM plane; from the third on, the cheaper estimate wins
// and the winning side's estimate is refreshed by an exponential moving
// average. Every decision is recorded and surfaced through
// Context.AutoStats.
//
// Routing is invisible in results: the backend contract makes host and
// PIM engines bit-identical, so the scheduler is free to move a batch
// at any time. A fault-class PIM error (injected fault past the retry
// budget, dead machine, converted panic) retires the PIM side for the
// context's lifetime and replays the failed batch on the host.
//
// The auto engine intentionally does not implement the deferred
// (NTT-resident) fast-path interfaces: deferral would route every
// rotation and multiplication down a host-only pipeline before the
// scheduler ever saw the batch, hiding the decision surface this
// backend exists to expose.

// AutoDecision records one batched-operation routing choice.
type AutoDecision struct {
	Op     string // engine operation ("AddMany", "MulMany", "Sum", ...)
	Items  int    // batch size the decision covered
	Target string // "host" or "pim"
	// Reason is why the target won: "probe-host"/"probe-pim" (first
	// exposure of the op family to each side), "modeled-cost" (the
	// estimates decided), "pim-offline" (the PIM side was retired), or
	// "pim-failover" (this batch replayed on the host after a
	// fault-class PIM error).
	Reason string
	// The per-item cost estimates at decision time, in seconds: the
	// host's measured wall time and the PIM plane's modeled makespan.
	// Zero means the side had not been probed yet.
	HostSecondsPerItem float64
	PIMSecondsPerItem  float64
}

// AutoStats is the decision surface of the "auto" backend (see
// Context.AutoStats): how many batched operations each side ran, the
// recent routing decisions with the estimates that drove them, and
// whether the PIM side has been retired by a fault.
type AutoStats struct {
	HostOps    int  // batched ops routed to the host engine
	PIMOps     int  // batched ops routed to the PIM engine
	Singletons int  // singleton ops (always host)
	PIMOffline bool // the PIM engine was retired after a fault-class error
	Decisions  []AutoDecision
}

// autoReporter is the optional Engine upgrade surfacing the routing
// decision surface, implemented by the "auto" backend.
type autoReporter interface {
	AutoStats() AutoStats
}

// autoDecisionCap bounds the retained decision log: long-lived serving
// contexts keep the most recent window, not an unbounded history.
const autoDecisionCap = 512

// famEstimate is one op family's per-item cost state.
type famEstimate struct {
	hostPerItem float64 // EWMA of measured host seconds per item
	hostN       int     // host batches observed
	pimPerItem  float64 // EWMA of modeled PIM makespan seconds per item
	pimN        int     // PIM batches observed
}

type autoEngine struct {
	host Engine     // dcrt-native: measured side, and the fault fallback
	pimE *pimEngine // simulated PIM server: modeled side

	// pimMu serializes PIM-routed batches so the modeled-makespan delta
	// read around each one is attributable to that batch alone.
	pimMu sync.Mutex

	mu      sync.Mutex
	fams    map[string]*famEstimate
	stats   AutoStats
	pimDown bool
}

func newAutoEngine(cfg Config) (*autoEngine, error) {
	pe, err := newPIMEngine(cfg)
	if err != nil {
		return nil, err
	}
	return &autoEngine{
		host: newEvalEngine(bfv.NewEvaluator(cfg.Params, cfg.Relin)),
		pimE: pe,
		fams: map[string]*famEstimate{},
	}, nil
}

// fam returns (creating on first use) the op family's estimate state.
// Caller holds e.mu.
func (e *autoEngine) fam(op string) *famEstimate {
	f := e.fams[op]
	if f == nil {
		f = &famEstimate{}
		e.fams[op] = f
	}
	return f
}

// record appends a decision and bumps the side counter. Caller holds
// e.mu.
func (e *autoEngine) record(dec AutoDecision) {
	if dec.Target == "pim" {
		e.stats.PIMOps++
	} else {
		e.stats.HostOps++
	}
	if len(e.stats.Decisions) >= autoDecisionCap {
		n := copy(e.stats.Decisions, e.stats.Decisions[1:])
		e.stats.Decisions = e.stats.Decisions[:n]
	}
	e.stats.Decisions = append(e.stats.Decisions, dec)
}

// pick chooses the target for one batched op and records the decision.
func (e *autoEngine) pick(op string, items int) AutoDecision {
	e.mu.Lock()
	defer e.mu.Unlock()
	f := e.fam(op)
	dec := AutoDecision{
		Op: op, Items: items,
		HostSecondsPerItem: f.hostPerItem,
		PIMSecondsPerItem:  f.pimPerItem,
	}
	switch {
	case f.hostN == 0:
		dec.Target, dec.Reason = "host", "probe-host"
	case e.pimDown:
		dec.Target, dec.Reason = "host", "pim-offline"
	case f.pimN == 0:
		dec.Target, dec.Reason = "pim", "probe-pim"
	case f.pimPerItem <= f.hostPerItem:
		dec.Target, dec.Reason = "pim", "modeled-cost"
	default:
		dec.Target, dec.Reason = "host", "modeled-cost"
	}
	e.record(dec)
	return dec
}

// ewma folds a new observation into an estimate (plain average of old
// and new — responsive without whiplash on the small batch counts a
// context sees).
func ewma(old float64, n int, obs float64) float64 {
	if n == 0 {
		return obs
	}
	return (old + obs) / 2
}

func (e *autoEngine) observeHost(op string, perItem float64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	f := e.fam(op)
	f.hostPerItem = ewma(f.hostPerItem, f.hostN, perItem)
	f.hostN++
}

func (e *autoEngine) observePIM(op string, perItem float64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	f := e.fam(op)
	f.pimPerItem = ewma(f.pimPerItem, f.pimN, perItem)
	f.pimN++
}

// retirePIM marks the PIM side dead and records the failover replay of
// the batch that killed it.
func (e *autoEngine) retirePIM(op string, items int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.pimDown = true
	e.stats.PIMOffline = true
	e.record(AutoDecision{Op: op, Items: items, Target: "host", Reason: "pim-failover"})
}

// route runs one batched op on the side pick chose, keeps the cost
// estimates fresh, and falls back to the host on a fault-class PIM
// error (retiring the PIM side). Panics on either engine surface as
// errors via safeOp, exactly like the failover wrapper.
func route[T any](e *autoEngine, op string, items int, run func(Engine) (T, error)) (T, error) {
	if items < 1 {
		items = 1
	}
	if e.pick(op, items).Target == "host" {
		return runHostOp(e, op, items, run)
	}
	e.pimMu.Lock()
	_, _, _, before := e.pimE.pimReport()
	out, err := safeOp(e.pimE, run)
	_, _, _, after := e.pimE.pimReport()
	e.pimMu.Unlock()
	if err == nil {
		e.observePIM(op, (after.MakespanSeconds-before.MakespanSeconds)/float64(items))
		return out, nil
	}
	if !faultClass(err) {
		return out, err
	}
	e.retirePIM(op, items)
	return runHostOp(e, op, items, run)
}

// runHostOp runs one batched op on the host engine and folds its
// measured per-item wall time into the family's host estimate.
func runHostOp[T any](e *autoEngine, op string, items int, run func(Engine) (T, error)) (T, error) {
	start := time.Now()
	out, err := safeOp(e.host, run)
	if err == nil {
		e.observeHost(op, time.Since(start).Seconds()/float64(items))
	}
	return out, err
}

// Singleton operations always run on the host.

func (e *autoEngine) single() Engine {
	e.mu.Lock()
	e.stats.Singletons++
	e.mu.Unlock()
	return e.host
}

func (e *autoEngine) Add(a, b *bfv.Ciphertext) (*bfv.Ciphertext, error) { return e.single().Add(a, b) }
func (e *autoEngine) Sub(a, b *bfv.Ciphertext) (*bfv.Ciphertext, error) { return e.single().Sub(a, b) }
func (e *autoEngine) Neg(a *bfv.Ciphertext) (*bfv.Ciphertext, error)    { return e.single().Neg(a) }
func (e *autoEngine) Mul(a, b *bfv.Ciphertext) (*bfv.Ciphertext, error) { return e.single().Mul(a, b) }
func (e *autoEngine) Square(a *bfv.Ciphertext) (*bfv.Ciphertext, error) { return e.single().Square(a) }

func (e *autoEngine) AddPlain(a *bfv.Ciphertext, pt *bfv.Plaintext) (*bfv.Ciphertext, error) {
	return e.single().AddPlain(a, pt)
}

func (e *autoEngine) MulPlain(a *bfv.Ciphertext, pt *bfv.Plaintext) (*bfv.Ciphertext, error) {
	return e.single().MulPlain(a, pt)
}

func (e *autoEngine) ApplyGalois(a *bfv.Ciphertext, gk *bfv.GaloisKey) (*bfv.Ciphertext, error) {
	return e.single().ApplyGalois(a, gk)
}

// Batched operations go through the scheduler.

func (e *autoEngine) Sum(cts []*bfv.Ciphertext) (*bfv.Ciphertext, error) {
	return route(e, "Sum", len(cts), func(g Engine) (*bfv.Ciphertext, error) { return g.Sum(cts) })
}

func (e *autoEngine) RotateMany(a *bfv.Ciphertext, gks []*bfv.GaloisKey) ([]*bfv.Ciphertext, error) {
	return route(e, "RotateMany", len(gks), func(g Engine) ([]*bfv.Ciphertext, error) {
		return g.RotateMany(a, gks)
	})
}

func (e *autoEngine) RotateAndSum(cts []*bfv.Ciphertext, gks []*bfv.GaloisKey) ([]*bfv.Ciphertext, error) {
	return route(e, "RotateAndSum", len(cts), func(g Engine) ([]*bfv.Ciphertext, error) {
		return g.RotateAndSum(cts, gks)
	})
}

func (e *autoEngine) MulMany(as, bs []*bfv.Ciphertext) ([]*bfv.Ciphertext, error) {
	return route(e, "MulMany", len(as), func(g Engine) ([]*bfv.Ciphertext, error) {
		return g.MulMany(as, bs)
	})
}

func (e *autoEngine) AddMany(as, bs []*bfv.Ciphertext) ([]*bfv.Ciphertext, error) {
	return route(e, "AddMany", len(as), func(g Engine) ([]*bfv.Ciphertext, error) {
		return g.AddMany(as, bs)
	})
}

// RotateManyAll (the serve front end's coalesced flush) is host-only:
// the batch pipeline behind it is a host fast path with no PIM
// counterpart, so routing it would only ever pick the host anyway.
func (e *autoEngine) RotateManyAll(cts []*bfv.Ciphertext, gks []*bfv.GaloisKey) ([][]*bfv.Ciphertext, error) {
	return e.host.(batchApplier).RotateManyAll(cts, gks)
}

// pimReport delegates to the PIM side, so Context.PIMReport/PIMStats/
// PIMBreakdown work on auto contexts.
func (e *autoEngine) pimReport() (int, float64, pim.FaultStats, *pimsched.Report) {
	return e.pimE.pimReport()
}

// AutoStats returns a copy of the decision surface.
func (e *autoEngine) AutoStats() AutoStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := e.stats
	st.Decisions = append([]AutoDecision(nil), e.stats.Decisions...)
	return st
}
