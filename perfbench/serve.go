package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/hebfv"
	"repro/hebfv/serve"
)

// serve-mix shape. The rate sits well below the ~135 ops/s one
// connection sustains on a 2-core host, so requests queue behind a slow
// one without the backlog growing.
const (
	serveTenants = 4  // onboarded key sets
	servePairs   = 4  // encrypted operand pairs per tenant
	serveRate    = 60 // offered requests per second, add:mul:rotate 1:1:1
	reqHeader    = "X-Perfbench-Request"
)

var opNames = [3]string{"add", "mul", "rotate"}

// serveConns is the client's connection count. With one connection the
// server handles one request at a time, so the process's CPU time
// between a request's send and its last response byte is that
// request's cost; the open-loop schedule still queues requests that
// fall due while the connection is busy.
const serveConns = 1

// serverOptions are hebfvd's defaults: sec109, dcrt-native, 2 ms
// window, batches of 32, quotas 4/64, 32 MiB pool, 256 MiB key cache.
func serverOptions() serve.Options {
	return serve.Options{
		ContextOptions: []hebfv.Option{
			hebfv.WithSecurityLevel(109),
			hebfv.WithBackend("dcrt-native"),
			hebfv.WithPoolRetention(32 << 20),
		},
		MaxCacheBytes:  256 << 20,
		Window:         2 * time.Millisecond,
		MaxBatch:       32,
		TenantInflight: 4,
		TotalInflight:  64,
	}
}

type tenant struct {
	id   [32]byte
	blob [servePairs][2][]byte // operand wire bytes
	body [3][servePairs][]byte // request body per op and pair
	want [3][servePairs][]byte // expected response per op and pair
}

type serveEnv struct {
	srv     *serve.Server
	hs      *http.Server
	served  chan error
	traced  *tracedHandler // nil on an untraced run
	client  *http.Client
	base    string
	tenants []*tenant
}

// setupServe starts the server on a loopback listener, onboards the
// tenants, encrypts their operands, evaluates the expected responses
// locally and warms every (tenant, op) pair up through HTTP.
func setupServe(cfg config, rep *report) (*serveEnv, error) {
	srv := serve.NewServer(serverOptions())
	var h http.Handler = srv.Handler()
	e := &serveEnv{srv: srv, served: make(chan error, 1)}
	if cfg.trace {
		e.traced = &tracedHandler{next: h, spans: map[int]*serverSpan{}}
		h = e.traced
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e.hs = &http.Server{Handler: h}
	go func() { e.served <- e.hs.Serve(ln) }()
	e.base = "http://" + ln.Addr().String()
	e.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     serveConns,
		MaxIdleConnsPerHost: serveConns,
		DisableCompression:  true,
	}}

	rng := rand.New(rand.NewSource(int64(cfg.seed)))
	for ti := 0; ti < serveTenants; ti++ {
		t, err := newTenant(e, cfg.seed<<8|uint64(ti), rng)
		if err != nil {
			e.close()
			return nil, fmt.Errorf("tenant %d: %w", ti, err)
		}
		e.tenants = append(e.tenants, t)
	}
	if cfg.forceMismatch {
		w := e.tenants[0].want[0][0]
		w[len(w)-1] ^= 1
	}
	for _, t := range e.tenants {
		for op := range opNames {
			err := e.do(t, op, 0, -1)
			rep.check(err == nil, "warm-up %s: %v", opNames[op], err)
		}
	}
	return e, nil
}

func newTenant(e *serveEnv, seed uint64, rng *rand.Rand) (*tenant, error) {
	ctx, err := hebfv.New(hebfv.WithSecurityLevel(109), hebfv.WithRotations(1), hebfv.WithSeed(seed))
	if err != nil {
		return nil, err
	}
	defer ctx.Close()
	t := &tenant{id: ctx.KeySetHash()}
	var keys bytes.Buffer
	if err := ctx.ExportKeysTo(&keys, false); err != nil {
		return nil, err
	}
	resp, err := e.client.Post(fmt.Sprintf("%s/v1/keysets?sha256=%x", e.base, t.id[:]), "application/octet-stream", &keys)
	if err != nil {
		return nil, err
	}
	msg, _ := io.ReadAll(resp.Body) // only shown on failure
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("onboarding: HTTP %d: %s", resp.StatusCode, msg)
	}
	for p := 0; p < servePairs; p++ {
		var cts [2]*hebfv.Ciphertext
		for k := range cts {
			if cts[k], err = ctx.EncryptSlots(randomSlots(rng, ctx.Slots(), ctx.PlaintextModulus())); err != nil {
				return nil, err
			}
			if t.blob[p][k], err = cts[k].MarshalBinary(); err != nil {
				return nil, err
			}
		}
		t.body[0][p] = append(append([]byte{}, t.blob[p][0]...), t.blob[p][1]...)
		t.body[1][p] = t.body[0][p]
		t.body[2][p] = t.blob[p][0]
		for op, eval := range [3]func() (*hebfv.Ciphertext, error){
			func() (*hebfv.Ciphertext, error) { return ctx.Add(cts[0], cts[1]) },
			func() (*hebfv.Ciphertext, error) { return ctx.Mul(cts[0], cts[1]) },
			func() (*hebfv.Ciphertext, error) { return ctx.RotateRows(cts[0], 1) },
		} {
			out, err := eval()
			if err != nil {
				return nil, err
			}
			if t.want[op][p], err = out.MarshalBinary(); err != nil {
				return nil, err
			}
		}
	}
	return t, nil
}

func (e *serveEnv) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	e.hs.Shutdown(ctx) // a straggler is cut off by the timeout; nothing to report
	<-e.served
	e.client.CloseIdleConnections()
}

var errMismatch = errors.New("response bytes differ from the local evaluation")

// chunks are the client's response read buffers.
var chunks = sync.Pool{New: func() any { b := make([]byte, 32<<10); return &b }}

// do sends one request and checks the response byte for byte. A
// non-negative id tags the request for the traced handler.
func (e *serveEnv) do(t *tenant, op, pair, id int) error {
	url := fmt.Sprintf("%s/v1/eval/%s?keyset=%x", e.base, opNames[op], t.id[:])
	if op == 2 {
		url += "&k=1"
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(t.body[op][pair]))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	if id >= 0 {
		req.Header.Set(reqHeader, strconv.Itoa(id))
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 200))
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, msg)
	}
	return readEqual(resp.Body, t.want[op][pair])
}

// readEqual reads r to its end and reports errMismatch unless the bytes
// equal want.
func readEqual(r io.Reader, want []byte) error {
	bp := chunks.Get().(*[]byte)
	defer chunks.Put(bp)
	buf := *bp
	off := 0
	for {
		n, err := r.Read(buf)
		if n > 0 {
			if off+n > len(want) || !bytes.Equal(buf[:n], want[off:off+n]) {
				return errMismatch
			}
			off += n
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
	}
	if off != len(want) {
		return errMismatch
	}
	return nil
}

// planned is one scheduled request.
type planned struct{ tenant, op, pair int }

// plan draws n requests from seed: ops 1:1:1 in shuffled order, tenant
// and operand pair uniform.
func plan(seed uint64, n int) []planned {
	rng := rand.New(rand.NewSource(int64(seed) + 7))
	out := make([]planned, n)
	for i := range out {
		out[i] = planned{rng.Intn(serveTenants), i % 3, rng.Intn(servePairs)}
	}
	rng.Shuffle(n, func(i, j int) { out[i].op, out[j].op = out[j].op, out[i].op })
	return out
}

// serveWindow runs one measured open-loop window and returns each op's
// CPU time and latency from due time, and the raw send records.
func (e *serveEnv) serveWindow(cfg config, rep *report, tagged bool) (cpu, wall *jobTimes, res []sent, reqs []planned) {
	n := serveRate * cfg.seconds
	reqs = plan(cfg.seed, n)
	interval := time.Second / serveRate
	start := time.Now().Add(10 * time.Millisecond)
	cpus := make([]time.Duration, n)
	res = openLoop(start, n, interval, serveConns, func(i int) error {
		id := -1
		if tagged {
			id = i
		}
		r := reqs[i]
		c0 := cpuTime()
		err := e.do(e.tenants[r.tenant], r.op, r.pair, id)
		cpus[i] = cpuTime() - c0
		return err
	})
	cpu = &jobTimes{workload: "serve-mix", measure: "CPU time per op"}
	wall = &jobTimes{workload: "serve-mix", measure: "latency from due time"}
	for i, s := range res {
		rep.check(s.err == nil, "request %d (%s): %v", i, opNames[reqs[i].op], s.err)
		if s.err == nil {
			op := reqs[i].op
			cpu.ms[op] = append(cpu.ms[op], ms(cpus[i]))
			wall.ms[op] = append(wall.ms[op], ms(s.latency()))
		}
	}
	return cpu, wall, res, reqs
}

func runServeMix(cfg config) (*report, error) {
	rep := newReport()
	e, err := timedSetup(rep, cfg, func() (*serveEnv, error) { return setupServe(cfg, rep) }, (*serveEnv).close)
	if err != nil {
		return nil, err
	}
	defer e.close()

	// A client can read the last response byte before its handler has
	// returned; the handler releases its handles before its admission
	// slot, so the pool balance is read once no evaluation is in flight.
	poolInUse := func() {
		for i := 0; i < 1000 && e.srv.Stats().Inflight > 0; i++ {
			time.Sleep(time.Millisecond)
		}
		in := e.srv.Stats().Pool.InUse
		rep.check(in == 0, "pool: %d backings still in use after the window", in)
	}
	cpu, wall, _, _ := e.serveWindow(cfg, rep, false)
	poolInUse()
	cpu.addTo(rep.e2e, "")
	wall.addTo(rep.info, "wall.")
	rep.e2e["live_heap_mb"] = liveHeap()
	if !cfg.trace {
		return rep, nil
	}

	before := e.srv.Stats()
	mem := startMem()
	e.traced.on.Store(true)
	cpu, _, res, reqs := e.serveWindow(cfg, rep, true)
	e.traced.on.Store(false)
	mem.finish(rep.layer, len(res))
	poolInUse()
	after := e.srv.Stats()
	rep.addTraced(cpu)
	serveLedger(rep, e.traced, res, reqs)
	serverCounters(rep, before, after)

	t := e.tenants[0]
	ctx, unpin, err := e.srv.Cache().Acquire(t.id)
	if err != nil {
		return nil, err
	}
	defer unpin()
	a, err := ctx.UnmarshalCiphertext(t.blob[0][0])
	if err != nil {
		return nil, err
	}
	b, err := ctx.UnmarshalCiphertext(t.blob[0][1])
	if err != nil {
		return nil, err
	}
	want := map[string][]byte{"add": t.want[0][0], "mul": t.want[1][0], "rotate": t.want[2][0]}
	if err := facadeProbe(rep, ctx, a, b, t.blob[0][0], want); err != nil {
		return nil, err
	}
	a.Release()
	b.Release()
	completeLayers(rep)
	return rep, nil
}

// serverCounters reports the serving plane's counters over the traced
// window.
func serverCounters(rep *report, before, after serve.ServerStats) {
	l := rep.layer
	ops := after.Coalescer.Ops - before.Coalescer.Ops
	batches := after.Coalescer.Batches - before.Coalescer.Batches
	l["coalescer.ops"] = metric{float64(ops), "count", 1, ""}
	l["coalescer.batches"] = metric{float64(batches), "count", 1, ""}
	if batches > 0 {
		l["coalescer.batch_mean"] = metric{float64(ops) / float64(batches), "ops", int(batches), "ops per flushed batch"}
	}
	l["serve.rejections"] = metric{float64(after.Rejections - before.Rejections), "count", 1, "429s + 503s"}
	l["cache.hits"] = metric{float64(after.Cache.Hits - before.Cache.Hits), "count", 1, ""}
	l["cache.misses"] = metric{float64(after.Cache.Misses - before.Cache.Misses), "count", 1, ""}
	l["cache.evictions"] = metric{float64(after.Cache.Evictions - before.Cache.Evictions), "count", 1, ""}
	gets := after.Pool.Gets - before.Pool.Gets
	if gets > 0 {
		l["polypool.hit_rate"] = metric{float64(after.Pool.Hits-before.Pool.Hits) / float64(gets), "ratio", int(gets), "recycled / handed-out backings"}
	}
	l["polypool.in_use_end"] = metric{float64(after.Pool.InUse), "count", 1, "must be 0"}
}

// serveLedger splits each traced request into stages, reports each
// stage's median as a layer metric, and reconciles the p50 cohort's
// stage means against the client p50.
func serveLedger(rep *report, th *tracedHandler, res []sent, reqs []planned) {
	const (
		dueWait = iota
		late
		outside
		bodyRead
		firstWrite
		write
		nStages
	)
	names := [nStages]string{"gen.due_wait_ms", "gen.late_ms", "serve.outside_ms", "serve.body_read_ms", "serve.first_write_ms", "serve.write_ms"}
	stages := make([][]float64, nStages)
	var total []float64
	var handler [3][]float64
	th.mu.Lock()
	defer th.mu.Unlock()
	for i, s := range res {
		sp, ok := th.spans[i]
		if s.err != nil || !ok || sp.firstWrite.IsZero() {
			continue
		}
		hd := sp.end.Sub(sp.start)
		pre := interval{sp.start, sp.firstWrite}
		self := selfTime(pre, sp.reads)
		row := [nStages]float64{
			ms(s.dueWait()), ms(s.late()), ms(s.done.Sub(s.sent) - hd),
			ms(pre.dur() - self), ms(self), ms(sp.end.Sub(sp.firstWrite)),
		}
		for j := range row {
			stages[j] = append(stages[j], row[j])
		}
		total = append(total, ms(s.latency()))
		handler[reqs[i].op] = append(handler[reqs[i].op], ms(hd))
	}
	if len(total) < len(res)/2 {
		rep.fail("ledger: only %d of %d requests have a server span", len(total), len(res))
		return
	}
	for op, xs := range handler {
		rep.layer["serve.handler_ms."+opNames[op]] = metric{median(xs), "ms", len(xs), "handler span, median"}
	}
	for j, name := range names {
		v, note := median(stages[j]), "median per request"
		if j == dueWait || j == late {
			v, note = mean(stages[j]), "mean per request (generator validity)"
		}
		rep.layer[name] = metric{v, "ms", len(stages[j]), note}
	}
	means, n, err := cohortMeans(total, stages, 40, 60)
	if err != nil {
		rep.fail("%v", err)
		return
	}
	rows := make([]ledgerRow, nStages)
	for j := range rows {
		rows[j] = ledgerRow{names[j], means[j]}
		rep.info["ledger.row."+names[j]] = metric{means[j], "ms", n, "p40–p60 cohort mean"}
	}
	l := reconcile(rows, median(total), ledgerTolerance)
	rep.layer["ledger.client_p50_ms"] = metric{l.clientP50, "ms", len(total), "traced requests, from due time"}
	rep.layer["ledger.rows_sum_ms"] = metric{l.sum, "ms", n, "Σ stage means over the p40–p60 cohort"}
	rep.layer["ledger.remainder_ms"] = metric{l.remainder, "ms", n, "client p50 − Σ rows"}
	ok := 0.0
	if l.ok {
		ok = 1
	}
	rep.layer["ledger.reconciled"] = metric{ok, "bool", 1, fmt.Sprintf("|remainder| ≤ %g × client p50", ledgerTolerance)}
	rep.check(l.ok, "ledger: rows sum to %.3f ms, client p50 %.3f ms (tolerance %g)", l.sum, l.clientP50, ledgerTolerance)
}

// serverSpan is one traced request as the handler saw it.
type serverSpan struct {
	start, firstWrite, end time.Time
	reads                  []interval
}

// tracedHandler wraps the server's handler, its request body and its
// ResponseWriter, and records one serverSpan per tagged request while
// on is set.
type tracedHandler struct {
	next http.Handler
	on   atomic.Bool

	mu    sync.Mutex
	spans map[int]*serverSpan
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.on.Load() {
		h.next.ServeHTTP(w, r)
		return
	}
	id, err := strconv.Atoi(r.Header.Get(reqHeader))
	if err != nil {
		h.next.ServeHTTP(w, r)
		return
	}
	sp := &serverSpan{start: time.Now()}
	r.Body = &timedBody{ReadCloser: r.Body, sp: sp}
	h.next.ServeHTTP(&timedWriter{ResponseWriter: w, sp: sp}, r)
	sp.end = time.Now()
	h.mu.Lock()
	h.spans[id] = sp
	h.mu.Unlock()
}

type timedBody struct {
	io.ReadCloser
	sp *serverSpan
}

func (b *timedBody) Read(p []byte) (int, error) {
	t0 := time.Now()
	n, err := b.ReadCloser.Read(p)
	b.sp.reads = append(b.sp.reads, interval{t0, time.Now()})
	return n, err
}

type timedWriter struct {
	http.ResponseWriter
	sp *serverSpan
}

func (w *timedWriter) mark() {
	if w.sp.firstWrite.IsZero() {
		w.sp.firstWrite = time.Now()
	}
}

func (w *timedWriter) WriteHeader(code int) {
	w.mark()
	w.ResponseWriter.WriteHeader(code)
}

func (w *timedWriter) Write(p []byte) (int, error) {
	w.mark()
	return w.ResponseWriter.Write(p)
}
