// Command perfbench is the repository's benchmark: one workload per
// run, at hebfvd's served parameters (sec109: n=4096, one 109-bit q),
// every output checked, and one JSON result line last on stdout.
//
//	perfbench --workload serve-mix --seed 1 --seconds 25 --trace 0
//
// See README.md for the workloads, the metrics and the traced run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// metric is one reported number. n is the count of samples behind it,
// printed in the table; note says what the value is where the name
// alone does not.
type metric struct {
	value float64
	unit  string
	n     int
	note  string
}

// report collects one run's results.
type report struct {
	attempted, failed int
	violations        []string // first few correctness failures, for stderr

	e2e   map[string]metric // reported with --trace 0
	layer map[string]metric // reported with --trace 1
	info  map[string]metric // printed in the table only
}

func newReport() *report {
	return &report{e2e: map[string]metric{}, layer: map[string]metric{}, info: map[string]metric{}}
}

// check counts one checked output, and a failure when ok is false.
func (r *report) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.fail(format, args...)
	}
}

// fail counts a failure without a matching attempt (an invariant).
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.violations) < 20 {
		r.violations = append(r.violations, fmt.Sprintf(format, args...))
	}
}

// endToEnd lists the metrics every workload reports with --trace 0, in
// BENCHMARK.json's order. kind1..kind3 are the workload's three job
// kinds (see workloads).
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"all_p50_ms", "ms"},
	{"all_tail_ms", "ms"},
	{"kind1_p50_ms", "ms"},
	{"kind2_p50_ms", "ms"},
	{"kind3_p50_ms", "ms"},
	{"live_heap_mb", "MiB"},
}

// workloads maps each workload to the jobs its kind1..kind3 time and
// the percentile it reports as all_tail_ms. The percentile is fixed per
// workload, so that a faster build, which fits more jobs into the
// window, still reports the same one; each leaves at least minBeyond
// samples beyond it at the window's sample count on a 2-core host.
var workloads = map[string]struct {
	kinds [3]string
	tailP float64
}{
	"serve-mix":  {[3]string{"add", "mul", "rotate"}, 95},
	"stats-host": {[3]string{"mean", "variance", "linreg"}, 90},
	"pim-stats":  {[3]string{"vecadd", "mean", "mean_half"}, 75},
}

// config is one run's command line.
type config struct {
	workload      string
	seed          uint64
	seconds       int
	trace         bool
	forceMismatch bool
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "serve-mix | stats-host | pim-stats")
	flag.Uint64Var(&cfg.seed, "seed", 1, "input seed: keys, plaintexts and the request schedule")
	flag.IntVar(&cfg.seconds, "seconds", 25, "measured window in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.BoolVar(&cfg.forceMismatch, "force-mismatch", false, "corrupt one expected output, to show that the checks fail the run")
	flag.Parse()
	cfg.trace = trace == 1
	if _, ok := workloads[cfg.workload]; !ok || cfg.seconds < 1 || trace < 0 || trace > 1 || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", cfg.workload, cfg.seconds, trace)
		flag.Usage()
		os.Exit(2)
	}

	var rep *report
	var err error
	switch cfg.workload {
	case "serve-mix":
		rep, err = runServeMix(cfg)
	case "stats-host":
		rep, err = runStatsHost(cfg)
	case "pim-stats":
		rep, err = runPIMStats(cfg)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(2)
	}
	os.Exit(emit(cfg, rep))
}

// emit prints the table and the result line and returns the exit code:
// 0 when every output checked out, 1 otherwise.
func emit(cfg config, rep *report) int {
	metrics := rep.e2e
	if cfg.trace {
		metrics = rep.layer
	}
	correct := rep.failed == 0 && rep.attempted > 0
	for name, m := range metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			correct = false
			rep.violations = append(rep.violations, fmt.Sprintf("metric %s is not finite", name))
			m.value = -1
			metrics[name] = m
		}
	}

	fmt.Printf("# perfbench %s seed=%d seconds=%d trace=%v go=%s gomaxprocs=%d\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, runtime.Version(), runtime.GOMAXPROCS(0))
	fmt.Printf("%-32s %14s %-8s %7s  %s\n", "metric", "value", "unit", "n", "note")
	printTable := func(ms map[string]metric) {
		names := make([]string, 0, len(ms))
		for name := range ms {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			m := ms[name]
			fmt.Printf("%-32s %14.6g %-8s %7d  %s\n", name, m.value, m.unit, m.n, m.note)
		}
	}
	printTable(metrics)
	printTable(rep.info)
	frac := 0.0
	if rep.attempted > 0 {
		frac = float64(rep.failed) / float64(rep.attempted)
	}
	fmt.Printf("%-32s %14.6g %-8s %7d  %s\n", "failed_frac", frac, "ratio", rep.attempted, "failed / attempted checks")
	for _, v := range rep.violations {
		fmt.Fprintf(os.Stderr, "perfbench: FAILED: %s\n", v)
	}

	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{correct, rep.attempted, rep.failed, map[string]jsonMetric{}}
	for name, m := range metrics {
		out.Metrics[name] = jsonMetric{m.value, m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		return 2
	}
	fmt.Println(string(line))
	if !correct {
		return 1
	}
	return 0
}

// cpuTime returns the process's CPU time so far, user plus system. The
// kernel leaves out of it the time the hypervisor stole from the VM,
// which on a shared host varies between runs far more than any bound a
// regression gate can use; see README.md.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // fails only on a bad argument
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// timedSetup runs setup setupReps times (once on a traced run, which
// does not report setup_s) and returns the last result with the median
// CPU time as setup_s and the median wall time in the table; earlier
// results are closed. Repeating set-up makes setup_s a median, not one
// sample.
func timedSetup[T any](rep *report, cfg config, setup func() (T, error), closeFn func(T)) (T, error) {
	reps := setupReps
	if cfg.trace {
		reps = 1
	}
	var last T
	var cpu, wall []float64
	for i := 0; i < reps; i++ {
		if i > 0 {
			closeFn(last)
		}
		t0, c0 := time.Now(), cpuTime()
		v, err := setup()
		if err != nil {
			return last, err
		}
		cpu = append(cpu, (cpuTime() - c0).Seconds())
		wall = append(wall, time.Since(t0).Seconds())
		last = v
	}
	rep.e2e["setup_s"] = metric{median(cpu), "s", len(cpu), "CPU time, median of set-ups: keys, inputs, onboarding, warm-up"}
	rep.info["wall.setup_s"] = metric{median(wall), "s", len(wall), "wall time, median of set-ups"}
	return last, nil
}

// setupReps is how many times a --trace 0 run sets up. The first set-up
// of a process also builds process-wide tables; the median of five
// reports the repeatable cost.
const setupReps = 5

// jobTimes are one measured window's times per job kind, in ms.
type jobTimes struct {
	workload string
	measure  string // what one sample times, for the table
	ms       [3][]float64
}

// addTo fills the timing metrics of the end-to-end set, each name
// prefixed with prefix, into dst.
func (k *jobTimes) addTo(dst map[string]metric, prefix string) {
	spec := workloads[k.workload]
	var all []float64
	for i, xs := range k.ms {
		all = append(all, xs...)
		dst[fmt.Sprintf("%skind%d_p50_ms", prefix, i+1)] = metric{median(xs), "ms", len(xs), fmt.Sprintf("%s: %s, median", spec.kinds[i], k.measure)}
	}
	dst[prefix+"all_p50_ms"] = metric{median(all), "ms", len(all), fmt.Sprintf("all: %s, median", k.measure)}
	b := beyond(spec.tailP, len(all))
	note := fmt.Sprintf("all: %s, p%g, %d samples beyond", k.measure, spec.tailP, b)
	if b < minBeyond {
		note += fmt.Sprintf(": FEWER THAN %d, the tail is not resolved", minBeyond)
		fmt.Fprintf(os.Stderr, "perfbench: warning: %sall_tail_ms has %d samples beyond p%g\n", prefix, b, spec.tailP)
	}
	dst[prefix+"all_tail_ms"] = metric{percentile(all, spec.tailP), "ms", len(all), note}
}

// memWindow diffs the runtime's allocation and GC counters over a
// measured window.
type memWindow struct{ before runtime.MemStats }

func startMem() *memWindow {
	w := &memWindow{}
	runtime.ReadMemStats(&w.before)
	return w
}

// finish reports alloc_kb_per_op, gc.count and gc.pause_p99_us for ops
// operations into ms.
func (w *memWindow) finish(ms map[string]metric, ops int) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	if ops < 1 {
		ops = 1
	}
	ms["alloc_kb_per_op"] = metric{float64(after.TotalAlloc-w.before.TotalAlloc) / 1024 / float64(ops), "KiB", ops, "process-wide"}
	ngc := after.NumGC - w.before.NumGC
	ms["gc.count"] = metric{float64(ngc), "count", 1, ""}
	k := int(ngc)
	if k > len(after.PauseNs) {
		k = len(after.PauseNs)
	}
	var pauses []float64
	for i := after.NumGC - uint32(k); i < after.NumGC; i++ {
		pauses = append(pauses, float64(after.PauseNs[i%uint32(len(after.PauseNs))])/1e3)
	}
	p99 := 0.0
	if len(pauses) > 0 {
		p99 = percentile(pauses, 99)
	}
	ms["gc.pause_p99_us"] = metric{p99, "us", len(pauses), ""}
}

// liveHeap reports HeapAlloc after a forced collection, in MiB.
func liveHeap() metric {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return metric{float64(m.HeapAlloc) / (1 << 20), "MiB", 1, "HeapAlloc after runtime.GC at window end"}
}

// addTraced fills the traced window's latency metrics into the table
// as traced.<name>, and reports their difference to the untraced
// window's, held in r.e2e, as trace.overhead.<name>.
func (r *report) addTraced(k *jobTimes) {
	traced := map[string]metric{}
	k.addTo(traced, "")
	for name, t := range traced {
		r.info["traced."+name] = t
		r.layer["trace.overhead."+name] = metric{t.value - r.e2e[name].value, "ms", t.n, "traced − untraced"}
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }
