// Command hepim-bench regenerates every table and figure of the paper's
// evaluation section, and tracks the repo's own evaluation-layer
// performance (double-CRT vs schoolbook).
//
// Usage:
//
//	hepim-bench -fig all          # every paper figure (default)
//	hepim-bench -fig 1a           # one figure: 1a 1b 2a 2b 2c width tasklets transfers ablation
//	hepim-bench -fig 1b -csv      # machine-readable output
//	hepim-bench -fig dcrt         # measure host EvalMul, dcrt-native vs schoolbook (slow: runs the schoolbook)
//	hepim-bench -fig dcrt -backend dcrt-native         # restrict to one registry backend
//	hepim-bench -fig batch        # measure batched rotations (hoisted vs serial) + RNS decryption
//	hepim-bench -fig dcrt -dcrt-json BENCH_dcrt.json   # emit the tracking JSON (dcrt + batch + kernel axes)
//	hepim-bench -kernels          # CPU features + per-kernel vector dispatch, scalar vs vector ns/op
//
// Reproducible chaos runs (fault injection on the simulated PIM system):
//
//	hepim-bench -faults transient=0.1,dead=0.01,straggler=0.05
//	hepim-bench -faults dead=1 -fault-seed 11 -fault-dpus 4   # kill every DPU: exercises backend failover
//
// A chaos run drives one fixed slot-level workload on the pim backend
// under the given per-launch fault rates, checks the decrypted results
// bit-for-bit against the dcrt-native host backend, and prints the
// fault and failover statistics. The same -fault-seed always yields the
// same fault schedule.
//
// Profiling the kernel hot spots (see doc.go for the workflow):
//
//	hepim-bench -fig dcrt -backend dcrt-native -cpuprofile cpu.out
//	go tool pprof -top cpu.out            # NTT butterflies, conversions, fused accumulators
//	hepim-bench -fig batch -memprofile mem.out
//	go tool pprof -alloc_space mem.out    # steady-state allocation audit
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"repro/hebfv"
	"repro/internal/bench"
)

func main() {
	figFlag := flag.String("fig", "all", "figure to regenerate: 1a|1b|2a|2b|2c|width|tasklets|transfers|energy|ablation|dcrt|batch|pim-scale|all")
	csvFlag := flag.Bool("csv", false, "emit CSV instead of an aligned table")
	jsonFlag := flag.String("dcrt-json", "", "write the measured evaluation-layer report (EvalMul + batched-rotation + kernel axes) to this path (e.g. BENCH_dcrt.json)")
	pimJSONFlag := flag.String("pim-json", "", "with -fig pim-scale: write the DPU-sweep report to this path (e.g. BENCH_pim.json)")
	backendFlag := flag.String("backend", "",
		fmt.Sprintf("restrict -fig dcrt/batch to one hebfv backend %v; empty = the tracked set", hebfv.Backends()))
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the measured workload to this file (go tool pprof)")
	memProfile := flag.String("memprofile", "", "write a heap profile taken after the measured workload to this file")
	faultsFlag := flag.String("faults", "",
		"run a chaos workload on the pim backend with these fault rates (e.g. transient=0.1,dead=0.01,straggler=0.05)")
	faultSeed := flag.Uint64("fault-seed", 1, "seed of the deterministic fault schedule for -faults")
	faultDPUs := flag.Int("fault-dpus", 8, "number of simulated DPUs for -faults")
	kernelsFlag := flag.Bool("kernels", false,
		"print the host CPU features, the per-kernel vector dispatch, and measured scalar vs vector ns/op, then exit")
	flag.Parse()

	if *faultsFlag != "" {
		if err := chaosRun(*faultsFlag, *faultSeed, *faultDPUs, *csvFlag); err != nil {
			fmt.Fprintln(os.Stderr, "hepim-bench:", err)
			os.Exit(1)
		}
		return
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hepim-bench:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "hepim-bench:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "hepim-bench:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "hepim-bench:", err)
			}
		}()
	}

	if *kernelsFlag {
		if err := kernelsRun(*csvFlag); err != nil {
			fmt.Fprintln(os.Stderr, "hepim-bench:", err)
			os.Exit(1)
		}
		return
	}

	if *backendFlag != "" {
		known := false
		for _, name := range hebfv.Backends() {
			if name == *backendFlag {
				known = true
				break
			}
		}
		if !known {
			fmt.Fprintf(os.Stderr, "hepim-bench: unknown backend %q (have %s)\n",
				*backendFlag, strings.Join(hebfv.Backends(), ", "))
			os.Exit(1)
		}
		if *backendFlag == "pim" {
			fmt.Fprintln(os.Stderr, "hepim-bench: the pim backend runs every kernel on the functional simulator —",
				"far too slow for the n=1024/4096 measurement figures; exercise it via the examples (e.g. examples/privatemean)")
			os.Exit(1)
		}
	}

	// The pim-scale sweep runs the async execution plane for real across
	// DPU counts up to the paper machine — metered, oracle-checked, and
	// independent of the calibrated models, so it bypasses the suite.
	if *figFlag == "pim-scale" {
		fig, rep, err := bench.MeasurePIMScale(nil, 0)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hepim-bench:", err)
			os.Exit(1)
		}
		if *pimJSONFlag != "" {
			if err := bench.WritePIMScaleJSON(*pimJSONFlag, rep); err != nil {
				fmt.Fprintln(os.Stderr, "hepim-bench:", err)
				os.Exit(1)
			}
		}
		if *csvFlag {
			fmt.Print(bench.CSV(fig))
		} else {
			fmt.Print(bench.Render(fig))
		}
		return
	}

	// The dcrt and batch figures measure this process's real evaluator
	// rather than replaying the paper's models, so they bypass the suite.
	// Neither is part of -fig all: the dcrt schoolbook side alone costs
	// ~10s. The tracking JSON always carries both axes.
	if *figFlag == "dcrt" || *figFlag == "batch" || *jsonFlag != "" {
		emit := func(fig *bench.Figure) {
			if *csvFlag {
				fmt.Print(bench.CSV(fig))
			} else {
				fmt.Print(bench.Render(fig))
			}
		}
		var figs []*bench.Figure
		var rep *bench.DCRTReport
		var evalBackends []string
		if *backendFlag != "" {
			evalBackends = []string{*backendFlag}
		}
		if *figFlag == "dcrt" || *jsonFlag != "" {
			fig, r, err := bench.MeasureDCRT([]int{1024, 4096}, evalBackends)
			if err != nil {
				fmt.Fprintln(os.Stderr, "hepim-bench:", err)
				os.Exit(1)
			}
			rep = r
			if *figFlag == "dcrt" {
				figs = append(figs, fig)
			}
		}
		if *figFlag == "batch" || *jsonFlag != "" {
			fig, points, err := bench.MeasureBatch(4096, 8, *backendFlag)
			if err != nil {
				fmt.Fprintln(os.Stderr, "hepim-bench:", err)
				os.Exit(1)
			}
			if rep != nil {
				rep.Points = append(rep.Points, points...)
			}
			if *figFlag == "batch" {
				figs = append(figs, fig)
			}
		}
		if *jsonFlag != "" {
			if err := bench.WriteDCRTJSON(*jsonFlag, rep); err != nil {
				fmt.Fprintln(os.Stderr, "hepim-bench:", err)
				os.Exit(1)
			}
		}
		if *figFlag == "dcrt" || *figFlag == "batch" {
			for _, f := range figs {
				emit(f)
			}
			return
		}
	}

	suite, err := bench.NewSuite()
	if err != nil {
		fmt.Fprintln(os.Stderr, "hepim-bench:", err)
		os.Exit(1)
	}

	figs, err := collect(suite, *figFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hepim-bench:", err)
		os.Exit(1)
	}
	for i, f := range figs {
		if *csvFlag {
			fmt.Print(bench.CSV(f))
		} else {
			fmt.Print(bench.Render(f))
		}
		if i != len(figs)-1 {
			fmt.Println()
		}
	}
}

// kernelsRun measures and prints the per-kernel vector dispatch table:
// what the host CPU supports, which path each hot kernel dispatches to
// under the live HEPIM_VECTOR mode, and the measured scalar vs vector
// cost of each.
func kernelsRun(csv bool) error {
	const n = 4096
	info, err := bench.MeasureKernelDispatch(n)
	if err != nil {
		return err
	}
	if csv {
		fmt.Printf("cpu,%q\nmode,%s\nn,%d\n", info.CPU, info.Mode, info.N)
		if info.EnvNote != "" {
			fmt.Printf("note,%s\n", info.EnvNote)
		}
		fmt.Println("kernel,path,scalar_ns_per_op,vector_ns_per_op,speedup_x")
		for _, k := range info.Kernels {
			fmt.Printf("%s,%s,%d,%d,%.2f\n", k.Kernel, k.Path, k.ScalarNs, k.VectorNs, k.SpeedupX)
		}
		return nil
	}
	fmt.Printf("Kernel dispatch (n=%d)\n", info.N)
	fmt.Printf("  cpu features: %s\n", info.CPU)
	fmt.Printf("  vector mode:  %s\n", info.Mode)
	if info.EnvNote != "" {
		fmt.Printf("  note:         %s\n", info.EnvNote)
	}
	fmt.Printf("  %-20s %-8s %14s %14s %9s\n", "kernel", "path", "scalar ns/op", "vector ns/op", "speedup")
	for _, k := range info.Kernels {
		fmt.Printf("  %-20s %-8s %14d %14d %8.2fx\n", k.Kernel, k.Path, k.ScalarNs, k.VectorNs, k.SpeedupX)
	}
	return nil
}

// parseFaultRates decodes "transient=0.1,dead=0.01,straggler=0.05".
// Omitted classes default to rate 0.
func parseFaultRates(spec string) (transient, dead, straggler float64, err error) {
	for _, field := range strings.Split(spec, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(field), "=")
		if !ok {
			return 0, 0, 0, fmt.Errorf("bad fault spec %q (want class=rate)", field)
		}
		rate, perr := strconv.ParseFloat(val, 64)
		if perr != nil || rate < 0 || rate > 1 {
			return 0, 0, 0, fmt.Errorf("bad fault rate %q (want a probability in [0,1])", val)
		}
		switch name {
		case "transient":
			transient = rate
		case "dead":
			dead = rate
		case "straggler":
			straggler = rate
		default:
			return 0, 0, 0, fmt.Errorf("unknown fault class %q (have transient, dead, straggler)", name)
		}
	}
	return transient, dead, straggler, nil
}

// chaosRun drives one fixed slot workload on the pim backend under
// injected DPU faults and verifies the decrypted results bit-for-bit
// against the dcrt-native host backend. Toy parameters keep the
// functional simulator fast; the fault schedule is a pure function of
// the seed, so a failing run reproduces exactly.
func chaosRun(spec string, seed uint64, dpus int, csv bool) error {
	transient, dead, straggler, err := parseFaultRates(spec)
	if err != nil {
		return err
	}
	const workloadSeed = 42
	pimCtx, err := hebfv.New(hebfv.WithInsecureToyParameters(), hebfv.WithSeed(workloadSeed),
		hebfv.WithBackend("pim"), hebfv.WithPIMDPUs(dpus),
		hebfv.WithPIMFaultInjection(seed, transient, dead, straggler))
	if err != nil {
		return err
	}
	hostCtx, err := hebfv.New(hebfv.WithInsecureToyParameters(), hebfv.WithSeed(workloadSeed))
	if err != nil {
		return err
	}

	run := func(ctx *hebfv.Context) ([][]uint64, error) {
		a := []uint64{3, 1, 4, 1, 5, 9, 2, 6}
		b := []uint64{2, 7, 1, 8, 2, 8, 1, 8}
		ca, err := ctx.EncryptSlots(a)
		if err != nil {
			return nil, err
		}
		cb, err := ctx.EncryptSlots(b)
		if err != nil {
			return nil, err
		}
		sum, err := ctx.Add(ca, cb)
		if err != nil {
			return nil, err
		}
		prod, err := ctx.Mul(ca, cb)
		if err != nil {
			return nil, err
		}
		rot, err := ctx.RotateRows(sum, 3)
		if err != nil {
			return nil, err
		}
		inner, err := ctx.InnerSum(prod)
		if err != nil {
			return nil, err
		}
		var out [][]uint64
		for _, ct := range []*hebfv.Ciphertext{sum, prod, rot, inner} {
			slots, err := ctx.DecryptSlots(ct)
			if err != nil {
				return nil, err
			}
			out = append(out, slots)
		}
		return out, nil
	}

	got, err := run(pimCtx)
	if err != nil {
		return fmt.Errorf("chaos workload on pim backend: %w", err)
	}
	want, err := run(hostCtx)
	if err != nil {
		return fmt.Errorf("reference workload on %s: %w", hebfv.DefaultBackend, err)
	}
	mismatches := 0
	for step := range want {
		for i := range want[step] {
			if got[step][i] != want[step][i] {
				mismatches++
			}
		}
	}

	stats, _ := pimCtx.PIMStats()
	fo, _ := pimCtx.FailoverStats()
	verdict := "bit-identical"
	if mismatches != 0 {
		verdict = fmt.Sprintf("%d slot mismatches", mismatches)
	}

	rows := [][2]string{
		{"fault-seed", fmt.Sprint(seed)},
		{"dpus", fmt.Sprint(dpus)},
		{"rate-transient", fmt.Sprintf("%.3f", transient)},
		{"rate-dead", fmt.Sprintf("%.3f", dead)},
		{"rate-straggler", fmt.Sprintf("%.3f", straggler)},
		{"verdict", verdict},
		{"transient-faults", fmt.Sprint(stats.TransientFaults)},
		{"dead-dpus", fmt.Sprint(stats.DeadDPUs)},
		{"straggler-hits", fmt.Sprint(stats.StragglerHits)},
		{"retries", fmt.Sprint(stats.Retries)},
		{"redispatches", fmt.Sprint(stats.Redispatches)},
		{"failover-engaged", fmt.Sprint(fo.Engaged)},
	}
	if fo.Engaged {
		rows = append(rows,
			[2]string{"failover-fallback", fo.Fallback},
			[2]string{"failover-failed-ops", fmt.Sprint(fo.FailedOps)},
			[2]string{"failover-trigger", fo.Trigger})
	}
	if csv {
		fmt.Println("stat,value")
		for _, r := range rows {
			fmt.Printf("%s,%s\n", r[0], r[1])
		}
	} else {
		fmt.Printf("Chaos run: pim backend vs %s (4-step slot workload)\n", hebfv.DefaultBackend)
		for _, r := range rows {
			fmt.Printf("  %-20s %s\n", r[0], r[1])
		}
	}
	if mismatches != 0 {
		return fmt.Errorf("chaos run diverged: %s", verdict)
	}
	return nil
}

func collect(s *bench.Suite, which string) ([]*bench.Figure, error) {
	mk := map[string]func() (*bench.Figure, error){
		"1a":        func() (*bench.Figure, error) { return s.Fig1a(), nil },
		"1b":        func() (*bench.Figure, error) { return s.Fig1b(), nil },
		"2a":        func() (*bench.Figure, error) { return s.Fig2a(), nil },
		"2b":        func() (*bench.Figure, error) { return s.Fig2b(), nil },
		"2c":        func() (*bench.Figure, error) { return s.Fig2c(), nil },
		"width":     func() (*bench.Figure, error) { return s.WidthSweep(), nil },
		"tasklets":  s.TaskletSweep,
		"transfers": func() (*bench.Figure, error) { return s.Transfers(), nil },
		"energy":    s.Energy,
		"ablation":  s.Ablations,
	}
	if which == "all" {
		var out []*bench.Figure
		for _, id := range []string{"1a", "1b", "2a", "2b", "2c", "width", "tasklets", "transfers", "energy", "ablation"} {
			f, err := mk[id]()
			if err != nil {
				return nil, err
			}
			out = append(out, f)
		}
		return out, nil
	}
	f, ok := mk[which]
	if !ok {
		return nil, fmt.Errorf("unknown figure %q", which)
	}
	fig, err := f()
	if err != nil {
		return nil, err
	}
	return []*bench.Figure{fig}, nil
}
