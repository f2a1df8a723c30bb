package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeTemp(t *testing.T, name, content string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestParseBenchTakesMinAcrossCounts(t *testing.T) {
	p := writeTemp(t, "bench.txt", `
goos: linux
BenchmarkEvalMulDepth1/path=rns-8   	       1	   4991741 ns/op
BenchmarkEvalMulDepth1/path=rns-8   	       1	   4700123 ns/op
BenchmarkEvalMulDepth1/path=rns-8   	       1	   5100000 ns/op
BenchmarkRotateHoisted     	       2	  13464356 ns/op	 1024 B/op
PASS
`)
	got, err := parseBench(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2", len(got))
	}
	if got["BenchmarkEvalMulDepth1/path=rns"] != 4700123 {
		t.Errorf("min ns/op = %v, want 4700123", got["BenchmarkEvalMulDepth1/path=rns"])
	}
	if got["BenchmarkRotateHoisted"] != 13464356 {
		t.Errorf("rotate = %v", got["BenchmarkRotateHoisted"])
	}
}

func TestRegressionsSortedWorstFirst(t *testing.T) {
	base := map[string]float64{"BenchmarkA": 100, "BenchmarkB": 100, "BenchmarkC": 100, "BenchmarkD": 100}
	cur := map[string]float64{"BenchmarkA": 150, "BenchmarkB": 300, "BenchmarkC": 110} // D not measured
	got := regressions(base, cur, []string{"BenchmarkA", "BenchmarkB", "BenchmarkC", "BenchmarkD"}, 1.25)
	if len(got) != 2 {
		t.Fatalf("got %d regressions, want 2 (A and B)", len(got))
	}
	if got[0].name != "BenchmarkB" || got[1].name != "BenchmarkA" {
		t.Errorf("order = %s, %s; want worst-first BenchmarkB, BenchmarkA", got[0].name, got[1].name)
	}
}

func TestSummarizeShowsOldNewPercent(t *testing.T) {
	out := summarize([]regression{{name: "BenchmarkEvalMul", old: 1e6, new: 1.5e6}})
	for _, want := range []string{"Regressed rows:", "BenchmarkEvalMul", "1.000ms -> 1.500ms", "+50.0%"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}

func TestParseBenchIgnoresNoise(t *testing.T) {
	p := writeTemp(t, "noise.txt", `
ok  	repro/internal/bfv	1.358s
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
Benchmark without numbers
`)
	got, err := parseBench(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("parsed %d benchmarks from noise, want 0", len(got))
	}
}

func TestBenchGateFailsOnUnmeasuredBaselineRow(t *testing.T) {
	base := writeTemp(t, "base.txt", `
BenchmarkA   	       1	   1000000 ns/op
BenchmarkB   	       1	   1000000 ns/op
`)
	if code := benchGate(base, writeTemp(t, "same.txt", `
BenchmarkA   	       1	   1000000 ns/op
BenchmarkB   	       1	   1000000 ns/op
BenchmarkNew 	       1	   5000000 ns/op
`), 1.25); code != 0 {
		t.Errorf("every baseline row measured: exit %d, want 0 (a new benchmark never fails)", code)
	}
	if code := benchGate(base, writeTemp(t, "renamed.txt", `
BenchmarkA        	       1	   1000000 ns/op
BenchmarkRenamedB 	       1	   1000000 ns/op
`), 1.25); code != 1 {
		t.Errorf("baseline row BenchmarkB not measured: exit %d, want 1", code)
	}
	if code := benchGate(base, writeTemp(t, "slow.txt", `
BenchmarkA   	       1	   2000000 ns/op
BenchmarkB   	       1	   1000000 ns/op
`), 1.25); code != 1 {
		t.Errorf("2x regression: exit %d, want 1", code)
	}
	if code := benchGate("does-not-exist.txt", base, 1.25); code != 2 {
		t.Errorf("missing baseline: exit %d, want 2", code)
	}
}
