package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const benchOutput = `goos: linux
goarch: amd64
pkg: kernelgpt/internal/fuzz
cpu: Intel(R) Xeon(R) CPU @ 2.10GHz
BenchmarkCampaign-8             	       1	  51000000 ns/op	 9000000 B/op	  120000 allocs/op
BenchmarkCampaign-8             	       1	  50000000 ns/op	 8900000 B/op	  119000 allocs/op
BenchmarkCampaign-8             	       1	  52000000 ns/op	 9100000 B/op	  121000 allocs/op
BenchmarkRunParallel-8          	       1	 210000000 ns/op	35000000 B/op	  480000 allocs/op
PASS
ok  	kernelgpt/internal/fuzz	1.234s
pkg: kernelgpt/internal/vkernel
BenchmarkVMRun-8                	       1	      6800 ns/op	     120 B/op	       3 allocs/op
PASS
`

func TestParseBenchOutputMedians(t *testing.T) {
	obs, err := ParseBenchOutput(strings.NewReader(benchOutput))
	if err != nil {
		t.Fatal(err)
	}
	camp, ok := obs["kernelgpt/internal/fuzz.BenchmarkCampaign"]
	if !ok {
		t.Fatalf("campaign benchmark not parsed: %v", obs)
	}
	if camp.NsPerOp != 51000000 {
		t.Fatalf("median ns/op = %v, want middle sample 51000000", camp.NsPerOp)
	}
	if !camp.HasAllocs || camp.AllocsPerOp != 120000 {
		t.Fatalf("median allocs/op = %v", camp.AllocsPerOp)
	}
	if _, ok := obs["kernelgpt/internal/vkernel.BenchmarkVMRun"]; !ok {
		t.Fatalf("per-package keying failed: %v", obs)
	}
	if len(obs) != 3 {
		t.Fatalf("want 3 benchmarks, got %d", len(obs))
	}
}

func gateFor(ns, allocs float64) *Gate {
	return &Gate{
		Tolerance: 0.15,
		Benchmarks: map[string]GateEntry{
			"kernelgpt/internal/fuzz.BenchmarkCampaign": {NsPerOp: ns, AllocsPerOp: allocs},
		},
	}
}

// TestGateFailsOnInjectedRegression is the acceptance check: a ≥15%
// regression in either gated metric must fail the build.
func TestGateFailsOnInjectedRegression(t *testing.T) {
	observed := map[string]Sample{
		"kernelgpt/internal/fuzz.BenchmarkCampaign": {NsPerOp: 120, AllocsPerOp: 100, HasAllocs: true},
	}
	// 20% ns/op regression against a baseline of 100.
	results := Compare(gateFor(100, 100), observed, 0.15)
	if len(results) != 1 || !results[0].Failed() {
		t.Fatalf("20%% ns/op regression passed the gate: %+v", results)
	}
	// Exactly at the boundary (15%) passes; just beyond fails.
	observed["kernelgpt/internal/fuzz.BenchmarkCampaign"] = Sample{NsPerOp: 115, AllocsPerOp: 100, HasAllocs: true}
	if results = Compare(gateFor(100, 100), observed, 0.15); results[0].Failed() {
		t.Fatalf("15%% regression should be within tolerance: %+v", results)
	}
	observed["kernelgpt/internal/fuzz.BenchmarkCampaign"] = Sample{NsPerOp: 100, AllocsPerOp: 116, HasAllocs: true}
	if results = Compare(gateFor(100, 100), observed, 0.15); !results[0].Failed() {
		t.Fatalf("16%% allocs/op regression passed the gate: %+v", results)
	}
	if results[0].Metric != "allocs/op" {
		t.Fatalf("worse metric not reported: %+v", results[0])
	}
}

func TestGatePassesWithinTolerance(t *testing.T) {
	observed := map[string]Sample{
		"kernelgpt/internal/fuzz.BenchmarkCampaign": {NsPerOp: 108, AllocsPerOp: 95, HasAllocs: true},
	}
	results := Compare(gateFor(100, 100), observed, 0.15)
	for _, r := range results {
		if r.Failed() {
			t.Fatalf("in-tolerance run failed: %+v", r)
		}
	}
	// Improvements pass too.
	observed["kernelgpt/internal/fuzz.BenchmarkCampaign"] = Sample{NsPerOp: 60, AllocsPerOp: 50, HasAllocs: true}
	for _, r := range Compare(gateFor(100, 100), observed, 0.15) {
		if r.Failed() {
			t.Fatalf("improvement failed the gate: %+v", r)
		}
	}
}

func TestGateReportsMissingEntries(t *testing.T) {
	observed := map[string]Sample{
		"kernelgpt/internal/fuzz.BenchmarkNew": {NsPerOp: 10},
	}
	results := Compare(gateFor(100, 100), observed, 0.15)
	var sawSkip, sawMiss bool
	for _, r := range results {
		if r.MissingBase {
			sawSkip = true
			if r.Failed() {
				t.Fatalf("ungated benchmark must not fail the gate: %+v", r)
			}
		}
		if r.MissingBench {
			sawMiss = true
			// A baseline benchmark that stopped being measured is a
			// gate failure — a green gate over dead benchmarks hides
			// regressions entirely.
			if !r.Failed() {
				t.Fatalf("unmeasured baseline benchmark passed the gate: %+v", r)
			}
		}
	}
	if !sawSkip || !sawMiss {
		t.Fatalf("missing-entry reporting broken: %+v", results)
	}
}

// TestNewBenchmarksAreInformational pins the add-a-benchmark
// workflow: a benchmark present in the run but absent from the gate
// is reported as INFO — visible, but with no effect on the verdict —
// so landing new benchmarks (BenchmarkVMRunCompiled,
// BenchmarkCoverDeltaEncode) never demands a same-commit re-record, even
// when the new numbers would look like wild regressions of nothing.
func TestNewBenchmarksAreInformational(t *testing.T) {
	observed := map[string]Sample{
		"kernelgpt/internal/fuzz.BenchmarkCampaign":            {NsPerOp: 100, AllocsPerOp: 100, HasAllocs: true},
		"kernelgpt/internal/vkernel.BenchmarkVMRunCompiled":    {NsPerOp: 1e12, AllocsPerOp: 1e6, HasAllocs: true},
		"kernelgpt/internal/vkernel.BenchmarkCoverDeltaEncode": {NsPerOp: 1e12},
	}
	results := Compare(gateFor(100, 100), observed, 0.15)
	if len(results) != 3 {
		t.Fatalf("want 3 results, got %+v", results)
	}
	infos := 0
	for _, r := range results {
		if !r.MissingBase {
			if r.Informational() {
				t.Fatalf("gated benchmark reported informational: %+v", r)
			}
			continue
		}
		infos++
		if !r.Informational() {
			t.Fatalf("ungated benchmark not informational: %+v", r)
		}
		if r.Failed() {
			t.Fatalf("ungated benchmark failed the gate: %+v", r)
		}
		if !strings.HasPrefix(r.String(), "INFO") {
			t.Fatalf("ungated benchmark not printed as INFO: %q", r.String())
		}
	}
	if infos != 2 {
		t.Fatalf("want 2 informational results, got %d: %+v", infos, results)
	}
}

func TestRecordRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH.json")
	if err := os.WriteFile(path, []byte(`{"description":"keep me","gate":{"tolerance":0.15,"benchmarks":{}}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	obs, err := ParseBenchOutput(strings.NewReader(benchOutput))
	if err != nil {
		t.Fatal(err)
	}
	if err := RecordBaseline(path, obs); err != nil {
		t.Fatal(err)
	}
	gate, err := LoadGate(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(gate.Benchmarks) != 3 {
		t.Fatalf("recorded %d entries, want 3", len(gate.Benchmarks))
	}
	// Unrelated fields survive.
	data, _ := os.ReadFile(path)
	if !strings.Contains(string(data), "keep me") {
		t.Fatalf("record clobbered unrelated fields:\n%s", data)
	}
	// The recorded file gates its own measurements cleanly.
	for _, r := range Compare(gate, obs, gate.Tolerance) {
		if r.Failed() || r.MissingBase || r.MissingBench {
			t.Fatalf("self-comparison not clean: %+v", r)
		}
	}
}
