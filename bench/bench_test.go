package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// buildBench compiles the benchmark once per test binary.
func buildBench(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "b3bench")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// runJSON runs the benchmark in -json mode and decodes its document.
func runJSON(t *testing.T, bin string, args ...string) *document {
	t.Helper()
	args = append([]string{"-json", "-out", t.TempDir()}, args...)
	cmd := exec.Command(bin, args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("bench %v: %v\n%s", args, err, stderr.String())
	}
	var doc document
	if err := json.Unmarshal(out, &doc); err != nil {
		t.Fatalf("bench %v: undecodable document: %v\n%s", args, err, out)
	}
	return &doc
}

// TestBenchmarkJSONMatchesCatalogue holds the file the driver reads to the
// names, units, directions and bounds the program prints.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	want, err := benchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("BENCHMARK.json differs from the catalogue; rewrite it with `go run ./bench -benchmark-json > BENCHMARK.json`\n--- file\n%s\n--- catalogue\n%s", got, want)
	}
}

// TestSmoke runs every workload at 2% of its size: every metric and
// workload BENCHMARK.json names must be printed, every pass must agree with
// every other (traced counts equal untraced counts, each in its own
// process), the exact counts must repeat in a second invocation, and an
// oversubscribed -workers must be refused.
func TestSmoke(t *testing.T) {
	bin := buildBench(t)
	doc := runJSON(t, bin, "-scale", "0.02", "-reps", "1")

	var file struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(file.Workloads) {
		t.Fatalf("printed %d workloads, BENCHMARK.json names %d", len(doc.Workloads), len(file.Workloads))
	}
	for i, rep := range doc.Workloads {
		name := file.Workloads[i].Name
		if rep.Def.Name != name {
			t.Errorf("workload %d is %q, BENCHMARK.json says %q", i, rep.Def.Name, name)
		}
		if !rep.correct() {
			t.Errorf("%s: not correct: failed=%d problems=%v", name, rep.Failed, rep.Problems)
		}
		if rep.Attempted < 1 {
			t.Errorf("%s: attempted %d pairs", name, rep.Attempted)
		}
		for _, m := range file.EndToEnd {
			if s, ok := rep.EndToEnd[m.Name]; !ok || s.Median <= 0 {
				t.Errorf("%s: end-to-end metric %s missing or not positive: %+v", name, m.Name, s)
			}
		}
		if len(rep.EndToEnd) != len(file.EndToEnd) {
			t.Errorf("%s: printed %d end-to-end metrics, BENCHMARK.json names %d", name, len(rep.EndToEnd), len(file.EndToEnd))
		}
		for _, m := range file.PerLayer {
			if _, ok := rep.PerLayer[m.Name]; !ok {
				t.Errorf("%s: per-layer metric %s missing", name, m.Name)
			}
		}
		if len(rep.PerLayer) != len(file.PerLayer) {
			t.Errorf("%s: printed %d per-layer metrics, BENCHMARK.json names %d", name, len(rep.PerLayer), len(file.PerLayer))
		}
		if got := rep.PerLayer["trace.accounted_share"]; got < 0.9 {
			t.Errorf("%s: trace.accounted_share %.3f, want at least 0.9", name, got)
		}
	}

	// A second invocation of one workload must reproduce every exact count.
	const again = "kv-axes"
	second := runJSON(t, bin, "-scale", "0.02", "-reps", "1", "-workload", again)
	for _, first := range doc.Workloads {
		if first.Def.Name != again {
			continue
		}
		if d := diffRows(first.Rows, second.Workloads[0].Rows); d != "" {
			t.Errorf("%s: exact counts changed between invocations: %s", again, d)
		}
		for _, m := range perLayerMetrics() {
			if a, b := first.PerLayer[m.Name], second.Workloads[0].PerLayer[m.Name]; m.Exact && a != b {
				t.Errorf("%s: exact count %s changed between invocations: %v then %v", again, m.Name, a, b)
			}
		}
	}

	over := strconv.Itoa(runtime.NumCPU() + 1)
	out, err := exec.Command(bin, "-workers", over, "-scale", "0.02").CombinedOutput()
	if err == nil || !strings.Contains(string(out), "-workers") {
		t.Errorf("-workers %s was not refused: err=%v output=%s", over, err, out)
	}
}
