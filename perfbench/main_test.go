package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// benchmarkSpec is the part of ../BENCHMARK.json the smoke test checks
// the printed metrics against.
type benchmarkSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	Workload []struct{ Name string }       `json:"workloads"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

var (
	vaschedBin  string
	vaschedOnce sync.Once
	vaschedErr  error
)

// buildVaschedd builds cmd/vaschedd once per test binary.
func buildVaschedd(t *testing.T) string {
	t.Helper()
	vaschedOnce.Do(func() {
		dir, err := os.MkdirTemp("", "perfbench-test-")
		if err != nil {
			vaschedErr = err
			return
		}
		vaschedBin = filepath.Join(dir, "vaschedd")
		out, err := exec.Command("go", "build", "-o", vaschedBin, "vasched/cmd/vaschedd").CombinedOutput()
		if err != nil {
			vaschedErr = &buildError{err: err, out: string(out)}
		}
	})
	if vaschedErr != nil {
		t.Fatal(vaschedErr)
	}
	return vaschedBin
}

type buildError struct {
	err error
	out string
}

func (e *buildError) Error() string { return e.err.Error() + ": " + e.out }

func TestMain(m *testing.M) {
	code := m.Run()
	if vaschedBin != "" {
		os.RemoveAll(filepath.Dir(vaschedBin))
	}
	os.Exit(code)
}

// TestSmokeEveryWorkload runs every workload at tiny size, untraced and
// traced, and checks that the last line names exactly the metrics
// BENCHMARK.json declares, each with its declared unit.
func TestSmokeEveryWorkload(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workload) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workload), len(workloads))
	}
	vaschedd := buildVaschedd(t)
	for _, w := range spec.Workload {
		for trace, want := range map[string][]struct{ Name, Unit string }{"0": spec.EndToEnd, "1": spec.PerLayer} {
			t.Run(w.Name+"/trace="+trace, func(t *testing.T) {
				var out, errOut bytes.Buffer
				code := run([]string{"--workload", w.Name, "--seed", "7", "--seconds", "0", "--trace", trace, "--tiny",
					"--vaschedd", vaschedd, "--work-dir", t.TempDir(),
					"--golden-dir", "../internal/experiments/testdata/golden"}, &out, &errOut)
				if code != 0 {
					t.Fatalf("exit %d; stderr:\n%s\nstdout:\n%s", code, errOut.String(), out.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v\n%s", err, out.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("result %+v\n%s", res, out.String())
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("printed %d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s not printed", m.Name)
						continue
					}
					if got.Unit != m.Unit {
						t.Errorf("metric %s unit %q, want %q", m.Name, got.Unit, m.Unit)
					}
				}
				if !strings.Contains(out.String(), "counters fft.points ") {
					t.Errorf("exact work counters not printed:\n%s", out.String())
				}
			})
		}
	}
}

func TestRejectsUnknownWorkload(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &out, &errOut); code == 0 || out.Len() != 0 {
		t.Fatalf("exit %d, stdout %q", code, out.String())
	}
}

func TestCoveredMergesOverlappingChildren(t *testing.T) {
	parent := span{Start: 0, End: 100}
	kids := []span{{Start: 10, End: 30}, {Start: 20, End: 40}, {Start: 60, End: 70}, {Start: 90, End: 120}}
	if got, want := covered(parent, kids), time.Duration(30+10+10); got != want {
		t.Fatalf("covered = %v, want %v", got, want)
	}
}

func TestServiceMixIsExactPerBlock(t *testing.T) {
	counts := map[string]int{}
	for i := 0; i < serviceBlock; i++ {
		counts[serviceJob(3, i)]++
	}
	for _, e := range serviceMix {
		if counts[e.id] != e.n {
			t.Errorf("%s: %d jobs in a block, want %d", e.id, counts[e.id], e.n)
		}
	}
}
