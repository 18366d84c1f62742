// Command perfbench is the repository benchmark. It runs one named
// workload, checks every output it produces, and prints the end-to-end
// metrics — or, with --trace 1, the per-layer metrics — as one JSON
// object on the last line of standard output:
//
//	bash perfbench/run.sh --workload dvfs-timeline --seed 1 --seconds 30 --trace 0
//
// run.sh builds this package and cmd/vaschedd into .bench_build and runs
// the benchmark from the repository root. README.md describes the
// workloads, the metrics, and which layer should move which number.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"time"
)

// defaultSeed is the seed whose output digests are recorded in
// digests.go.
const defaultSeed = 1

// options are the command-line settings shared by every workload.
type options struct {
	Workload  string
	Seed      int64
	Seconds   float64
	Trace     bool
	Tiny      bool
	Vaschedd  string
	WorkDir   string
	GoldenDir string
}

// sizes are the per-run quantities a workload is scaled by. The default
// sizes are the benchmark's; --tiny shrinks them for the smoke test.
type sizes struct {
	// MinItems is the fewest items a timed phase completes, whatever
	// --seconds says, so that p95 has ten samples beyond it. The first
	// MinItems items are also the fixed prefix the output digest and the
	// exact work counters cover.
	MinItems int
	// SetupReps is how many times set-up runs, each in a fresh process
	// so that every run pays the cold cost; setup_s is the median.
	SetupReps int
}

func sizesFor(tiny bool) sizes {
	if tiny {
		return sizes{MinItems: 4, SetupReps: 1}
	}
	return sizes{MinItems: 200, SetupReps: 7}
}

// benchWorkload is one named benchmark workload. setUp builds fresh state and
// reports the time it took; phase runs the timed items; close releases
// whatever setUp acquired. A traced set-up or phase records spans in tr.
type benchWorkload interface {
	setUp(tr *tracer) (time.Duration, error)
	phase(p *phase) error
	close()
}

var workloads = map[string]func(o options, sz sizes) benchWorkload{
	"dvfs-timeline":     newDVFSTimeline,
	"die-population":    newDiePopulation,
	"transient-horizon": newTransientHorizon,
	"job-service":       newJobService,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, runs the workload, and writes the report to stdout.
// It returns the process exit code: 0 when a result was printed, 1 when
// the benchmark could not run, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	var setupOnly bool
	fs.StringVar(&o.Workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.Seed, "seed", defaultSeed, "seed the workload's inputs are generated from")
	fs.Float64Var(&o.Seconds, "seconds", 30, "length of the timed phase in seconds")
	fs.IntVar(&trace, "trace", 0, "1 prints per-layer metrics from a traced run; 0 prints end-to-end metrics")
	fs.BoolVar(&o.Tiny, "tiny", false, "shrink every size (smoke test only; digests are not compared)")
	fs.StringVar(&o.Vaschedd, "vaschedd", ".bench_build/vaschedd", "built vaschedd binary (job-service)")
	fs.StringVar(&o.WorkDir, "work-dir", ".bench_build", "directory for spans, WAL directories and logs")
	fs.StringVar(&o.GoldenDir, "golden-dir", "internal/experiments/testdata/golden", "experiment goldens (job-service)")
	fs.BoolVar(&setupOnly, "setup-only", false, "run set-up once, print its seconds and exit (how setup_s is sampled)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	mk, ok := workloads[o.Workload]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (one of %s)\n", o.Workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1, got %d\n", trace)
		return 2
	}
	o.Trace = trace == 1
	if err := os.MkdirAll(o.WorkDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if setupOnly {
		w := mk(o, sizesFor(o.Tiny))
		d, err := w.setUp(nil)
		w.close()
		if err != nil {
			fmt.Fprintln(stderr, "perfbench: set-up:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%.9f\n", d.Seconds())
		return 0
	}
	res, err := execute(o, mk(o, sizesFor(o.Tiny)), stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// execute runs set-up and the timed phase(s) of w and assembles the
// result. Human-readable detail goes to out ahead of the JSON line.
func execute(o options, w benchWorkload, out io.Writer) (*result, error) {
	defer w.close()
	sz := sizesFor(o.Tiny)
	if o.Trace {
		return executeTraced(o, sz, w, out)
	}
	setups, err := coldSetups(o, sz.SetupReps-1)
	if err != nil {
		return nil, err
	}
	d, err := w.setUp(nil)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	setups = append(setups, d.Seconds())
	p := newPhase(o, sz, nil)
	if err := w.phase(p); err != nil {
		return nil, err
	}
	s := p.summary()
	fmt.Fprintf(out, "workload %s seed %d: %d items in %.3f s, set-up runs %v s\n",
		o.Workload, o.Seed, s.items, p.elapsed.Seconds(), roundAll(setups, 4))
	fmt.Fprintf(out, "failed_frac %.6f (%d of %d attempted)\n", s.failedFrac(), s.failed, s.items)
	fmt.Fprintf(out, "alloc_mb %.3f MB over the timed phase\n", float64(s.allocBytes)/1e6)
	p.printFailures(out)
	p.counts.print(out)
	correct := checkDigest(o, p, out) && s.failed == 0
	return &result{
		Correct:   correct,
		Attempted: s.items,
		Failed:    s.failed,
		Metrics: map[string]metric{
			"setup_s":           {median(setups), "s"},
			"items_per_s":       {s.itemsPerS(), "1/s"},
			"item_p50_ms":       {s.p50ms, "ms"},
			"item_p95_ms":       {s.p95ms, "ms"},
			"alloc_kb_per_item": {s.allocKBPerItem(), "kB/item"},
			"peak_rss_mb":       {s.peakRSSMB, "MB"},
		},
	}, nil
}

// executeTraced runs an untraced phase and then a traced one, each half
// of --seconds and each after its own set-up, so the traced phase's
// per-layer numbers can be set against the untraced throughput.
func executeTraced(o options, sz sizes, w benchWorkload, out io.Writer) (*result, error) {
	half := o
	half.Seconds = o.Seconds / 2
	if _, err := w.setUp(nil); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	plain := newPhase(half, sz, nil)
	if err := w.phase(plain); err != nil {
		return nil, err
	}
	tr := newTracer()
	if _, err := w.setUp(tr); err != nil {
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	traced := newPhase(half, sz, tr)
	if err := w.phase(traced); err != nil {
		return nil, err
	}
	ps, ts := plain.summary(), traced.summary()
	fmt.Fprintf(out, "workload %s seed %d: untraced %d items in %.3f s, traced %d items in %.3f s\n",
		o.Workload, o.Seed, ps.items, plain.elapsed.Seconds(), ts.items, traced.elapsed.Seconds())
	fmt.Fprintf(out, "failed_frac untraced %.6f, traced %.6f\n", ps.failedFrac(), ts.failedFrac())
	plain.printFailures(out)
	traced.printFailures(out)
	traced.counts.print(out)
	plainOK, tracedOK := checkDigest(o, plain, out), checkDigest(o, traced, out)
	correct := plainOK && tracedOK && ps.failed == 0 && ts.failed == 0
	if plain.digest() != traced.digest() {
		fmt.Fprintf(out, "digest mismatch: untraced %s, traced %s\n", plain.digest(), traced.digest())
		correct = false
	}
	path, err := tr.write(o.WorkDir, o.Workload, o.Seed)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "spans: %d written to %s\n", tr.len(), path)
	m := layerMetrics(tr, traced)
	m["trace.overhead_items_per_s"] = metric{ts.itemsPerS() - ps.itemsPerS(), "1/s"}
	return &result{
		Correct:   correct,
		Attempted: ps.items + ts.items,
		Failed:    ps.failed + ts.failed,
		Metrics:   m,
	}, nil
}

// coldSetups times n set-ups, each in a fresh process running this
// binary with --setup-only, so that process-wide caches filled by one
// set-up do not make the next one look cheap.
func coldSetups(o options, n int) ([]float64, error) {
	if n <= 0 {
		return nil, nil
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < n; i++ {
		cmd := exec.Command(exe, "--setup-only", "--workload", o.Workload, "--seed", strconv.FormatInt(o.Seed, 10),
			"--vaschedd", o.Vaschedd, "--work-dir", o.WorkDir, "--golden-dir", o.GoldenDir)
		cmd.Stderr = os.Stderr
		b, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("set-up process: %w", err)
		}
		d, err := strconv.ParseFloat(strings.TrimSpace(string(b)), 64)
		if err != nil {
			return nil, fmt.Errorf("set-up process printed %q: %w", b, err)
		}
		out = append(out, d)
	}
	return out, nil
}

// checkDigest compares the phase's output digest with the one recorded
// for the default seed. Other seeds and tiny runs have no record.
func checkDigest(o options, p *phase, out io.Writer) bool {
	got := p.digest()
	fmt.Fprintf(out, "digest %s over the first %d items\n", got, p.minItems)
	if o.Tiny || o.Seed != defaultSeed {
		return true
	}
	want, ok := recordedDigests[o.Workload]
	if !ok || want != got {
		fmt.Fprintf(out, "digest mismatch: recorded %q for seed %d\n", want, defaultSeed)
		return false
	}
	return true
}

var errStop = errors.New("perfbench: timed phase over")
