package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"vasched/internal/metrics"
)

// item is one completed unit of work of a timed phase.
type item struct {
	index   int
	latency time.Duration
	// digest is the item's simulated outputs, rounded to the precision
	// the experiment goldens print.
	digest string
	// err is set when the item failed: an error, a broken invariant, a
	// non-converged evaluation, or an output that differs from a golden.
	err error
	// counts are the item's exact work counters.
	counts counts
	// manager and decide are the power manager a timeline ran and the
	// host time its Decide calls took (RunStats.DecideTime).
	manager string
	decide  time.Duration
}

// counts are exact work counters. Summed over the fixed prefix of a
// phase's first MinItems items (plus the traced set-up), they repeat
// exactly for one seed on any host.
type counts struct {
	FFTPoints      int64 // fft.points: butterfly points transformed
	VarSamples     int64 // varmodel.samples: GRF sampler invocations
	CoreSamples    int64 // core.samples: monitor samples simulated by core.System.Run
	PMDecides      int64 // pm.decides: Manager.Decide calls
	ChipEvaluates  int64 // chip.evaluates: direct chip.Evaluate calls
	ThermalIters   int64 // fixed-point iterations over those evaluations
	ThermalItersHi int64 // largest iteration count of one evaluation
	NonConverged   int64 // evaluations that reached the iteration cap
	DynTicks       int64 // dynamic.ticks: time steps of dynamic.Run
	DynEpochs      int64 // dynamic.epochs: horizon epochs run
	Migrations     int64 // dynamic.migrations
	Emergencies    int64 // dynamic.emergencies
	DieMisses      int64 // diecache.misses
}

func (c *counts) add(o counts) {
	c.FFTPoints += o.FFTPoints
	c.VarSamples += o.VarSamples
	c.CoreSamples += o.CoreSamples
	c.PMDecides += o.PMDecides
	c.ChipEvaluates += o.ChipEvaluates
	c.ThermalIters += o.ThermalIters
	c.ThermalItersHi = max(c.ThermalItersHi, o.ThermalItersHi)
	c.NonConverged += o.NonConverged
	c.DynTicks += o.DynTicks
	c.DynEpochs += o.DynEpochs
	c.Migrations += o.Migrations
	c.Emergencies += o.Emergencies
	c.DieMisses += o.DieMisses
}

// itersPerEval is thermal.iters_per_eval.
func (c counts) itersPerEval() float64 {
	if c.ChipEvaluates == 0 {
		return 0
	}
	return float64(c.ThermalIters) / float64(c.ChipEvaluates)
}

func (c counts) print(out io.Writer) {
	fmt.Fprintf(out, "counters fft.points %d varmodel.samples %d core.samples %d pm.decides %d chip.evaluates %d thermal.iters_per_eval %.4f dynamic.ticks %d diecache.misses %d\n",
		c.FFTPoints, c.VarSamples, c.CoreSamples, c.PMDecides, c.ChipEvaluates, c.itersPerEval(), c.DynTicks, c.DieMisses)
}

// phase is one timed run over a workload's item stream. Items are
// numbered from 0 and generated from (seed, index) alone, so every phase
// of one seed sees the same inputs in the same order.
type phase struct {
	seed     int64
	seconds  float64
	minItems int
	tr       *tracer

	mu    sync.Mutex
	items []item

	// Filled in by the workload when the phase ends.
	elapsed    time.Duration
	allocBytes uint64
	peakRSS    float64
	// counts covers the traced set-up and the first minItems items.
	counts counts
	// Layer observations of the traced phase (zero when untraced).
	decideHist *metrics.LatencyHist
	svc        serviceLayers
}

func newPhase(o options, sz sizes, tr *tracer) *phase {
	p := &phase{seed: o.Seed, seconds: o.Seconds, minItems: sz.MinItems, tr: tr}
	if tr != nil {
		p.decideHist = metrics.NewLatencyHist()
	}
	return p
}

// more reports whether item i should still run: the phase runs for its
// seconds and at least minItems items.
func (p *phase) more(i int, start time.Time) bool {
	return i < p.minItems || time.Since(start).Seconds() < p.seconds
}

// record stores one completed item; safe for concurrent use.
func (p *phase) record(it item) {
	p.mu.Lock()
	p.items = append(p.items, it)
	p.mu.Unlock()
}

// finish sorts the items and sums the prefix counters on top of the
// set-up's.
func (p *phase) finish(setup counts) {
	sort.Slice(p.items, func(a, b int) bool { return p.items[a].index < p.items[b].index })
	p.counts = setup
	for _, it := range p.items {
		if it.index < p.minItems {
			p.counts.add(it.counts)
		}
	}
}

// totals sums the counters over every item of the phase.
func (p *phase) totals() counts {
	var c counts
	for _, it := range p.items {
		c.add(it.counts)
	}
	return c
}

// digest hashes the rounded outputs of the first minItems items.
func (p *phase) digest() string {
	h := sha256.New()
	for _, it := range p.items {
		if it.index < p.minItems {
			fmt.Fprintf(h, "%d %s\n", it.index, it.digest)
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// digestOf is a short hash of s.
func digestOf(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:8])
}

func (p *phase) printFailures(out io.Writer) {
	n := 0
	for _, it := range p.items {
		if it.err != nil {
			if n < 10 {
				fmt.Fprintf(out, "item %d failed: %v\n", it.index, it.err)
			}
			n++
		}
	}
}

type summary struct {
	items, failed int
	elapsed       time.Duration
	p50ms, p95ms  float64
	allocBytes    uint64
	peakRSSMB     float64
}

func (p *phase) summary() summary {
	s := summary{items: len(p.items), elapsed: p.elapsed,
		allocBytes: p.allocBytes, peakRSSMB: p.peakRSS}
	lat := make([]float64, 0, len(p.items))
	for _, it := range p.items {
		if it.err != nil {
			s.failed++
		}
		lat = append(lat, float64(it.latency)/1e6)
	}
	s.p50ms = quantile(lat, 0.50)
	s.p95ms = quantile(lat, 0.95)
	return s
}

func (s summary) itemsPerS() float64 { return float64(s.items) / s.elapsed.Seconds() }

func (s summary) failedFrac() float64 {
	if s.items == 0 {
		return 0
	}
	return float64(s.failed) / float64(s.items)
}

func (s summary) allocKBPerItem() float64 {
	if s.items == 0 {
		return 0
	}
	return float64(s.allocBytes) / 1e3 / float64(s.items)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (NaN for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func roundAll(xs []float64, digits int) []float64 {
	out := make([]float64, len(xs))
	scale := math.Pow(10, float64(digits))
	for i, x := range xs {
		out[i] = math.Round(x*scale) / scale
	}
	return out
}

// peakRSSMB returns VmHWM of process pid ("self" for this one) in MB.
func peakRSSMB(pid string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM of %s: %w", pid, err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}
