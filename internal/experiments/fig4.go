package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"

	"vasched/internal/chip"
	"vasched/internal/stats"
)

// kernelDieRatios is the distributable form of dieRatios: one die in,
// its max/min core power and frequency ratios out. JSON float64
// serialisation is exact (shortest round-trip representation), so the
// decoded values — and every statistic computed from them — are
// bit-identical whether the kernel ran locally or on a remote worker.
const kernelDieRatios = "die-ratios"

// dieRatiosBlob is the kernel's wire shape.
type dieRatiosBlob struct {
	PowerRatio float64 `json:"pr"`
	FreqRatio  float64 `json:"fr"`
}

func init() {
	RegisterKernel(kernelDieRatios, func(_ context.Context, e *Env, die int) ([]byte, error) {
		return dieRatios(e, die)
	})
}

// Fig4Result reproduces Figure 4: histograms, over a batch of dies, of the
// within-die ratios between the most and least power-consuming core (a)
// and the fastest and slowest core (b).
type Fig4Result struct {
	NumDies    int
	PowerRatio []float64 // one entry per die
	FreqRatio  []float64
	PowerHist  *stats.Histogram
	FreqHist   *stats.Histogram
}

// Fig4 runs the paper's Section 7.1 experiment: for each die, every
// application is run alone on every core and the per-core average power is
// recorded; the die contributes its max/min power ratio and its max/min
// rated-frequency ratio.
func Fig4(e *Env) (*Fig4Result, error) {
	res := &Fig4Result{
		NumDies:   e.NumDies,
		PowerHist: stats.NewHistogram(1.2, 2.2, 10),
		FreqHist:  stats.NewHistogram(1.0, 1.6, 12),
	}
	// Fan the batch through the distributable kernel path: locally the
	// farm fills index-addressed slots, clustered the shards come back
	// from remote workers — either way the reduction below runs serially
	// in die order over byte-identical blobs.
	err := e.ForDiesKernel(kernelDieRatios, e.NumDies, func(die int, blob []byte) error {
		var s dieRatiosBlob
		if err := json.Unmarshal(blob, &s); err != nil {
			return fmt.Errorf("experiments: die %d ratios blob: %w", die, err)
		}
		res.PowerRatio = append(res.PowerRatio, s.PowerRatio)
		res.FreqRatio = append(res.FreqRatio, s.FreqRatio)
		res.PowerHist.Add(s.PowerRatio)
		res.FreqHist.Add(s.FreqRatio)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// dieRatios computes one die's max/min core power and frequency ratios
// as a dieRatiosBlob.
func dieRatios(e *Env, die int) ([]byte, error) {
	c, err := e.Chip(die)
	if err != nil {
		return nil, err
	}
	corePower := make([]float64, c.NumCores())
	for core := 0; core < c.NumCores(); core++ {
		var ps []float64
		for _, app := range e.Apps() {
			st := c.OffStates()
			st[core] = chip.CoreState{App: app, V: c.Tech.VddNominal, F: c.FmaxNominal(core)}
			r, err := c.Evaluate(st, e.CPU())
			if err != nil {
				return nil, err
			}
			ps = append(ps, r.CorePowerW[core])
		}
		corePower[core] = stats.Mean(ps)
	}
	freqs := make([]float64, c.NumCores())
	for core := range freqs {
		freqs[core] = c.FmaxNominal(core)
	}
	return json.Marshal(dieRatiosBlob{
		PowerRatio: stats.Max(corePower) / stats.Min(corePower),
		FreqRatio:  stats.Max(freqs) / stats.Min(freqs),
	})
}

// MeanPowerRatio returns the batch-average power ratio.
func (r *Fig4Result) MeanPowerRatio() float64 { return stats.Mean(r.PowerRatio) }

// MeanFreqRatio returns the batch-average frequency ratio.
func (r *Fig4Result) MeanFreqRatio() float64 { return stats.Mean(r.FreqRatio) }

// Render formats both histograms.
func (r *Fig4Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 4: core-to-core variation across %d dies\n", r.NumDies)
	fmt.Fprintf(&b, "(a) max/min core power ratio: mean %.2f  (paper: ~1.53, mostly 1.4-1.7)\n",
		r.MeanPowerRatio())
	b.WriteString(r.PowerHist.Render("power ratio"))
	fmt.Fprintf(&b, "(b) max/min core frequency ratio: mean %.2f  (paper: ~1.33, mostly 1.2-1.5)\n",
		r.MeanFreqRatio())
	b.WriteString(r.FreqHist.Render("frequency ratio"))
	return b.String()
}

// Fig5Point is one sigma/mu setting's batch-mean ratios.
type Fig5Point struct {
	SigmaOverMu float64
	PowerRatio  float64
	FreqRatio   float64
}

// Fig5Result reproduces Figure 5: mean max/min core power and frequency
// ratios as Vth sigma/mu sweeps over 0.03-0.12.
type Fig5Result struct {
	Points []Fig5Point
}

// fig5Sigmas are the Figure 5 sweep's Vth sigma/mu settings.
var fig5Sigmas = []float64{0.03, 0.06, 0.09, 0.12}

// kernelFig5Ratios is dieRatios over the Figure 5 grid: index =
// point*NumDies + die, evaluated on the point's sigma/mu variant of the
// Env's die batch.
const kernelFig5Ratios = "fig5-ratios"

func init() {
	RegisterKernel(kernelFig5Ratios, func(_ context.Context, e *Env, index int) ([]byte, error) {
		point := index / e.NumDies
		if index < 0 || point >= len(fig5Sigmas) {
			return nil, fmt.Errorf("experiments: fig5 index %d out of range", index)
		}
		v, err := e.sigmaVariant(fig5Sigmas[point])
		if err != nil {
			return nil, err
		}
		return dieRatios(v, index%e.NumDies)
	})
}

// variantCache holds the sigma/mu variants of one stock Env. Every index
// of a sigma/mu point reuses one variant — and so one varmodel.Generator,
// whose pair cache lets dies 2k and 2k+1 share a transform; a generator
// per index would sample every pair twice.
type variantCache struct {
	sync.Mutex
	envs map[float64]*Env
}

// sigmaVariant returns the Env with Vth sigma/mu set to sm, built once
// per Env (and shared by its shallow copies) and run under e's context.
// The variant is a pure function of e's configuration, so a worker that
// rebuilds the stock Env derives the same dies the coordinator would.
func (e *Env) sigmaVariant(sm float64) (*Env, error) {
	vc := e.variants
	vc.Lock()
	defer vc.Unlock()
	v, ok := vc.envs[sm]
	if !ok {
		sub := *e
		sub.VarCfg.VthSigmaOverMu = sm
		// The variant is no longer a stock configuration: clear the
		// cluster routing key so it can never route on its own.
		sub.Scale, sub.Cluster = "", nil
		if err := sub.init(); err != nil {
			return nil, err
		}
		v = &sub
		vc.envs[sm] = v
	}
	run := *v
	run.ctx = e.ctx
	return &run, nil
}

// Fig5 sweeps the variation intensity. Each point re-generates the die
// batch with the new sigma/mu (dies per point are capped at NumDies).
func Fig5(e *Env) (*Fig5Result, error) {
	prs := make([][]float64, len(fig5Sigmas))
	frs := make([][]float64, len(fig5Sigmas))
	err := e.ForDiesKernel(kernelFig5Ratios, len(fig5Sigmas)*e.NumDies, func(index int, blob []byte) error {
		var s dieRatiosBlob
		if err := json.Unmarshal(blob, &s); err != nil {
			return fmt.Errorf("experiments: fig5 index %d ratios blob: %w", index, err)
		}
		point := index / e.NumDies
		prs[point] = append(prs[point], s.PowerRatio)
		frs[point] = append(frs[point], s.FreqRatio)
		return nil
	})
	if err != nil {
		return nil, err
	}
	res := &Fig5Result{}
	for point, sm := range fig5Sigmas {
		res.Points = append(res.Points, Fig5Point{
			SigmaOverMu: sm,
			PowerRatio:  stats.Mean(prs[point]),
			FreqRatio:   stats.Mean(frs[point]),
		})
	}
	return res, nil
}

// Render formats the sweep.
func (r *Fig5Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 5: mean max/min core ratios vs Vth sigma/mu\n")
	fmt.Fprintf(&b, "%8s %12s %12s\n", "sigma/mu", "power ratio", "freq ratio")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%8.2f %12.2f %12.2f\n", p.SigmaOverMu, p.PowerRatio, p.FreqRatio)
	}
	return b.String()
}
