package main

import (
	"time"

	"vasched/internal/pm"
)

// layerMetrics assembles the per-layer metrics of a traced run from the
// spans (set-up and timed phase) and the traced phase's counters. Every
// workload prints every metric; a layer a workload does not reach reads 0.
func layerMetrics(tr *tracer, p *phase) map[string]metric {
	spans := tr.layers()
	sec := func(name string) float64 { return spans[name].total.Seconds() }
	count := func(n int64) metric { return metric{float64(n), "count"} }
	c, all := p.counts, p.totals()

	decide := map[string]time.Duration{}
	var decideAll time.Duration
	for _, it := range p.items {
		decide[it.manager] += it.decide
		decideAll += it.decide
	}
	// core.Run's self time excludes its sched.assign children already;
	// the decide time comes from RunStats, not from a span.
	coreSelf := spans["core.run"].self - decideAll
	var decideP50, decideP95 float64
	if p.decideHist != nil && p.decideHist.Count() > 0 {
		decideP50 = p.decideHist.Quantile(0.50) * 1e6
		decideP95 = p.decideHist.Quantile(0.95) * 1e6
	}

	sv := p.svc
	return map[string]metric{
		"core.run_s":         {sec("core.run"), "s"},
		"core.self_s":        {coreSelf.Seconds(), "s"},
		"core.samples":       count(c.CoreSamples),
		"core.us_per_sample": {perUnit(coreSelf.Seconds()*1e6, all.CoreSamples), "us"},

		"pm.decides":         count(c.PMDecides),
		"pm.decide_s.foxton": {decide[pm.NameFoxton].Seconds(), "s"},
		"pm.decide_s.linopt": {decide[pm.NameLinOpt].Seconds(), "s"},
		"pm.decide_s.sann":   {decide[pm.NameSAnn].Seconds(), "s"},
		"pm.decide_p50_us":   {decideP50, "us"},
		"pm.decide_p95_us":   {decideP95, "us"},

		"sched.assign_s": {sec("sched.assign"), "s"},
		"sched.assigns":  count(int64(spans["sched.assign"].n)),

		"varmodel.die_s":   {sec("varmodel.die"), "s"},
		"varmodel.samples": count(c.VarSamples),
		"fft.points":       count(c.FFTPoints),
		"chip.build_s":     {sec("chip.build"), "s"},
		"diecache.get_s":   {sec("diecache.get"), "s"},
		"diecache.self_s":  {spans["diecache.get"].self.Seconds(), "s"},
		"diecache.misses":  count(c.DieMisses),

		"chip.evaluate_s":        {sec("chip.evaluate"), "s"},
		"chip.evaluates":         count(c.ChipEvaluates),
		"thermal.iters_per_eval": {c.itersPerEval(), "count"},
		"thermal.iters_max":      count(c.ThermalItersHi),
		"thermal.nonconverged":   count(c.NonConverged),

		"dynamic.ticks":       count(c.DynTicks),
		"dynamic.epochs":      count(c.DynEpochs),
		"dynamic.us_per_tick": {perUnit(sec("dynamic.horizon")*1e6, all.DynTicks), "us"},
		"dynamic.migrations":  count(c.Migrations),
		"dynamic.emergencies": count(c.Emergencies),

		"vaschedd.submit_p50_ms":     {quantileOr0(sv.submitMS, 0.50), "ms"},
		"vaschedd.submit_p95_ms":     {quantileOr0(sv.submitMS, 0.95), "ms"},
		"vaschedd.queue_p50_ms":      {quantileOr0(sv.queueMS, 0.50), "ms"},
		"vaschedd.queue_p95_ms":      {quantileOr0(sv.queueMS, 0.95), "ms"},
		"vaschedd.poll_p50_ms":       {quantileOr0(sv.pollMS, 0.50), "ms"},
		"vaschedd.run_p50_ms":        {quantileOr0(sv.runMS, 0.50), "ms"},
		"vaschedd.run_p95_ms":        {quantileOr0(sv.runMS, 0.95), "ms"},
		"jobstore.wal_bytes_per_job": {sv.walBytesPerJob, "B"},
		"diecache.hit_ratio":         {sv.hitRatio, "ratio"},
		"cluster.shards":             {sv.shards, "count"},
		"cluster.shard_p50_ms":       {sv.shardP50ms, "ms"},
		"cluster.degraded":           {sv.degraded, "count"},
	}
}

func perUnit(x float64, n int64) float64 {
	if n == 0 {
		return 0
	}
	return x / float64(n)
}

func quantileOr0(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return quantile(xs, q)
}
