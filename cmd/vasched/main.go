// Command vasched reproduces the evaluation of "Variation-Aware
// Application Scheduling and Power Management for Chip Multiprocessors"
// (ISCA 2008) and runs custom scenarios on the same simulator.
//
// Usage:
//
//	vasched -list
//	vasched -experiment fig11 [-scale quick|default] [-json] [-parallel N]
//	vasched -experiment all -scale quick
//	vasched -experiment ext-cluster -cluster 3 -fault-rate 0.2 -trace out.json
//	vasched -experiment ext-adapt -adaptive -adapt-metric power-ratio -adapt-ci 0.02
//	vasched -run -sched "VarF&AppIPC" -manager LinOpt -threads 16 -budget 60
//	vasched -dynamic -threads 16 -duration 100 -dt-ms 1 -horizon 3,7
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"vasched"
	"vasched/internal/adapt"
	"vasched/internal/cluster"
	"vasched/internal/experiments"
	"vasched/internal/metrics"
	"vasched/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if err == flag.ErrHelp {
			os.Exit(2)
		}
		fmt.Fprintln(os.Stderr, "vasched:", err)
		os.Exit(1)
	}
}

// run is the testable CLI core: it parses args, executes, and writes the
// report to stdout. flag.ErrHelp is returned when there is nothing to do
// (usage has already been printed).
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("vasched", flag.ContinueOnError)
	var (
		list    = fs.Bool("list", false, "list experiment ids and exit")
		expID   = fs.String("experiment", "", "experiment id to run, or 'all'")
		scale   = fs.String("scale", "default", "experiment scale: quick or default")
		asJSON  = fs.Bool("json", false, "emit experiment results as JSON instead of text")
		par     = fs.Int("parallel", runtime.GOMAXPROCS(0), "die-farm worker goroutines (1 = serial; output is identical at any setting)")
		runF    = fs.Bool("run", false, "run a custom scenario instead of a paper experiment")
		schedF  = fs.String("sched", vasched.SchedVarFAppIPC, "scheduling policy for -run")
		manager = fs.String("manager", vasched.ManagerLinOpt, "power manager for -run (DVFS mode)")
		mode    = fs.String("mode", vasched.ModeDVFS, "CMP configuration for -run")
		threads = fs.Int("threads", 8, "thread count for -run (apps drawn from the SPEC pool)")
		budget  = fs.Float64("budget", 60, "chip power target in watts for -run")
		dur     = fs.Float64("duration", 200, "simulated milliseconds for -run")
		die     = fs.Int("die", 0, "die index for -run")
		sigma   = fs.Float64("sigma", 0.12, "Vth sigma/mu for -run")

		dynF    = fs.Bool("dynamic", false, "run the time-stepped dynamic scenario engine instead of a paper experiment (uses -sched/-threads/-duration/-die/-sigma)")
		dtMS    = fs.Float64("dt-ms", 1, "with -dynamic, thermal integration step in milliseconds")
		horizon = fs.String("horizon", "", "with -dynamic, comma-separated wearout horizon years (e.g. 3,7); each re-runs the scenario on the aged die")
		migMS   = fs.Float64("mig-penalty", 0, "with -dynamic, per-migration thread stall in milliseconds")

		traceOut  = fs.String("trace", "", "write the run's spans as a Chrome trace_event JSON file (experiments only; open in chrome://tracing or Perfetto)")
		clusterN  = fs.Int("cluster", 0, "spin up N in-process shard workers and route every die loop through them (output is identical to a local run)")
		faultRate = fs.Float64("fault-rate", 0, "with -cluster, deterministically inject dispatch faults at this rate in [0,1]; retries recover and outputs are unchanged")
		faultSeed = fs.Int64("fault-seed", 1, "seed for the -fault-rate fault plan (same seed, same faults)")

		adaptive  = fs.Bool("adaptive", false, "ext-adapt: adaptive stratified sampling with the settings below (default runs ext-adapt with its stock settings)")
		adaMetric = fs.String("adapt-metric", "", "ext-adapt target metric: power-ratio, freq-ratio, tput, or power")
		adaCI     = fs.Float64("adapt-ci", 0, "ext-adapt relative CI half-width stopping target (0 = default 0.02)")
		adaConf   = fs.Float64("adapt-confidence", 0, "ext-adapt confidence level (0 = default 0.95)")
		adaStrata = fs.Int("adapt-strata", 0, "ext-adapt severity strata (0 = default 4)")
		adaPilot  = fs.Int("adapt-pilot", 0, "ext-adapt pilot draws per stratum (0 = default 2)")
		adaRound  = fs.Int("adapt-round", 0, "ext-adapt dies per Neyman round (0 = default 8)")
		adaExact  = fs.Bool("adapt-exact", false, "ext-adapt exact verification mode: evaluate the full population in index order")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	switch {
	case *list:
		fmt.Fprintln(stdout, "experiments (DESIGN.md section 3 maps ids to paper artefacts):")
		for _, id := range vasched.ExperimentIDs() {
			fmt.Fprintln(stdout, "  "+id)
		}
		return nil
	case *dynF:
		return runDynamic(stdout, *schedF, *threads, *dur, *die, *sigma, *dtMS, *migMS, *horizon)
	case *runF:
		return runScenario(stdout, *schedF, *manager, *mode, *threads, *budget, *dur, *die, *sigma)
	case *expID != "":
		run := expRun{
			id: *expID, scale: *scale, asJSON: *asJSON, workers: *par,
			traceOut: *traceOut, clusterN: *clusterN,
			faultRate: *faultRate, faultSeed: *faultSeed,
		}
		if *adaptive || *adaExact || *adaMetric != "" {
			run.adaptive = &experiments.AdaptiveConfig{
				Metric: *adaMetric,
				Config: adapt.Config{
					RelCI:      *adaCI,
					Confidence: *adaConf,
					Strata:     *adaStrata,
					Pilot:      *adaPilot,
					RoundSize:  *adaRound,
					Exact:      *adaExact,
				},
			}
		}
		return runExperiments(stdout, run)
	default:
		fs.Usage()
		return flag.ErrHelp
	}
}

// expRun bundles the experiment-mode flags.
type expRun struct {
	id, scale string
	asJSON    bool
	workers   int
	traceOut  string
	clusterN  int
	faultRate float64
	faultSeed int64
	adaptive  *experiments.AdaptiveConfig
}

func runExperiments(stdout io.Writer, cfg expRun) error {
	opts := []vasched.RunOption{vasched.WithWorkers(cfg.workers)}
	if cfg.adaptive != nil {
		opts = append(opts, vasched.WithAdaptive(*cfg.adaptive))
	}
	var tr *trace.Tracer
	if cfg.traceOut != "" {
		tr = trace.New(trace.DefaultCapacity)
		opts = append(opts, vasched.WithContext(trace.WithTracer(context.Background(), tr)))
	}
	if cfg.clusterN > 0 {
		client, stop, err := startLocalCluster(cfg.clusterN, cfg.workers, cfg.faultRate, cfg.faultSeed)
		if err != nil {
			return err
		}
		defer stop()
		opts = append(opts, vasched.WithCluster(client))
	}
	ids := []string{cfg.id}
	if cfg.id == "all" {
		ids = vasched.ExperimentIDs()
	}
	for _, id := range ids {
		start := time.Now()
		if cfg.asJSON {
			res, err := vasched.RunExperimentResult(id, vasched.Scale(cfg.scale), opts...)
			if err != nil {
				return fmt.Errorf("%s: %w", id, err)
			}
			blob, err := json.MarshalIndent(map[string]any{"id": id, "result": res}, "", "  ")
			if err != nil {
				return fmt.Errorf("%s: %w", id, err)
			}
			fmt.Fprintln(stdout, string(blob))
			continue
		}
		out, err := vasched.RunExperiment(id, vasched.Scale(cfg.scale), opts...)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		fmt.Fprintf(stdout, "==== %s (%v) ====\n%s\n", id, time.Since(start).Round(time.Millisecond), strings.TrimRight(out, "\n"))
	}
	if tr != nil {
		if err := writeTrace(cfg.traceOut, tr); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "trace: %d spans written to %s (%d evicted)\n", tr.Len(), cfg.traceOut, tr.Dropped())
	}
	return nil
}

// writeTrace dumps the collected spans as Chrome trace_event JSON.
func writeTrace(path string, tr *trace.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteChrome(f, tr.Snapshot()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// startLocalCluster boots n in-process shard workers on loopback listeners
// and returns a coordinator client over them. It is the single-binary
// version of `vaschedd -worker` x n: same handler, same codec, same retry
// and fault-injection machinery, no extra processes.
func startLocalCluster(n, par int, faultRate float64, faultSeed int64) (*cluster.Client, func(), error) {
	var urls []string
	var srvs []*http.Server
	stop := func() {
		for _, s := range srvs {
			s.Close()
		}
	}
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			stop()
			return nil, nil, fmt.Errorf("cluster worker %d: %w", i, err)
		}
		srv := &http.Server{
			Handler:           cluster.Handler(experiments.NewExecutor(par), metrics.NewRegistry()),
			ReadHeaderTimeout: 10 * time.Second,
		}
		go srv.Serve(ln)
		srvs = append(srvs, srv)
		urls = append(urls, "http://"+ln.Addr().String())
	}
	opt := cluster.Options{}
	if faultRate > 0 {
		opt.Fault = cluster.SeededFaultPlan(faultSeed, 4096, faultRate)
	}
	return cluster.NewClient(urls, opt), stop, nil
}

// runDynamic drives the time-stepped scenario engine: transient thermal
// integration, phase-shifting workloads, emergency throttling, and an
// optional wearout horizon sweep on the same die.
func runDynamic(stdout io.Writer, schedName string, threads int, durMS float64, die int, sigma, dtMS, migMS float64, horizon string) error {
	var years []float64
	if horizon != "" {
		for _, part := range strings.Split(horizon, ",") {
			y, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
			if err != nil {
				return fmt.Errorf("-horizon: %w", err)
			}
			years = append(years, y)
		}
	}
	opt := vasched.DefaultOptions()
	opt.DieIndex = die
	opt.VthSigmaOverMu = sigma
	plat, err := vasched.NewPlatform(opt)
	if err != nil {
		return err
	}
	apps := vasched.SPECApps()
	for len(apps) < threads {
		apps = append(apps, apps[len(apps)%14])
	}
	apps = apps[:threads]

	epochs, err := plat.RunDynamic(vasched.DynamicConfig{
		Scheduler:          schedName,
		DtMS:               dtMS,
		MigrationPenaltyMS: migMS,
		HorizonYears:       years,
	}, apps, durMS)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "dynamic scenario: die %d (sigma/mu %.2f), %d threads, scheduler %s, %.0f ms at dt=%.1f ms\n\n",
		die, sigma, threads, schedName, durMS, dtMS)
	fmt.Fprintf(stdout, "%7s %10s %9s %8s %6s %11s %9s %8s %10s\n",
		"years", "dVth(mV)", "fmax(GHz)", "MIPS", "avg W", "peak T(C)", "emergenc", "thr(ms)", "migrations")
	for _, ep := range epochs {
		st := ep.Stats
		fmt.Fprintf(stdout, "%7.1f %10.1f %9.3f %8.0f %6.1f %11.2f %9d %8.1f %10d\n",
			ep.Years, ep.DVthMaxMV, ep.MinFmaxGHz, st.MIPS, st.AvgPowerW, st.MaxTempC,
			st.Emergencies, st.ThrottledMS, st.Migrations)
	}
	return nil
}

func runScenario(stdout io.Writer, schedName, manager, mode string, threads int, budget, durMS float64, die int, sigma float64) error {
	opt := vasched.DefaultOptions()
	opt.DieIndex = die
	opt.VthSigmaOverMu = sigma
	plat, err := vasched.NewPlatform(opt)
	if err != nil {
		return err
	}
	cfg := vasched.SystemConfig{Scheduler: schedName, Mode: mode, CaptureTrace: true}
	if mode == vasched.ModeDVFS {
		cfg.Manager = manager
		cfg.PTargetW = budget
		cfg.PCoreMaxW = 2 * budget / float64(threads)
	}
	sys, err := plat.NewSystem(cfg)
	if err != nil {
		return err
	}
	apps := vasched.SPECApps()
	for len(apps) < threads {
		apps = append(apps, apps[len(apps)%14])
	}
	apps = apps[:threads]

	st, err := sys.Run(apps, durMS)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "die %d (sigma/mu %.2f), %d threads, %s", die, sigma, threads, mode)
	if mode == vasched.ModeDVFS {
		fmt.Fprintf(stdout, ", %s @ %.0f W", manager, budget)
	}
	fmt.Fprintf(stdout, ", scheduler %s, %.0f ms simulated\n\n", schedName, durMS)
	fmt.Fprintf(stdout, "throughput   %9.0f MIPS (weighted %.2f)\n", st.MIPS, st.WeightedThroughput)
	fmt.Fprintf(stdout, "power        %9.1f W (dyn %.1f + static %.1f)\n", st.AvgPowerW, st.DynPowerW, st.StaticPowerW)
	if mode == vasched.ModeDVFS {
		fmt.Fprintf(stdout, "deviation    %9.2f %% from target\n", st.PowerDeviationPct)
	}
	fmt.Fprintf(stdout, "frequency    %9.2f GHz mean\n", st.AvgFrequencyGHz)
	fmt.Fprintf(stdout, "hottest block %8.1f C, worst core aging %.2fx nominal\n", st.MaxTempC, st.WearoutMax)
	if len(st.Trace) > 1 {
		const width = 60
		fmt.Fprintf(stdout, "\npower  %s\n", vasched.Sparkline(st.Trace, func(p vasched.TracePoint) float64 { return p.PowerW }, width))
		fmt.Fprintf(stdout, "MIPS   %s\n", vasched.Sparkline(st.Trace, func(p vasched.TracePoint) float64 { return p.MIPS }, width))
		fmt.Fprintf(stdout, "temp   %s\n", vasched.Sparkline(st.Trace, func(p vasched.TracePoint) float64 { return p.MaxTempC }, width))
	}
	return nil
}
