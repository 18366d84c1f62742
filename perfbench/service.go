package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"vasched/internal/metrics"
)

// job-service: a built vaschedd coordinator (WAL in -data-dir,
// -max-jobs 2) and one -worker process, the topology of deploy/k8s. Two
// closed-loop clients, each its own tenant, submit quick-scale jobs
// from the load harness's experiment mix and poll each job until it is
// done. One item is one job, from submit to the poll that sees it end.
const (
	serviceClients = 2
	// A job is polled every servicePollFast for its first serviceFastFor,
	// then every servicePollSlow: light jobs end within a few fast polls,
	// and the slower polls keep two clients from spending a large share
	// of the 2 CPUs on status requests while fig-class jobs run.
	servicePollFast  = 2 * time.Millisecond
	servicePollSlow  = 10 * time.Millisecond
	serviceFastFor   = 50 * time.Millisecond
	serviceJobLimit  = 60 * time.Second // a job not done by then is lost
	serviceStartWait = 30 * time.Second
)

// serviceMix is cmd/vaschedload's experiment mix (adaptive ext-adapt
// folded into plain ext-adapt, whose output has a golden), as job counts
// per block of 100. Each block holds exactly these counts in an order
// drawn from the seed, so every run carries the same mix.
var serviceMix = []struct {
	id string
	n  int
}{
	{"table5", 58}, {"sann", 22}, {"fig15", 7}, {"fig6", 6}, {"fig4", 3}, {"ext-adapt", 4},
}

const serviceBlock = 100

// serviceJob returns the experiment id of job i of the seed's plan.
func serviceJob(seed int64, i int) string {
	k := itemType(seed, i, serviceBlock)
	for _, e := range serviceMix {
		if k < e.n {
			return e.id
		}
		k -= e.n
	}
	panic("perfbench: serviceMix does not sum to serviceBlock")
}

// durRE and spaceRE normalise Figure 15's host-time columns as the
// experiments' golden test does.
var (
	durRE   = regexp.MustCompile(`[0-9]+(?:\.[0-9]+)?(?:ns|µs|us|ms|m|h|s)`)
	spaceRE = regexp.MustCompile(` +`)
)

func normalizeGolden(id, out string) string {
	if id == "fig15" {
		return spaceRE.ReplaceAllString(durRE.ReplaceAllString(out, "<dur>"), " ")
	}
	return out
}

// serviceLayers are the job-service layer observations of one phase.
type serviceLayers struct {
	submitMS, pollMS, queueMS, runMS []float64
	walBytesPerJob                   float64
	hitRatio                         float64
	shards, shardP50ms, degraded     float64
}

// proc is one spawned vaschedd process.
type proc struct {
	cmd *exec.Cmd
	log string
	// addr receives the address the process reports it listens on.
	addr chan string
	// done is closed once the process has exited and its output is
	// drained into the log.
	done chan struct{}
}

// stop sends SIGTERM to the process's own PID, waits up to 15 s for it
// to exit, and kills it by PID if it has not.
func (p *proc) stop() {
	if p == nil {
		return
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-p.done:
	case <-time.After(15 * time.Second):
		_ = p.cmd.Process.Kill() // fails only if it exited meanwhile
		<-p.done
	}
}

func (p *proc) pid() string { return strconv.Itoa(p.cmd.Process.Pid) }

type jobService struct {
	o       options
	goldens map[string]string
	client  *http.Client

	dir           string // this instance's WAL and logs
	worker, coord *proc
	base, debug   string
}

func newJobService(o options, _ sizes) benchWorkload {
	return &jobService{o: o, client: &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: serviceClients, MaxConnsPerHost: serviceClients},
	}}
}

// setUp stops any running instance and starts a fresh one: the worker,
// then the coordinator, timed until /healthz answers.
func (w *jobService) setUp(_ *tracer) (time.Duration, error) {
	w.close()
	if w.goldens == nil {
		w.goldens = map[string]string{}
		for _, e := range serviceMix {
			b, err := os.ReadFile(filepath.Join(w.o.GoldenDir, e.id+".txt"))
			if err != nil {
				return 0, fmt.Errorf("reading golden: %w", err)
			}
			w.goldens[e.id] = string(b)
		}
	}
	if _, err := os.Stat(w.o.Vaschedd); err != nil {
		return 0, fmt.Errorf("vaschedd binary: %w", err)
	}
	dir, err := os.MkdirTemp(w.o.WorkDir, "job-service-")
	if err != nil {
		return 0, err
	}
	w.dir = dir
	debugAddr, err := freeAddr()
	if err != nil {
		return 0, err
	}
	start := time.Now()
	w.worker, err = spawn(w.o.Vaschedd, filepath.Join(dir, "worker.log"), "worker listening on ",
		"-worker", "-addr", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	workerAddr, err := w.worker.waitListening()
	if err != nil {
		return 0, err
	}
	w.coord, err = spawn(w.o.Vaschedd, filepath.Join(dir, "coordinator.log"), "listening on ",
		"-addr", "127.0.0.1:0", "-data-dir", filepath.Join(dir, "wal"), "-max-jobs", "2",
		"-workers", "http://"+workerAddr, "-debug-addr", debugAddr, "-drain", "5s")
	if err != nil {
		return 0, err
	}
	addr, err := w.coord.waitListening()
	if err != nil {
		return 0, err
	}
	w.base, w.debug = "http://"+addr, "http://"+debugAddr
	for {
		resp, err := w.client.Get(w.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Since(start) > serviceStartWait {
			return 0, fmt.Errorf("coordinator not healthy after %v", serviceStartWait)
		}
		time.Sleep(time.Millisecond)
	}
	return time.Since(start), nil
}

// close stops both processes by PID and removes the instance directory
// with its WAL.
func (w *jobService) close() {
	w.coord.stop()
	w.worker.stop()
	w.coord, w.worker = nil, nil
	if w.dir != "" {
		_ = os.RemoveAll(w.dir) // best effort: the work dir is scratch space
		w.dir = ""
	}
	w.client.CloseIdleConnections()
}

// freeAddr returns a loopback address with a port that was free a moment
// ago (vaschedd does not report the port it binds for -debug-addr).
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

func spawn(bin, logPath, prefix string, args ...string) (*proc, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout = logf
	// If the benchmark itself is killed, the kernel kills the server too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	addr := make(chan string, 1) // holds the one address sent
	p := &proc{cmd: cmd, log: logPath, addr: addr, done: make(chan struct{})}
	go func() {
		defer close(p.done)
		defer logf.Close()
		sent := false
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logf, line)
			if _, rest, ok := strings.Cut(line, prefix); ok && !sent && len(strings.Fields(rest)) > 0 {
				addr <- strings.Fields(rest)[0]
				sent = true
			}
		}
		_, _ = io.Copy(logf, stderr) // a line too long for the scanner
		_ = cmd.Wait()               // the exit status of a stopped server is not a result
	}()
	return p, nil
}

// waitListening returns the address the process reports it listens on.
func (p *proc) waitListening() (string, error) {
	select {
	case addr := <-p.addr:
		return addr, nil
	case <-p.done:
		return "", fmt.Errorf("vaschedd exited during start-up (log in %s)", p.log)
	case <-time.After(serviceStartWait):
		return "", fmt.Errorf("vaschedd did not report its address within %v", serviceStartWait)
	}
}

// jobView is the part of GET /v1/jobs/{id} the benchmark reads.
type jobView struct {
	ID        uint64     `json:"id"`
	Status    string     `json:"status"`
	Error     string     `json:"error"`
	Submitted time.Time  `json:"submitted"`
	Started   *time.Time `json:"started"`
	Finished  *time.Time `json:"finished"`
	Rendered  string     `json:"rendered"`
}

// jobTiming is one job's layer observations.
type jobTiming struct {
	submitMS, queueMS, runMS float64
	pollMS                   []float64
}

func (w *jobService) phase(p *phase) error {
	scrape0, err := w.scrape()
	if err != nil {
		return err
	}
	alloc0, err := w.totalAlloc()
	if err != nil {
		return err
	}
	wal0, err := dirBytes(filepath.Join(w.dir, "wal"))
	if err != nil {
		return err
	}
	var (
		next    atomic.Int64
		wg      sync.WaitGroup
		mu      sync.Mutex
		timings []jobTiming
	)
	start := time.Now()
	for c := 0; c < serviceClients; c++ {
		wg.Add(1)
		go func(tenant string) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if !p.more(i, start) {
					return
				}
				t0 := time.Now()
				id := serviceJob(p.seed, i)
				jt, rendered, err := w.job(p.tr, i, tenant, id)
				it := item{index: i, latency: time.Since(t0), err: err}
				if err == nil {
					got := normalizeGolden(id, rendered)
					if got != w.goldens[id] {
						it.err = fmt.Errorf("%s output differs from its golden", id)
					}
					it.digest = id + " " + digestOf(got)
					mu.Lock()
					timings = append(timings, jt)
					mu.Unlock()
				}
				p.record(it)
			}
		}(fmt.Sprintf("bench-%d", c))
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	p.finish(counts{})

	scrape1, err := w.scrape()
	if err != nil {
		return err
	}
	alloc1, err := w.totalAlloc()
	if err != nil {
		return err
	}
	wal1, err := dirBytes(filepath.Join(w.dir, "wal"))
	if err != nil {
		return err
	}
	p.allocBytes = alloc1 - alloc0
	for _, pr := range []*proc{w.coord, w.worker} {
		rss, err := peakRSSMB(pr.pid())
		if err != nil {
			return err
		}
		p.peakRSS += rss
	}
	sl := &p.svc
	for _, jt := range timings {
		sl.submitMS = append(sl.submitMS, jt.submitMS)
		sl.queueMS = append(sl.queueMS, jt.queueMS)
		sl.runMS = append(sl.runMS, jt.runMS)
		sl.pollMS = append(sl.pollMS, jt.pollMS...)
	}
	if n := len(p.items); n > 0 {
		sl.walBytesPerJob = float64(wal1-wal0) / float64(n)
	}
	delta := func(family string) float64 {
		a, _ := scrape0.Value(family) // absent before the first event: zero
		b, _ := scrape1.Value(family)
		return b - a
	}
	hits, misses := delta("vaschedd_die_cache_hits_total"), delta("vaschedd_die_cache_misses_total")
	if hits+misses > 0 {
		sl.hitRatio = hits / (hits + misses)
	}
	p.counts.DieMisses = int64(misses)
	sl.shards = scrape1.Series("cluster_shards_total")[`status="ok"`] - scrape0.Series("cluster_shards_total")[`status="ok"`]
	sl.degraded = scrape1.Series("cluster_runs_total")[`status="degraded"`] - scrape0.Series("cluster_runs_total")[`status="degraded"`]
	if h, ok := scrape1.Histogram("cluster_shard_seconds"); ok && h.Count > 0 {
		sl.shardP50ms = h.Quantile(0.5) * 1e3
	}
	return nil
}

// job submits one job, polls it to its end, and returns its timings
// and rendered output. Any HTTP error, 429, failed or lost job is an
// error.
func (w *jobService) job(tr *tracer, i int, tenant, experiment string) (jobTiming, string, error) {
	var jt jobTiming
	root := tr.start("job", i, -1)
	defer tr.end(root)
	body, _ := json.Marshal(map[string]string{"experiment": experiment, "scale": "quick"}) // cannot fail
	req, err := http.NewRequest(http.MethodPost, w.base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return jt, "", err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Tenant", tenant)
	t0 := time.Now()
	var v jobView
	if err := w.do(req, http.StatusAccepted, &v); err != nil {
		return jt, "", fmt.Errorf("submit %s: %w", experiment, err)
	}
	t1 := time.Now()
	tr.add("vaschedd.submit", i, root, t0, t1)
	jt.submitMS = ms(t1.Sub(t0))
	for v.Status == "queued" || v.Status == "running" {
		if time.Since(t0) > serviceJobLimit {
			return jt, "", fmt.Errorf("job %d (%s) lost: still %s after %v", v.ID, experiment, v.Status, serviceJobLimit)
		}
		if time.Since(t0) < serviceFastFor {
			time.Sleep(servicePollFast)
		} else {
			time.Sleep(servicePollSlow)
		}
		req, err := http.NewRequest(http.MethodGet, fmt.Sprintf("%s/v1/jobs/%d", w.base, v.ID), nil)
		if err != nil {
			return jt, "", err
		}
		p0 := time.Now()
		v = jobView{}
		if err := w.do(req, http.StatusOK, &v); err != nil {
			return jt, "", fmt.Errorf("poll job: %w", err)
		}
		p1 := time.Now()
		tr.add("vaschedd.poll", i, root, p0, p1)
		jt.pollMS = append(jt.pollMS, ms(p1.Sub(p0)))
	}
	if v.Status != "done" {
		return jt, "", fmt.Errorf("job %d (%s) ended %s: %s", v.ID, experiment, v.Status, v.Error)
	}
	if v.Started != nil && v.Finished != nil {
		jt.queueMS = ms(v.Started.Sub(v.Submitted))
		jt.runMS = ms(v.Finished.Sub(*v.Started))
	}
	return jt, v.Rendered, nil
}

func (w *jobService) do(req *http.Request, want int, into any) error {
	resp, err := w.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(b)))
	}
	return json.Unmarshal(b, into)
}

func (w *jobService) get(url string) (string, error) {
	resp, err := w.client.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return string(b), nil
}

func (w *jobService) scrape() (*metrics.Scrape, error) {
	text, err := w.get(w.base + "/metrics")
	if err != nil {
		return nil, err
	}
	return metrics.ParseExposition(text)
}

// totalAlloc reads the coordinator's runtime.MemStats.TotalAlloc from
// its pprof heap endpoint.
func (w *jobService) totalAlloc() (uint64, error) {
	text, err := w.get(w.debug + "/debug/pprof/heap?debug=1")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, "# TotalAlloc = "); ok {
			return strconv.ParseUint(strings.TrimSpace(rest), 10, 64)
		}
	}
	return 0, fmt.Errorf("no TotalAlloc in the coordinator's heap profile")
}

// dirBytes sums the sizes of the regular files in dir.
func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		if info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n, nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
