package experiments

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"vasched/internal/chip"
	"vasched/internal/cluster"
	"vasched/internal/diecache"
)

// quickEnvWithCache builds a quick Env wired to its own private die
// cache (instead of the process-wide shared one), so tests can audit
// counters and force evictions without cross-test interference.
func quickEnvWithCache(t *testing.T, c *diecache.Cache) *Env {
	t.Helper()
	e, err := QuickEnv()
	if err != nil {
		t.Fatal(err)
	}
	e.dies = c
	return e
}

// collectKernel runs the die-ratios kernel locally over n dies and
// returns the per-die blobs — the byte-comparable unit the determinism
// wall is built on.
func collectKernel(t *testing.T, e *Env, n int) [][]byte {
	t.Helper()
	blobs := make([][]byte, n)
	if err := e.ForDiesKernel(kernelDieRatios, n, func(i int, b []byte) error {
		blobs[i] = append([]byte(nil), b...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return blobs
}

// TestChipCacheColdWarmEvict proves the cache is invisible in the
// outputs: the same kernel over the same dies yields byte-identical
// blobs whether the cache is cold, warm, or so small that every die is
// evicted and regenerated between runs.
func TestChipCacheColdWarmEvict(t *testing.T) {
	const n = 6
	cold := quickEnvWithCache(t, diecache.New(16, ""))
	want := collectKernel(t, cold, n)

	// Warm: same Env, same cache — every die must be a memory hit.
	st0 := cold.dies.Stats()
	warm := collectKernel(t, cold, n)
	st1 := cold.dies.Stats()
	if st1.Misses != st0.Misses {
		t.Fatalf("warm run missed %d times", st1.Misses-st0.Misses)
	}
	for i := range want {
		if !bytes.Equal(want[i], warm[i]) {
			t.Fatalf("die %d blob changed between cold and warm runs", i)
		}
	}

	// Evicting: cap 1 can never hold the working set, so (almost) every
	// access regenerates — and the blobs still cannot tell.
	thrash := quickEnvWithCache(t, diecache.New(1, ""))
	for round := 0; round < 2; round++ {
		got := collectKernel(t, thrash, n)
		for i := range want {
			if !bytes.Equal(want[i], got[i]) {
				t.Fatalf("round %d: die %d blob differs under eviction pressure", round, i)
			}
		}
	}
	if l := thrash.dies.Len(); l > 1 {
		t.Fatalf("cap-1 cache holds %d entries", l)
	}
}

// TestWarmRepeatZeroSamplerInvocations is the acceptance audit: an
// identical second run must touch the GRF sampler zero times — every die
// comes out of the content-addressed cache. The count is taken from the
// generator itself (one increment per map drawn), not inferred from
// timing.
func TestWarmRepeatZeroSamplerInvocations(t *testing.T) {
	const n = 5
	e := quickEnvWithCache(t, diecache.New(64, ""))
	collectKernel(t, e, n)
	if c := e.gen.SampleCount(); c == 0 {
		t.Fatal("cold run drew no samples; the audit is vacuous")
	}
	before := e.gen.SampleCount()
	collectKernel(t, e, n)
	if after := e.gen.SampleCount(); after != before {
		t.Fatalf("warm repeat drew %d samples, want 0", after-before)
	}

	// The same holds across Envs: a second Env with identical model
	// config content-addresses into the same entries, so its own
	// generator is never invoked at all.
	e2 := quickEnvWithCache(t, e.dies)
	collectKernel(t, e2, n)
	if c := e2.gen.SampleCount(); c != 0 {
		t.Fatalf("sibling Env drew %d samples despite a warm shared cache", c)
	}
}

// TestDiskLayerSurvivesRestart simulates a process restart: a brand-new
// cache (new memory layer, new Env, new generator) over the same blob
// directory must produce byte-identical results from disk with zero
// sampler invocations.
func TestDiskLayerSurvivesRestart(t *testing.T) {
	const n = 4
	dir := t.TempDir()
	first := quickEnvWithCache(t, diecache.New(16, dir))
	want := collectKernel(t, first, n)
	if st := first.dies.Stats(); st.BytesWritten == 0 {
		t.Fatalf("no blobs written: %+v", st)
	}

	second := quickEnvWithCache(t, diecache.New(16, dir))
	got := collectKernel(t, second, n)
	for i := range want {
		if !bytes.Equal(want[i], got[i]) {
			t.Fatalf("die %d blob differs after restart", i)
		}
	}
	if c := second.gen.SampleCount(); c != 0 {
		t.Fatalf("restarted Env drew %d samples despite the blob store", c)
	}
	if st := second.dies.Stats(); st.DiskHits != n {
		t.Fatalf("restart stats %+v, want %d disk hits", st, n)
	}
}

// TestConfigHashIsolatesConfigs: Envs whose model configs differ must
// never alias cache entries, even sharing one cache — the content
// address diverges.
func TestConfigHashIsolatesConfigs(t *testing.T) {
	c := diecache.New(64, "")
	a := quickEnvWithCache(t, c)
	b, err := QuickEnv()
	if err != nil {
		t.Fatal(err)
	}
	b.VarCfg.VthSigmaOverMu = 0.06 // a different die distribution
	if err := b.init(); err != nil {
		t.Fatal(err)
	}
	b.dies = c
	if a.ConfigHash() == b.ConfigHash() {
		t.Fatal("different configs share a hash")
	}
	if _, err := a.Chip(0); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Chip(0); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Misses != 2 || st.Hits != 0 {
		t.Fatalf("stats %+v: distinct configs must both miss", st)
	}
}

// TestShardConfigHashMismatch: a worker must refuse a shard whose config
// hash disagrees with its rebuilt Env instead of computing dies from the
// wrong model.
func TestShardConfigHashMismatch(t *testing.T) {
	x := NewExecutor(1)
	req := &cluster.ShardRequest{
		Kernel: kernelDieRatios, Scale: "quick", Seed: 2008, BatchSeed: 1,
		ConfigHash: 0xdeadbeef, Dies: []int{0},
	}
	if _, err := x.ExecuteShard(t.Context(), req); err == nil || !strings.Contains(err.Error(), "config hash") {
		t.Fatalf("mismatched hash error = %v", err)
	}
	// Zero hash (legacy/hand-built) skips the check; the correct hash
	// passes it.
	e, err := QuickEnv()
	if err != nil {
		t.Fatal(err)
	}
	req.ConfigHash = e.ConfigHash()
	if _, err := x.ExecuteShard(t.Context(), req); err != nil {
		t.Fatalf("matching hash rejected: %v", err)
	}
}

// TestFig5SamplesEachPairOnce pins fig5's sampling cost. At Workers=1 on
// a private cache, each sigma/mu variant draws every die pair's transform
// once: 2 sampler calls per pair, NumDies per variant in all. A variant
// rebuilt per kernel index would lose the generator's pair cache and
// sample every pair twice.
func TestFig5SamplesEachPairOnce(t *testing.T) {
	e := quickEnvWithCache(t, diecache.New(1024, ""))
	e.Workers = 1
	if _, err := Fig5(e); err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, sm := range fig5Sigmas {
		v, ok := e.variants.envs[sm]
		if !ok {
			t.Fatalf("no variant cached for sigma/mu %.2f", sm)
		}
		total += v.gen.SampleCount()
	}
	if want := int64(len(fig5Sigmas) * e.NumDies); total != want {
		t.Fatalf("fig5 sampler invocations = %d, want %d (one transform per die pair)", total, want)
	}
}

// TestABBDieBuiltOnce pins ext-abb's biased die to one build per Env:
// shallow copies (as a worker's Executor makes per shard) asking for it
// at once, as concurrent kernel trials do, all get the same chip.
func TestABBDieBuiltOnce(t *testing.T) {
	e, err := QuickEnv()
	if err != nil {
		t.Fatal(err)
	}
	got := make([]*chip.Chip, 4)
	errs := make([]error, len(got))
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cp := *e
			got[i], errs[i] = cp.abbDie()
		}(i)
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if got[i] == nil || got[i] != got[0] {
			t.Fatalf("copy %d got biased die %p, copy 0 got %p", i, got[i], got[0])
		}
	}
}
