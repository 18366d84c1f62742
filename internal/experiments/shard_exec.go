package experiments

import (
	"context"
	"fmt"
	"sync"

	"vasched/internal/cluster"
)

// Executor is the worker-side bridge between the cluster protocol and
// the experiment kernels: it rebuilds the stock Env a shard request
// names (by scale + seeds) and runs the requested kernel over the
// shard's indices through the local farm pool. Envs are cached per
// (scale, seed, batch seed), so repeated shards of one experiment share
// the process-wide die cache exactly like a local run would.
type Executor struct {
	workers int

	mu   sync.Mutex
	envs map[envKey]*Env
}

type envKey struct {
	scale     string
	seed      int64
	batchSeed int64
}

// NewExecutor returns an executor whose kernel loops use the given farm
// worker count (0 = GOMAXPROCS).
func NewExecutor(workers int) *Executor {
	return &Executor{workers: workers, envs: make(map[envKey]*Env)}
}

// ExecuteShard implements cluster.Executor.
func (x *Executor) ExecuteShard(ctx context.Context, req *cluster.ShardRequest) (*cluster.ShardResponse, error) {
	base, err := x.env(req.Scale, req.Seed, req.BatchSeed)
	if err != nil {
		return nil, err
	}
	// A shard names only a stock scale; the config hash proves both
	// binaries actually mean the same model by it. A mismatch is version
	// skew (divergent defaults, schema drift) — refusing here keeps a
	// mixed-version cluster loudly broken instead of quietly returning
	// dies from a different distribution.
	if req.ConfigHash != 0 && req.ConfigHash != base.ConfigHash() {
		return nil, fmt.Errorf("experiments: shard config hash %016x does not match worker's %q env %016x (version skew?)",
			req.ConfigHash, req.Scale, base.ConfigHash())
	}
	// Shallow copy so the request's context doesn't race with concurrent
	// shards sharing the cached Env (the copy shares the generator, die
	// cache and fig5 variants through pointers). The stock Env has no
	// Cluster, so the kernel runs on the local farm.
	env := *base
	env.SetContext(ctx)
	blobs := make([][]byte, 0, len(req.Dies))
	err = env.ForDiesKernelIndices(ctx, req.Kernel, req.Dies, func(_ int, blob []byte) error {
		blobs = append(blobs, blob)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &cluster.ShardResponse{Blobs: blobs}, nil
}

// env returns the cached stock Env for the key, building it on first use.
func (x *Executor) env(scale string, seed, batchSeed int64) (*Env, error) {
	key := envKey{scale: scale, seed: seed, batchSeed: batchSeed}
	x.mu.Lock()
	defer x.mu.Unlock()
	if e, ok := x.envs[key]; ok {
		return e, nil
	}
	var (
		e   *Env
		err error
	)
	switch scale {
	case "quick":
		e, err = QuickEnv()
	case "default":
		e, err = DefaultEnv()
	default:
		return nil, fmt.Errorf("experiments: shard request names unknown scale %q", scale)
	}
	if err != nil {
		return nil, err
	}
	e.Seed = seed
	e.BatchSeed = batchSeed
	e.Workers = x.workers
	x.envs[key] = e
	return e, nil
}
