// Package deploy holds the container and Kubernetes deployment
// artefacts for vaschedd: a multi-stage Dockerfile producing the
// static coordinator/worker binary, and two JSON manifests, each a v1
// List that `kubectl apply -f` accepts. The package's tests decode
// every manifest with encoding/json and schema-validate the wiring —
// selector/label agreement, probe paths, the WAL volume chain, and the
// coordinator→workers Service reference — so drift fails
// `go test ./...` instead of a cluster rollout.
//
// k8s/coordinator.json:
//   - Deployment vaschedd-coordinator: a single replica that owns the
//     WAL PVC. The Recreate strategy plus the job store's epoch fencing
//     make coordinator replacement safe: a new pod acquires a newer
//     epoch on the shared log and the old one (if it briefly overlaps)
//     is fenced into 503s, which the readiness probe turns into traffic
//     removal. Its -workers flag names the workers Service, which
//     load-balances shard RPCs across the autoscaled fleet; the
//     coordinator sees it as one high-capacity worker endpoint.
//   - PersistentVolumeClaim vaschedd-wal: the append-only job log the
//     coordinator replays at boot. ReadWriteOnce is enough because only
//     the one coordinator pod mounts it.
//   - Service vaschedd: the client-facing job API (and /metrics scrapes).
//
// k8s/workers.json:
//   - Deployment vaschedd-worker: stateless shard executors the
//     coordinator dispatches kernel die loops to. Workers hold no durable
//     state (the die cache is a rebuildable optimisation), so they scale
//     horizontally behind one Service.
//   - Service vaschedd-workers: the coordinator's -workers target; shard
//     retries plus hedging (internal/cluster) absorb any pod churn behind
//     it.
//   - HorizontalPodAutoscaler vaschedd-worker: grows the fleet on CPU.
//     Die characterisation is compute-bound, so utilisation tracks queue
//     pressure well, and results are byte-identical at any worker count
//     (the cluster protocol's determinism contract), so autoscaling never
//     changes experiment output, only latency.
package deploy
