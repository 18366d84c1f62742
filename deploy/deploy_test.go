package deploy

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// loadManifests decodes every deploy/k8s/*.json — each a v1 List, the
// form `kubectl apply -f` takes — into (file, items) pairs.
func loadManifests(t *testing.T) map[string][]any {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("k8s", "*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no manifests under deploy/k8s (err=%v)", err)
	}
	out := map[string][]any{}
	for _, path := range paths {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.UseNumber()
		var list any
		if err := dec.Decode(&list); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if _, err := dec.Token(); err != io.EOF {
			t.Fatalf("%s: content after the manifest", path)
		}
		if api, _ := getString(list, "apiVersion"); api != "v1" {
			t.Fatalf("%s: apiVersion %q, want v1 (a List)", path, api)
		}
		if kind, _ := getString(list, "kind"); kind != "List" {
			t.Fatalf("%s: kind %q, want List", path, kind)
		}
		items, _ := get(list, "items")
		docs, _ := items.([]any)
		if len(docs) == 0 {
			t.Fatalf("%s: no items", path)
		}
		out[path] = docs
	}
	return out
}

// get walks a decoded manifest by object keys and integer list indexes
// (path elements like "spec", "containers", "0", "image"), returning
// nil, false when any step is missing or mistyped.
func get(doc any, path ...string) (any, bool) {
	cur := doc
	for _, step := range path {
		switch node := cur.(type) {
		case map[string]any:
			v, ok := node[step]
			if !ok {
				return nil, false
			}
			cur = v
		case []any:
			i, err := strconv.Atoi(step)
			if err != nil || i < 0 || i >= len(node) {
				return nil, false
			}
			cur = node[i]
		default:
			return nil, false
		}
	}
	return cur, true
}

// getString is get for string leaves.
func getString(doc any, path ...string) (string, bool) {
	v, _ := get(doc, path...)
	s, ok := v.(string)
	return s, ok
}

// getInt is get for integer leaves.
func getInt(doc any, path ...string) (int64, bool) {
	v, _ := get(doc, path...)
	n, ok := v.(json.Number)
	if !ok {
		return 0, false
	}
	i, err := n.Int64()
	return i, err == nil
}

// find returns the first document with the given kind and name.
func find(t *testing.T, manifests map[string][]any, kind, name string) any {
	t.Helper()
	for _, docs := range manifests {
		for _, doc := range docs {
			k, _ := getString(doc, "kind")
			n, _ := getString(doc, "metadata", "name")
			if k == kind && n == name {
				return doc
			}
		}
	}
	t.Fatalf("no %s %q in deploy/k8s", kind, name)
	return nil
}

// labelsMatch asserts every key in selector appears with the same value
// in labels — the check kubectl apply defers to admission time.
func labelsMatch(t *testing.T, what string, selector, labels any) {
	t.Helper()
	sel, ok := selector.(map[string]any)
	if !ok || len(sel) == 0 {
		t.Fatalf("%s: selector is %#v", what, selector)
	}
	lab, _ := labels.(map[string]any)
	for k, v := range sel {
		if lab[k] != v {
			t.Errorf("%s: selector %s=%v not carried by labels %v", what, k, v, lab)
		}
	}
}

// TestManifestsWellFormed is the kubectl-dry-run-shaped gate: every
// object decodes and carries the fields the API server would demand
// first.
func TestManifestsWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for path, docs := range loadManifests(t) {
		for i, doc := range docs {
			where := fmt.Sprintf("%s doc %d", path, i)
			api, ok := getString(doc, "apiVersion")
			if !ok || api == "" {
				t.Errorf("%s: missing apiVersion", where)
			}
			kind, ok := getString(doc, "kind")
			if !ok || kind == "" {
				t.Errorf("%s: missing kind", where)
			}
			name, ok := getString(doc, "metadata", "name")
			if !ok || name == "" {
				t.Errorf("%s: missing metadata.name", where)
			}
			if key := kind + "/" + name; seen[key] {
				t.Errorf("%s: duplicate object %s", where, key)
			} else {
				seen[key] = true
			}
			if app, _ := getString(doc, "metadata", "labels", "app"); app != "vaschedd" {
				t.Errorf("%s: metadata.labels.app = %q, want vaschedd", where, app)
			}
		}
	}
	for _, want := range []string{
		"Deployment/vaschedd-coordinator", "PersistentVolumeClaim/vaschedd-wal", "Service/vaschedd",
		"Deployment/vaschedd-worker", "Service/vaschedd-workers", "HorizontalPodAutoscaler/vaschedd-worker",
	} {
		if !seen[want] {
			t.Errorf("missing object %s", want)
		}
	}
}

func TestCoordinatorDeployment(t *testing.T) {
	manifests := loadManifests(t)
	dep := find(t, manifests, "Deployment", "vaschedd-coordinator")

	sel, _ := get(dep, "spec", "selector", "matchLabels")
	labels, _ := get(dep, "spec", "template", "metadata", "labels")
	labelsMatch(t, "coordinator deployment", sel, labels)

	// One replica over a Recreate strategy: the WAL PVC is RWO, and
	// epoch fencing (not rolling overlap) is the handover mechanism.
	if n, _ := getInt(dep, "spec", "replicas"); n != 1 {
		t.Errorf("coordinator replicas = %d, want 1 (single WAL owner)", n)
	}
	if s, _ := getString(dep, "spec", "strategy", "type"); s != "Recreate" {
		t.Errorf("coordinator strategy = %q, want Recreate", s)
	}

	c, ok := get(dep, "spec", "template", "spec", "containers", "0")
	if !ok {
		t.Fatal("coordinator has no containers")
	}
	if img, _ := getString(c, "image"); !strings.Contains(img, "vaschedd") {
		t.Errorf("container image = %q", img)
	}
	if path, _ := getString(c, "readinessProbe", "httpGet", "path"); path != "/healthz" {
		t.Errorf("readiness path = %q, want /healthz", path)
	}
	port, _ := getInt(c, "readinessProbe", "httpGet", "port")
	cport, _ := getInt(c, "ports", "0", "containerPort")
	if port != cport {
		t.Errorf("readiness port %d != containerPort %d", port, cport)
	}

	// The WAL chain: -data-dir arg → volumeMount → volume → PVC, and
	// the PVC object exists with a usable access mode.
	args := argStrings(t, c)
	dataDir := argValue(args, "-data-dir")
	if dataDir == "" {
		t.Fatal("coordinator args carry no -data-dir (WAL disabled?)")
	}
	mountName := ""
	if mounts, ok := get(c, "volumeMounts"); ok {
		for _, m := range mounts.([]any) {
			if mp, _ := getString(m, "mountPath"); mp == dataDir {
				mountName, _ = getString(m, "name")
			}
		}
	}
	if mountName == "" {
		t.Fatalf("no volumeMount covers -data-dir %s", dataDir)
	}
	claim := ""
	if vols, ok := get(dep, "spec", "template", "spec", "volumes"); ok {
		for _, v := range vols.([]any) {
			if n, _ := getString(v, "name"); n == mountName {
				claim, _ = getString(v, "persistentVolumeClaim", "claimName")
			}
		}
	}
	if claim == "" {
		t.Fatalf("volume %q is not PVC-backed", mountName)
	}
	pvc := find(t, manifests, "PersistentVolumeClaim", claim)
	if mode, _ := getString(pvc, "spec", "accessModes", "0"); mode != "ReadWriteOnce" {
		t.Errorf("PVC access mode = %q", mode)
	}

	// The coordinator's -workers flag must point at the worker Service's
	// name and port, or the fleet silently idles.
	workersURL := argValue(args, "-workers")
	svc := find(t, manifests, "Service", "vaschedd-workers")
	svcPort, _ := getInt(svc, "spec", "ports", "0", "port")
	if want := fmt.Sprintf("http://vaschedd-workers:%d", svcPort); workersURL != want {
		t.Errorf("-workers = %q, want %q", workersURL, want)
	}

	// The client Service routes to this deployment.
	api := find(t, manifests, "Service", "vaschedd")
	apiSel, _ := get(api, "spec", "selector")
	labelsMatch(t, "api service", apiSel, labels)
	if p, _ := getInt(api, "spec", "ports", "0", "targetPort"); p != cport {
		t.Errorf("api service targetPort %d != containerPort %d", p, cport)
	}
}

func TestWorkerFleet(t *testing.T) {
	manifests := loadManifests(t)
	dep := find(t, manifests, "Deployment", "vaschedd-worker")

	sel, _ := get(dep, "spec", "selector", "matchLabels")
	labels, _ := get(dep, "spec", "template", "metadata", "labels")
	labelsMatch(t, "worker deployment", sel, labels)

	c, ok := get(dep, "spec", "template", "spec", "containers", "0")
	if !ok {
		t.Fatal("worker has no containers")
	}
	args := argStrings(t, c)
	if len(args) == 0 || args[0] != "-worker" {
		t.Errorf("worker args = %v, want -worker mode first", args)
	}
	if path, _ := getString(c, "readinessProbe", "httpGet", "path"); path != "/healthz" {
		t.Errorf("worker readiness path = %q", path)
	}
	if _, ok := getString(c, "resources", "requests", "cpu"); !ok {
		t.Error("worker has no CPU request (the HPA's utilisation target needs one)")
	}

	svc := find(t, manifests, "Service", "vaschedd-workers")
	svcSel, _ := get(svc, "spec", "selector")
	labelsMatch(t, "worker service", svcSel, labels)
	port, _ := getInt(svc, "spec", "ports", "0", "targetPort")
	cport, _ := getInt(c, "ports", "0", "containerPort")
	if port != cport {
		t.Errorf("worker service targetPort %d != containerPort %d", port, cport)
	}

	hpa := find(t, manifests, "HorizontalPodAutoscaler", "vaschedd-worker")
	if kind, _ := getString(hpa, "spec", "scaleTargetRef", "kind"); kind != "Deployment" {
		t.Errorf("HPA targets kind %q", kind)
	}
	if name, _ := getString(hpa, "spec", "scaleTargetRef", "name"); name != "vaschedd-worker" {
		t.Errorf("HPA targets %q, want vaschedd-worker", name)
	}
	minR, _ := getInt(hpa, "spec", "minReplicas")
	maxR, _ := getInt(hpa, "spec", "maxReplicas")
	repl, _ := getInt(dep, "spec", "replicas")
	if minR < 1 || minR > maxR {
		t.Errorf("HPA range [%d, %d] is not sane", minR, maxR)
	}
	if repl < minR || repl > maxR {
		t.Errorf("worker replicas %d outside HPA range [%d, %d]", repl, minR, maxR)
	}
	if mt, _ := getString(hpa, "spec", "metrics", "0", "resource", "name"); mt != "cpu" {
		t.Errorf("HPA metric = %q, want cpu", mt)
	}
}

// TestDockerfile pins the image contract the manifests assume: a
// multi-stage build producing the vaschedd entrypoint with the WAL
// volume at the path the coordinator mounts its PVC.
func TestDockerfile(t *testing.T) {
	raw, err := os.ReadFile("Dockerfile")
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	if n := strings.Count(text, "\nFROM ") + boolToInt(strings.HasPrefix(text, "FROM ")); n < 2 {
		t.Errorf("Dockerfile has %d stages, want a multi-stage build", n)
	}
	for _, want := range []string{
		"CGO_ENABLED=0", "./cmd/vaschedd",
		`ENTRYPOINT ["/usr/local/bin/vaschedd"]`, "VOLUME /var/lib/vaschedd",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("Dockerfile missing %q", want)
		}
	}
}

// argStrings flattens a container's args to strings.
func argStrings(t *testing.T, container any) []string {
	t.Helper()
	raw, ok := get(container, "args")
	if !ok {
		return nil
	}
	var out []string
	for _, a := range raw.([]any) {
		s, ok := a.(string)
		if !ok {
			s = fmt.Sprint(a)
		}
		out = append(out, s)
	}
	return out
}

// argValue returns the value following a flag in an args list.
func argValue(args []string, flag string) string {
	for i, a := range args {
		if a == flag && i+1 < len(args) {
			return args[i+1]
		}
	}
	return ""
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
