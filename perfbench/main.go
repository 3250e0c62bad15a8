// Command perfbench is wimc's benchmark: it runs one named workload in a
// closed loop for a fixed time, checks every output against a digest, and
// prints the end-to-end metrics (or, with -trace 1, the per-layer metrics)
// as the last line of standard output. See README.md.
package main

import (
	"bufio"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"wimc/internal/engine"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	root     string
	commit   string
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	var traceFlag int
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	fl.StringVar(&o.workload, "workload", "", "workload: paper_figs, sat64 or phased16")
	fl.Int64Var(&o.seed, "seed", 1, "workload seed (0 and 1 both select the configuration default)")
	fl.Float64Var(&o.seconds, "seconds", 20, "measure for this many seconds (at least two operations run)")
	fl.IntVar(&traceFlag, "trace", 0, "1 reports per-layer metrics from traced operations")
	fl.BoolVar(&o.smoke, "smoke", false, "tiny simulation lengths, for the benchmark's own tests")
	fl.StringVar(&o.root, "root", ".", "checkout root; scratch stores go under <root>/.bench_build")
	fl.StringVar(&o.commit, "commit", "none", "git commit of the checkout, for the environment stamp")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	// Every timing assumes this thread budget, on any host.
	runtime.GOMAXPROCS(2)
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintf(stderr, "perfbench: -trace must be 0 or 1, got %d\n", traceFlag)
		return 2
	}
	o.trace = traceFlag == 1

	scratch := filepath.Join(o.root, ".bench_build", "tmp")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	w, err := newWorkload(o.workload, o.seed, o.smoke, scratch)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	env, err := json.Marshal(map[string]any{"env": stamp(o, w)})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(env))

	rep := measure(w, o, stderr)
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// measure runs operations back to back until the time is up (and at least
// two have run, so outputs can be compared), then reports medians. A
// traced run alternates untraced and traced operations: the traced ones
// give the per-layer rows, the untraced ones the wall-clock rows, the
// baseline for the tracing overhead and the CPU-busy fractions. A workload
// with a sharded variant takes turns with it, plain and traced, in traced
// runs.
func measure(w *workload, o options, log io.Writer) report {
	ref := goldenDigest(w, o.smoke)
	refSource := "golden"
	if ref == "" {
		refSource = "first operation"
	}
	var plain, traced, shardPlain, shardTraced []opOut
	attempted, failed := 0, 0
	kinds := 1
	if o.trace {
		kinds = 2
		if w.shardOp != nil {
			kinds = 4
		}
	}
	steal0, total0 := hostSteal()
	start := time.Now()
	limit := time.Duration(o.seconds * float64(time.Second))
	for attempted < max(2, kinds) || time.Since(start) < limit {
		kind := attempted % kinds
		tr, sharded := kind%2 == 1, kind >= 2
		attempted++
		op := w.op
		if sharded {
			op = w.shardOp
		}
		out, err := op(tr)
		if err == nil && out.bad == "" && ref == "" {
			ref = out.digest
		}
		switch {
		case err != nil:
			out.bad = err.Error()
		case out.bad == "" && out.digest != ref:
			out.bad = fmt.Sprintf("output digest %s, want %s (%s)", out.digest, ref, refSource)
		}
		fmt.Fprintf(log, "op %d traced=%v sharded=%v wall_s=%.4f cpu_s=%.4f digest=%s",
			attempted, tr, sharded, out.layers["wall_s"], out.e2e["cpu_s"], out.digest)
		if out.bad != "" {
			failed++
			fmt.Fprintf(log, " FAILED: %s", out.bad)
		}
		fmt.Fprintln(log)
		if out.bad != "" {
			continue
		}
		switch {
		case sharded && tr:
			shardTraced = append(shardTraced, out)
		case sharded:
			shardPlain = append(shardPlain, out)
		case tr:
			traced = append(traced, out)
		default:
			plain = append(plain, out)
		}
	}

	steal1, total1 := hostSteal()
	stealFrac := ratio(steal1-steal0, total1-total0)
	fmt.Fprintf(log, "host steal during the run: %.3f of CPU capacity\n", stealFrac)

	rep := report{Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	names := endToEnd
	if o.trace {
		names = perLayer()
	}
	for _, m := range names {
		p, t := plain, traced
		if shardRows[m.name] && w.shardOp != nil {
			p, t = shardPlain, shardTraced
		}
		var v float64
		switch {
		case !o.trace:
			v = median(plain, func(op opOut) float64 { return op.e2e[m.name] })
		case m.name == "host.steal_frac":
			v = stealFrac
		case m.name == "error_rate":
			v = float64(failed) / float64(attempted)
		case m.name == "trace.overhead_s":
			v = median(traced, func(op opOut) float64 { return op.layers["wall_s"] }) -
				median(plain, func(op opOut) float64 { return op.layers["wall_s"] })
		case untracedRows[m.name]:
			v = median(p, func(op opOut) float64 { return op.layers[m.name] })
		default:
			v = median(t, func(op opOut) float64 { return op.layers[m.name] })
		}
		rep.Metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	rep.Correct = failed == 0
	return rep
}

// median returns the median of f over xs, or 0 for none.
func median[T any](xs []T, f func(T) float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	v := make([]float64, len(xs))
	for i, x := range xs {
		v[i] = f(x)
	}
	sort.Float64s(v)
	if len(v)%2 == 1 {
		return v[len(v)/2]
	}
	return (v[len(v)/2-1] + v[len(v)/2]) / 2
}

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the simulator sees. Times are the
// process's CPU time: on a shared virtual machine, wall time also counts
// the time the hypervisor runs other guests, so it is reported per layer.
var endToEnd = []metricDef{
	{"cpu_s", "s"},
	{"setup_s", "s"},
	{"sim_cycles_per_cpu_s", "cycles/s"},
	{"alloc_mb", "MB"},
	{"live_heap_mb", "MB"},
}

// untracedRows are per-layer rows taken from untraced operations: wall
// time and CPU over wall, which the profiler's own work would distort.
var untracedRows = map[string]bool{
	"wall_s": true, "sim_cycles_per_s": true,
	"exp.worker_busy_frac": true, "engine.shard_busy_frac": true,
}

// shardRows exist only on the sharded step loop; a workload with a
// sharded variant reports them from its sharded operations.
var shardRows = map[string]bool{
	"engine.replay": true, "engine.barrier": true, "engine.shard_busy_frac": true,
}

// perLayer lists the per-layer metrics in report order. Rows that do not
// apply to a workload read 0 (README.md says which apply where).
func perLayer() []metricDef {
	defs := []metricDef{
		{"wall_s", "s"},
		{"sim_cycles_per_s", "cycles/s"},
		{"error_rate", "frac"},
		{"host.steal_frac", "frac"},
		{"trace.overhead_s", "s"},
		{"topo.build_s", "s"},
		{"route.tables_s", "s"},
		{"route.cdg_check_s", "s"},
		{"engine.wire_s", "s"},
		{"topo.switches", "count"},
		{"topo.links", "count"},
	}
	for _, n := range layerNames() {
		defs = append(defs, metricDef{n, "ns/cycle"})
	}
	defs = append(defs,
		metricDef{"engine.run_total", "ns/cycle"},
		metricDef{"engine.skipped_frac", "frac"},
		metricDef{"engine.drain_used_frac", "frac"},
		metricDef{"traffic.accept_frac", "frac"},
	)
	for _, c := range linkClasses {
		defs = append(defs, metricDef{"noc.link_util." + c, "frac"})
	}
	return append(defs,
		metricDef{"core.wi_awake_frac", "frac"},
		metricDef{"engine.shard_busy_frac", "frac"},
		metricDef{"exp.worker_busy_frac", "frac"},
		metricDef{"engine.new_share", "frac"},
		metricDef{"store.put_ms_per_point", "ms"},
		metricDef{"store.get_us_per_point", "us"},
		metricDef{"store.warm_hit_frac", "frac"},
		metricDef{"figures.points", "count"},
	)
}

//go:embed golden.json
var goldenJSON []byte

// goldenDigest returns the committed output digest for this workload, or ""
// when none is committed for the running engine version, seed and length.
// Without one, every operation must match the run's first operation.
func goldenDigest(w *workload, smoke bool) string {
	var g map[string]map[string]string
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return ""
	}
	return g[engine.Version][goldenKey(w, smoke)]
}

func goldenKey(w *workload, smoke bool) string {
	length := "full"
	if smoke {
		length = "smoke"
	}
	return fmt.Sprintf("%s/%s/seed=%d", w.name, length, w.seed)
}

// stamp describes the machine and build the numbers came from.
func stamp(o options, w *workload) map[string]any {
	return map[string]any{
		"nproc":          runtime.NumCPU(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"cpu_model":      cpuModel(),
		"go_version":     runtime.Version(),
		"engine_version": engine.Version,
		"git_commit":     o.commit,
		"source_sha256":  sourceDigest(o.root),
		"pool_workers":   poolWorkers,
		"engine_shards":  runShards,
		"workload":       w.name,
		"seed":           o.seed,
		"config_seed":    w.seed,
		"seconds":        o.seconds,
		"trace":          o.trace,
		"smoke":          o.smoke,
	}
}

// hostSteal returns the steal and total ticks of /proc/stat's cpu line:
// time the hypervisor ran something else while this guest's CPUs had
// work. It reads zeros where /proc/stat is missing.
func hostSteal() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:] {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return 0, 0
		}
		if i == 7 {
			steal = n
		}
		if i < 8 { // guest time is already counted in user time
			total += n
		}
	}
	return steal, total
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes the program's Go sources and go.mod, so numbers can
// be matched to code when the checkout is not a git work tree.
func sourceDigest(root string) string {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || name == "perfbench") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(name, ".go") || name == "go.mod" {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	var all []byte
	for _, p := range files { // WalkDir visits in lexical order
		b, err := os.ReadFile(p)
		if err != nil {
			return "unknown"
		}
		rel, _ := filepath.Rel(root, p)
		all = append(all, rel...)
		all = append(all, 0)
		all = append(all, b...)
	}
	return digest(all)
}
