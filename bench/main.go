// Command bench is the repository's benchmark: five workloads against the
// real ibox-serve daemon (and, for offline_pipeline, the experiment code
// in process), simulated seconds per wall second end to end, and layer
// numbers from a separate traced pass. See README.md for the glossary.
//
// The driver's contract (BENCHMARK.json):
//
//	bash bench/run.sh --workload W --seed N --seconds S --trace 0|1
//
// prints, as the last line of standard output, one JSON object with the
// keys correct, attempted, failed and metrics. Everything a person reads
// goes to standard error. Without --workload the whole suite runs
// (every workload, then the traced pass) and a result file is written;
// -aa runs the suite twice on the same build and compares the two.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef names one metric of BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// runSeconds is how long one run measures (BENCHMARK.json run_seconds).
const runSeconds = 15

// endToEnd are the metrics every workload reports with tracing off. The
// driver requires one list for all workloads, so only metrics with a
// meaning on all five are here; README.md says what each means per
// workload, and the workload-specific figures (p90, time to first chunk,
// pace ratio, lag) are printed on standard error and written to the
// result file.
//
// Each bound is at least three times the widest interquartile spread seen
// for the metric on any workload over ten seeds on the 2-vCPU reference
// sandbox (README.md, "Run-to-run spread"), where two runs of the same
// code and seed already differ by 4–7 %.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"sim_s_per_wall_s", "sim-s/s", "higher", 0.20},
	{"cpu_s_per_sim_s", "cpu-s/sim-s", "lower", 0.20},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"peak_rss_mb", "MiB", "lower", 0.25},
}

// workloadDef names one workload and why it exists.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	run  func(*config) (*result, error)
}

var workloads = []workloadDef{
	{"replay_paper", "Paper-scale 256x4 LSTM replay (sec 4.2 shape): nn does ~88% of the work, so kernel, lane-batching and stream changes show here and nowhere else.", runReplayPaper},
	{"replay_bulk", "Same route on small 96x1 checkpoints with 2 MB traces: JSON decode/encode and per-packet sampling dominate; a kernel change must not move it.", runReplayBulk},
	{"replay_tiny", "Smallest messages (~30 KB, ~1 ms of model work): batch window, admission, pool hand-off and net/http are most of the latency.", runReplayTiny},
	{"session_live", "Live /v1/sessions: paced sessions with SSE and mutations, then unpaced sessions; tick-stepped iboxnet/cc/sim, per-group iboxml, pacer, event ring.", runSessionLive},
	{"offline_pipeline", "No HTTP: Fig2+Fig3+Table1 on one shared par.Pool; the only workload that trains (BPTT), fits (Estimate), generates ground truth and nests PoolMap.", runOfflinePipeline},
}

// config is everything one run needs.
type config struct {
	root     string // checkout root
	serveBin string
	workDir  string // this run's scratch directory under .bench_build
	seed     int64
	seconds  float64
	nproc    int
	sz       sizes
	corrupt  bool
	logf     func(format string, args ...any)
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run of one workload (or the traced pass) produced.
type result struct {
	Workload  string             `json:"workload"`
	Why       string             `json:"why,omitempty"`
	Seed      int64              `json:"seed"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]value   `json:"metrics"`
	Detail    map[string]float64 `json:"detail,omitempty"` // workload-specific figures, not gated
	Phases    []phaseCount       `json:"phases,omitempty"`
	Failures  []string           `json:"failures,omitempty"` // first few failure reasons
	Invalid   []string           `json:"invalid,omitempty"`  // harness validity warnings
}

type phaseCount struct {
	Name      string `json:"name"`
	Attempted int    `json:"attempted"`
	Succeeded int    `json:"succeeded"`
	Failed    int    `json:"failed"`
}

func newResult(name string, seed int64) *result {
	return &result{Workload: name, Seed: seed, Metrics: map[string]value{}, Detail: map[string]float64{}}
}

// count adds one phase's operations to the totals.
func (r *result) count(name string, attempted, failed int) {
	r.Phases = append(r.Phases, phaseCount{name, attempted, attempted - failed, failed})
	r.Attempted += attempted
	r.Failed += failed
}

// phaseSince records as one phase the operations counted since the
// totals stood at (attempted, failed).
func (r *result) phaseSince(name string, attempted, failed int) {
	a, f := r.Attempted-attempted, r.Failed-failed
	r.Phases = append(r.Phases, phaseCount{name, a, a - f, f})
}

// fail records one failed operation outside a counted phase.
func (r *result) fail(format string, args ...any) {
	r.Attempted++
	r.Failed++
	r.note(format, args...)
}

// check counts one verification; a false ok is a failed operation.
func (r *result) check(ok bool, format string, args ...any) {
	if ok {
		r.Attempted++
		return
	}
	r.fail(format, args...)
}

func (r *result) note(format string, args ...any) {
	if len(r.Failures) < 8 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

func (r *result) set(defs []metricDef, name string, v float64) {
	for _, d := range defs {
		if d.Name == name {
			r.Metrics[name] = value{v, d.Unit}
			return
		}
	}
	panic("bench: metric " + name + " is not declared")
}

// finish decides correctness and checks that exactly the declared
// metrics were reported.
func (r *result) finish(defs []metricDef) error {
	r.Correct = r.Failed == 0 && r.Attempted > 0
	for _, d := range defs {
		if _, ok := r.Metrics[d.Name]; !ok {
			return fmt.Errorf("%s: metric %s was not measured", r.Workload, d.Name)
		}
	}
	return nil
}

// contractLine is the driver-facing last line of standard output.
func (r *result) contractLine() string {
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		panic(err)
	}
	return string(b)
}

// report prints a run for a person.
func (r *result) report(w *os.File, defs []metricDef) {
	fmt.Fprintf(w, "== %s  seed %d  correct=%v  attempted=%d failed=%d (fail_ratio %.4f)\n",
		r.Workload, r.Seed, r.Correct, r.Attempted, r.Failed, float64(r.Failed)/float64(max(r.Attempted, 1)))
	for _, p := range r.Phases {
		fmt.Fprintf(w, "   phase %-12s attempted %6d  succeeded %6d  failed %d\n", p.Name, p.Attempted, p.Succeeded, p.Failed)
	}
	for _, d := range defs {
		fmt.Fprintf(w, "   %-44s %14.6g %s\n", d.Name, r.Metrics[d.Name].Value, d.Unit)
	}
	keys := make([]string, 0, len(r.Detail))
	for k := range r.Detail {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "   · %-42s %14.6g\n", k, r.Detail[k])
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "   FAIL %s\n", f)
	}
	for _, f := range r.Invalid {
		fmt.Fprintf(w, "   INVALID %s\n", f)
	}
}

// findRoot locates the checkout root: the directory holding cmd/ibox-serve.
func findRoot(hint string) (string, error) {
	for _, dir := range []string{hint, ".", ".."} {
		if dir == "" {
			continue
		}
		if _, err := os.Stat(filepath.Join(dir, "cmd", "ibox-serve", "main.go")); err == nil {
			return filepath.Abs(dir)
		}
	}
	return "", fmt.Errorf("cannot find the repository root (cmd/ibox-serve) from %q; pass -root", hint)
}

func main() {
	if spec := os.Getenv(childEnv); spec != "" {
		os.Exit(pipelineChild(spec))
	}
	var (
		root     = flag.String("root", "", "repository checkout root (default: . or ..)")
		workload = flag.String("workload", "", "one workload to run; empty runs the whole suite")
		seed     = flag.Int64("seed", 1, "seed for every generated input")
		seconds  = flag.Float64("seconds", runSeconds, "how long one run measures")
		traced   = flag.Int("trace", 0, "1 runs the traced pass (per-layer metrics) instead of the timed workload")
		out      = flag.String("out", "", "suite mode: result file (default .bench_build/results/result-seed-N.json)")
		aa       = flag.Bool("aa", false, "run the suite twice on the same build and compare against the bounds")
		manifest = flag.Bool("manifest", false, "print BENCHMARK.json and exit")
		corrupt  = flag.Bool("corrupt", false, "damage one golden response, to prove a wrong output fails the run")
	)
	flag.Parse()
	if *manifest {
		fmt.Println(manifestJSON())
		return
	}
	if err := run(*root, *workload, *seed, *seconds, *traced == 1, *out, *aa, *corrupt); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(rootHint, workload string, seed int64, seconds float64, traced bool, out string, aa, corrupt bool) error {
	if seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	root, err := findRoot(rootHint)
	if err != nil {
		return err
	}
	t0 := time.Now()
	bin, err := buildServe(root)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "built cmd/ibox-serve in %.2fs\n", time.Since(t0).Seconds())
	base := &config{
		root: root, serveBin: bin, seed: seed, seconds: seconds,
		nproc: runtime.NumCPU(), sz: defaultSizes(), corrupt: corrupt,
		logf: func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) },
	}

	if workload != "" {
		r, defs, err := runOne(base, workload, traced)
		if err != nil {
			return err
		}
		r.report(os.Stderr, defs)
		fmt.Println(r.contractLine())
		if !r.Correct {
			return fmt.Errorf("%s: %d of %d operations failed verification", r.Workload, r.Failed, r.Attempted)
		}
		return nil
	}

	first, err := runSuite(base)
	if err != nil {
		return err
	}
	if out == "" {
		out = filepath.Join(root, ".bench_build", "results", fmt.Sprintf("result-seed-%d.json", seed))
	}
	if err := first.write(out); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", out)
	ok := first.correct()
	if aa {
		second, err := runSuite(base)
		if err != nil {
			return err
		}
		if err := second.write(strings.TrimSuffix(out, ".json") + ".second.json"); err != nil {
			return err
		}
		ok = compareAA(os.Stdout, first, second) && second.correct() && ok
	}
	if !ok {
		return fmt.Errorf("suite failed")
	}
	return nil
}

// runOne runs one workload, or the traced pass in its place, in a scratch
// directory of its own that is removed when the run verified.
func runOne(base *config, name string, traced bool) (*result, []metricDef, error) {
	var wl *workloadDef
	for i := range workloads {
		if workloads[i].Name == name {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		return nil, nil, fmt.Errorf("unknown workload %q", name)
	}
	cfg := *base
	dir, err := os.MkdirTemp(mkRuns(base.root), name+"-")
	if err != nil {
		return nil, nil, err
	}
	cfg.workDir = dir
	var r *result
	defs := endToEnd
	if traced {
		defs = perLayer
		r, err = runTraced(&cfg, name)
	} else {
		r, err = wl.run(&cfg)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w (scratch kept in %s)", name, err, dir)
	}
	r.Why = wl.Why
	if err := r.finish(defs); err != nil {
		return nil, nil, err
	}
	if r.Correct {
		os.RemoveAll(dir)
	} else {
		cfg.logf("scratch kept in %s", dir)
	}
	return r, defs, nil
}

func mkRuns(root string) string {
	dir := filepath.Join(root, ".bench_build", "runs")
	os.MkdirAll(dir, 0o755)
	return dir
}

// manifestJSON renders BENCHMARK.json from the tables in this program, so
// the file and the program cannot name different metrics.
func manifestJSON() string {
	strip := func(defs []metricDef, bound bool) []map[string]any {
		var out []map[string]any
		for _, d := range defs {
			m := map[string]any{"name": d.Name, "unit": d.Unit, "better": d.Better}
			if bound {
				m["bound"] = d.Bound
			}
			out = append(out, m)
		}
		return out
	}
	var wls []map[string]string
	for _, w := range workloads {
		wls = append(wls, map[string]string{"name": w.Name, "why": w.Why})
	}
	b, err := json.MarshalIndent(map[string]any{
		"command":     []string{"bash", "bench/run.sh"},
		"paths":       []string{"bench"},
		"run_seconds": runSeconds,
		"workloads":   wls,
		"end_to_end":  strip(endToEnd, true),
		"per_layer":   strip(perLayer, false),
	}, "", "  ")
	if err != nil {
		panic(err)
	}
	return string(b)
}
