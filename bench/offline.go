package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"slices"
	"syscall"
	"time"

	"ibox/internal/experiments"
	"ibox/internal/par"
	"ibox/internal/sim"
)

// offline_pipeline runs the paper's central workflow with no HTTP:
// repeated passes of experiments.Fig2 + Fig3 + Table1 on one shared
// par.Pool of nproc workers, at a fixed Scale.
//
// Like the serve workloads, the program under test is a process of its
// own, measured from outside: the benchmark re-executes itself
// sz.pipelineChildren times as a pipeline child (see pipelineChild), each
// child creating its pool, running a small warm-up pass, and then running
// passes in process for its share of --seconds. That makes set-up time a
// median, and peak memory a minimum, over independent processes — a Go
// program's high-water mark depends on where in a pass the collector
// happens to run, and in one process it differed by 18 % between runs of
// the same code.
//
// The experiments sample their paths from Scale.Seed, and a corpus's cost
// and memory follow the path rates it draws: with Scale.Seed taken from
// the benchmark seed, runs of the same code differed by 11 % in wall
// time. So the corpora come from a fixed cycle of corpusSeeds seeds, which
// a run of --seconds goes round about twice; the benchmark seed sets
// where in the cycle the run starts. Every run then does nearly the same
// work, in a different order.
//
//   - sim_s_per_wall_s: total duration of every flow generated or
//     replayed, over the total wall time of the passes;
//   - latency_p50_ms: the median wall time of one pass;
//   - setup_s: child exec → pool created and warm-up pass done;
//   - cpu_s_per_sim_s: the children's CPU over their passes;
//   - peak_rss_mb: the smallest of the children's high-water marks
//     (each child's own VmHWM when its passes are done).

// corpusSeeds is the length of the cycle of Scale.Seed values.
const corpusSeeds = 8

// pipelineScale is the fixed size of one pass.
func pipelineScale(sz sizes, seed int64, pool *par.Pool) experiments.Scale {
	return experiments.Scale{
		EnsembleTraces: sz.ensembleTraces,
		TraceDur:       sz.pipelineDur,
		RTCTraces:      sz.rtcTraces,
		MLEpochs:       sz.mlEpochs,
		Seed:           seed,
		Pool:           pool,
	}
}

// pipelineFlows counts the flows one pass simulates. Fig 2 generates N
// ground-truth control flows and runs, per trace, the treatment on ground
// truth and both protocols on the fitted model (4N); Fig 3 generates N
// and runs 3 flows per trace for each of 3 variants (10N); Table 1
// generates R calls and replays each of the R − ⌊2R/3⌋ held-out calls
// through two models.
func pipelineFlows(s experiments.Scale) int {
	r := max(s.RTCTraces, 6)
	return 4*s.EnsembleTraces + 10*s.EnsembleTraces + r + 2*(r-r*2/3)
}

// pipelinePass runs one pass.
func pipelinePass(s experiments.Scale) (f2 *experiments.Fig2Result, f3 *experiments.Fig3Result, t1 *experiments.Table1Result, err error) {
	if f2, err = experiments.Fig2(s); err != nil {
		return
	}
	if f3, err = experiments.Fig3(s); err != nil {
		return
	}
	t1, err = experiments.Table1(s)
	return
}

// passShapes checks the qualitative shapes internal/experiments' own
// tests assert, with the same slack: the A/B contrast survives
// simulation and full iBoxNet is not beaten by either ablation. It
// returns the violated ones, and whether the cross-traffic input helped
// Table 1 on this pass; that shape is asserted over the whole run,
// because on a corpus this small one pass in sixteen goes the other way.
func passShapes(f2 *experiments.Fig2Result, f3 *experiments.Fig3Result, t1 *experiments.Table1Result) (violated []string, ctHelped bool) {
	g := f2.Groups()
	if !(g["Vegas GT"].P95.Mean < g["Cubic GT"].P95.Mean && g["Vegas iBoxNet"].P95.Mean < g["Cubic iBoxNet"].P95.Mean) {
		violated = append(violated, "fig2: Vegas p95 delay not below Cubic in ground truth and simulation")
	}
	sc := f3.Scores()
	full, noct, stat := sc["iboxnet"], sc["iboxnet-noct"], sc["iboxnet-statloss"]
	if !(full.MAETput <= noct.MAETput+0.2 && full.MAETput <= stat.MAETput+0.2) {
		violated = append(violated, fmt.Sprintf("fig3: full iBoxNet tput MAE %.2f worse than ablations (no-CT %.2f, stat-loss %.2f)", full.MAETput, noct.MAETput, stat.MAETput))
	}
	finite := len(t1.Rows) == 4
	for _, row := range t1.Rows {
		finite = finite && !math.IsNaN(row.ErrNoCT) && !math.IsNaN(row.ErrCT)
	}
	if !finite {
		violated = append(violated, "table1: missing or NaN rows")
	}
	return violated, t1.MeanErrCT() <= t1.MeanErrNoCT()*1.3+2
}

// shapesPerPass is how many assertions passShapes makes.
const shapesPerPass = 3

// childEnv carries a pipeline child's job; a process that finds it set
// is a child (see main and TestMain).
const childEnv = "IBOX_BENCH_PIPELINE_CHILD"

// childJob is what the parent asks of one child: the pass size, the pool
// width, where in the corpus cycle to begin and for how long to run.
type childJob struct {
	Ensemble int     `json:"ensemble_traces"`
	RTC      int     `json:"rtc_traces"`
	Epochs   int     `json:"ml_epochs"`
	FlowS    float64 `json:"flow_s"`
	NProc    int     `json:"nproc"`
	Start    int64   `json:"start"`
	Seconds  float64 `json:"seconds"`
}

// childReport is what a child prints when its passes are done.
type childReport struct {
	WallsMs    []float64 `json:"walls_ms"`
	SimS       float64   `json:"sim_s"`
	WallS      float64   `json:"wall_s"`
	CPUS       float64   `json:"cpu_s"`
	Violated   []string  `json:"violated"`
	CTHelped   int       `json:"ct_helped"`
	Digest     string    `json:"digest"`
	PeakRSSMiB float64   `json:"peak_rss_mib"`
	Error      string    `json:"error,omitempty"`
}

// pipelineChild is the program under test: it sets up, prints "ready",
// runs passes for job.Seconds and prints its report as one JSON line.
func pipelineChild(spec string) int {
	var job childJob
	if err := json.Unmarshal([]byte(spec), &job); err != nil {
		fmt.Fprintln(os.Stderr, "pipeline child:", err)
		return 2
	}
	sz := sizes{ensembleTraces: job.Ensemble, rtcTraces: job.RTC, mlEpochs: job.Epochs, pipelineDur: sim.FromSeconds(job.FlowS)}
	pool := par.NewPool(job.NProc)
	defer pool.Close()
	warm := pipelineScale(sz, 1, pool)
	warm.EnsembleTraces, warm.RTCTraces, warm.MLEpochs = 2, 6, 1
	var rep childReport
	if _, _, _, err := pipelinePass(warm); err != nil {
		rep.Error = "warm-up pass: " + err.Error()
	}
	fmt.Println("ready")

	digest := sha256.New()
	cpu0 := selfCPUSeconds()
	start := time.Now()
	deadline := start.Add(time.Duration(job.Seconds * float64(time.Second)))
	for k := 0; rep.Error == "" && (k == 0 || time.Now().Before(deadline)); k++ {
		s := pipelineScale(sz, 1+(job.Start+int64(k))%corpusSeeds, pool)
		t0 := time.Now()
		f2, f3, t1, err := pipelinePass(s)
		if err != nil {
			rep.Error = fmt.Sprintf("pass %d: %v", k, err)
			break
		}
		rep.WallsMs = append(rep.WallsMs, ms(time.Since(t0)))
		rep.SimS += float64(pipelineFlows(s)) * s.TraceDur.Seconds()
		violated, helped := passShapes(f2, f3, t1)
		for _, v := range violated {
			rep.Violated = append(rep.Violated, fmt.Sprintf("corpus %d %s", s.Seed, v))
		}
		if helped {
			rep.CTHelped++
		}
		fmt.Fprintf(digest, "%s\n%s\n%s\n", f2, f3, t1)
	}
	rep.WallS = time.Since(start).Seconds()
	rep.CPUS = selfCPUSeconds() - cpu0
	rep.Digest = hex.EncodeToString(digest.Sum(nil))[:16]
	// The child reads its own high-water mark: the parent's getrusage view
	// of it (ru_maxrss) starts from the parent's own resident set at fork.
	rss, err := peakRSSMiB(os.Getpid())
	if err != nil && rep.Error == "" {
		rep.Error = err.Error()
	}
	rep.PeakRSSMiB = rss
	b, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pipeline child:", err)
		return 2
	}
	fmt.Println(string(b))
	return 0
}

// runChild executes one pipeline child and returns its report and its
// set-up time (exec → "ready").
func runChild(job childJob) (rep childReport, setup float64, err error) {
	exe, err := os.Executable()
	if err != nil {
		return rep, 0, err
	}
	spec, err := json.Marshal(job)
	if err != nil {
		return rep, 0, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), childEnv+"="+string(spec))
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL} // never outlive the benchmark
	out, err := cmd.StdoutPipe()
	if err != nil {
		return rep, 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return rep, 0, err
	}
	sc := bufio.NewScanner(out)
	sc.Buffer(nil, 1<<20)
	var last string
	for sc.Scan() {
		if setup == 0 && sc.Text() == "ready" {
			setup = time.Since(t0).Seconds()
			continue
		}
		last = sc.Text()
	}
	if werr := cmd.Wait(); werr != nil {
		return rep, 0, fmt.Errorf("pipeline child: %w", werr)
	}
	if err := json.Unmarshal([]byte(last), &rep); err != nil {
		return rep, 0, fmt.Errorf("pipeline child report %q: %w", last, err)
	}
	return rep, setup, nil
}

func runOfflinePipeline(cfg *config) (*result, error) {
	r := newResult("offline_pipeline", cfg.seed)
	n := cfg.sz.pipelineChildren
	var setups, rss, walls []float64
	var simS, wall, cpu float64
	ctHelped := 0
	start := cfg.seed
	for i := 0; i < n; i++ {
		rep, setup, err := runChild(childJob{
			Ensemble: cfg.sz.ensembleTraces, RTC: cfg.sz.rtcTraces, Epochs: cfg.sz.mlEpochs, FlowS: cfg.sz.pipelineDur.Seconds(),
			NProc: cfg.nproc, Start: start, Seconds: cfg.seconds / float64(n),
		})
		if err != nil {
			return nil, err
		}
		if rep.Error != "" {
			r.fail("%s", rep.Error)
		}
		setups, rss = append(setups, setup), append(rss, rep.PeakRSSMiB)
		walls = append(walls, rep.WallsMs...)
		simS, wall, cpu = simS+rep.SimS, wall+rep.WallS, cpu+rep.CPUS
		ctHelped += rep.CTHelped
		start += int64(len(rep.WallsMs)) // the next child continues the cycle
		r.Attempted += shapesPerPass * len(rep.WallsMs)
		r.Failed += len(rep.Violated)
		for _, v := range rep.Violated {
			r.note("%s", v)
		}
		// The digest covers every rendered table of the child's passes:
		// two commits that print the same digests for the same seed and
		// pass counts computed the same results.
		cfg.logf("offline_pipeline child %d: %d passes, result digest %s", i, len(rep.WallsMs), rep.Digest)
	}
	// A majority needs a few passes to mean anything (the smoke test makes one).
	r.check(len(walls) < 4 || 2*ctHelped > len(walls), "table1: CT input lowered the error on only %d of %d passes", ctHelped, len(walls))
	r.Detail["table1.ct_helped_share"] = float64(ctHelped) / float64(max(len(walls), 1))
	r.phaseSince("passes", 0, 0)
	if len(walls) == 0 {
		return r, nil
	}
	r.set(endToEnd, "setup_s", median(setups))
	r.set(endToEnd, "sim_s_per_wall_s", simS/wall)
	r.set(endToEnd, "cpu_s_per_sim_s", cpu/simS)
	r.set(endToEnd, "latency_p50_ms", median(walls))
	// The smallest peak, not the median: a Go process's high-water mark is
	// what the work needs plus however unluckily the collector's cycles
	// fell on its spikes, and only the first part is the program's.
	r.set(endToEnd, "peak_rss_mb", slices.Min(rss))
	r.Detail["passes"] = float64(len(walls))
	r.Detail["wall_s"] = wall
	r.Detail["par.cpu_utilization"] = cpu / (wall * float64(cfg.nproc))
	return r, nil
}
