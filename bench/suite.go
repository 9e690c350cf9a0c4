package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// Suite mode: every workload with tracing off, then the traced pass, in
// one result file that also records the machine shape, so results from
// different shapes are never diffed.

// machine is where a result was measured.
type machine struct {
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func thisMachine(root string) machine {
	m := machine{NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), CPUModel: "unknown", Commit: "unknown"}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	// The driver's checkout is not a git repository; the commit is
	// recorded when there is one.
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if b, err := cmd.Output(); err == nil {
		m.Commit = strings.TrimSpace(string(b))
	}
	return m
}

// suiteResult is the result file.
type suiteResult struct {
	Machine    machine   `json:"machine"`
	Seed       int64     `json:"seed"`
	RunSeconds float64   `json:"run_seconds"`
	StartedAt  string    `json:"started_at"`
	Workloads  []*result `json:"workloads"`
	Traced     *result   `json:"traced"`
}

func runSuite(base *config) (*suiteResult, error) {
	s := &suiteResult{Machine: thisMachine(base.root), Seed: base.seed, RunSeconds: base.seconds, StartedAt: time.Now().UTC().Format(time.RFC3339)}
	for _, w := range workloads {
		r, defs, err := runOne(base, w.Name, false)
		if err != nil {
			return nil, err
		}
		r.report(os.Stderr, defs)
		s.Workloads = append(s.Workloads, r)
	}
	r, defs, err := runOne(base, workloads[0].Name, true)
	if err != nil {
		return nil, err
	}
	r.Workload = "traced"
	r.report(os.Stderr, defs)
	s.Traced = r
	return s, nil
}

func (s *suiteResult) correct() bool {
	ok := s.Traced.Correct
	for _, r := range s.Workloads {
		ok = ok && r.Correct
	}
	return ok
}

func (s *suiteResult) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// compareAA prints, per workload and end-to-end metric, both values of
// two suite runs of the same build, their relative difference and
// PASS/FAIL against the metric's bound. It reports whether all passed.
func compareAA(w io.Writer, a, b *suiteResult) bool {
	all := true
	fmt.Fprintf(w, "%-18s %-20s %14s %14s %8s %6s  %s\n", "workload", "metric", "first", "second", "diff", "bound", "")
	for i, ra := range a.Workloads {
		rb := b.Workloads[i]
		for _, d := range endToEnd {
			va, vb := ra.Metrics[d.Name].Value, rb.Metrics[d.Name].Value
			diff := math.Abs(va-vb) / math.Min(math.Abs(va), math.Abs(vb))
			verdict := "PASS"
			if !(diff <= d.Bound) {
				verdict, all = "FAIL", false
			}
			fmt.Fprintf(w, "%-18s %-20s %14.6g %14.6g %7.1f%% %5.0f%%  %s\n", ra.Workload, d.Name, va, vb, 100*diff, 100*d.Bound, verdict)
		}
	}
	return all
}
