package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary when
// offline_pipeline re-executes itself as a pipeline child.
func TestMain(m *testing.M) {
	if spec := os.Getenv(childEnv); spec != "" {
		os.Exit(pipelineChild(spec))
	}
	os.Exit(m.Run())
}

// smokeConfig builds the real daemon and returns a config with tiny
// fixtures and short phases.
func smokeConfig(t *testing.T) *config {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and runs the daemon; skipped under -short")
	}
	root, err := findRoot("")
	if err != nil {
		t.Fatal(err)
	}
	bin, err := buildServe(root)
	if err != nil {
		t.Fatal(err)
	}
	return &config{
		root: root, serveBin: bin, seed: 7, seconds: 2.4, nproc: 2, sz: tinySizes(),
		logf: t.Logf,
	}
}

// Every workload end to end with tiny fixtures: the harness must run,
// verify every output and report every declared metric.
func TestSmokeWorkloads(t *testing.T) {
	base := smokeConfig(t)
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			cfg := *base
			cfg.workDir = t.TempDir()
			r, err := w.run(&cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := r.finish(endToEnd); err != nil {
				t.Fatal(err)
			}
			// Two 4-second flows per corpus do not show the paper's shapes;
			// for offline_pipeline the smoke test only exercises the
			// assertions, it does not expect them to hold.
			if !r.Correct && w.Name != "offline_pipeline" {
				t.Errorf("attempted %d failed %d: %v", r.Attempted, r.Failed, r.Failures)
			}
			for name, v := range r.Metrics {
				if !(v.Value > 0) {
					t.Errorf("%s = %g, want a positive measurement", name, v.Value)
				}
			}
		})
	}
}

// The traced pass must produce every per-layer metric and a span file.
func TestSmokeTraced(t *testing.T) {
	cfg := smokeConfig(t)
	cfg.workDir = t.TempDir()
	r, err := runTraced(cfg, workloads[0].Name)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.finish(perLayer); err != nil {
		t.Fatal(err)
	}
	if !r.Correct {
		t.Errorf("attempted %d failed %d: %v", r.Attempted, r.Failed, r.Failures)
	}
	spans := filepath.Join(cfg.root, ".bench_build", "results", "trace-seed-7.json")
	if fi, err := os.Stat(spans); err != nil || fi.Size() == 0 {
		t.Errorf("no span file at %s: %v", spans, err)
	}
}

// A damaged golden must fail the run: otherwise verification verifies
// nothing.
func TestSmokeCorruptGoldenFails(t *testing.T) {
	cfg := smokeConfig(t)
	cfg.workDir = t.TempDir()
	cfg.corrupt = true
	r, err := runReplayPaper(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.finish(endToEnd); err != nil {
		t.Fatal(err)
	}
	if r.Correct || r.Failed == 0 {
		t.Errorf("run with a corrupted golden verified: attempted %d failed %d", r.Attempted, r.Failed)
	}
}
