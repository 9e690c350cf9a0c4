package iboxml

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"ibox/internal/nn"
	"ibox/internal/sim"
	"ibox/internal/trace"
)

func TestModelSerializationRoundTrip(t *testing.T) {
	m, err := Train(trainSamples(2, 5*sim.Second), Config{Hidden: 8, Layers: 2, Epochs: 5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Predictions must be identical.
	test := synthTrace(200, 5*sim.Second)
	mu1, s1 := m.PredictWindows(test, nil)
	mu2, s2 := got.PredictWindows(test, nil)
	for i := range mu1 {
		if mu1[i] != mu2[i] || s1[i] != s2[i] {
			t.Fatalf("prediction mismatch at window %d: %v vs %v", i, mu1[i], mu2[i])
		}
	}
	// SimulateTrace (uses outlierRate/minDelayMs) must match too.
	a := m.SimulateTrace(test, nil, 5)
	b := got.SimulateTrace(test, nil, 5)
	for i := range a.Packets {
		if a.Packets[i].RecvTime != b.Packets[i].RecvTime {
			t.Fatalf("simulate mismatch at packet %d", i)
		}
	}
}

func TestModelSaveLoadFile(t *testing.T) {
	m, err := Train(trainSamples(1, 4*sim.Second), Config{Hidden: 4, Layers: 1, Epochs: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.json")
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumParams() != m.NumParams() {
		t.Errorf("params %d vs %d", got.NumParams(), m.NumParams())
	}
}

func TestSerializeUntrainedFails(t *testing.T) {
	m := &Model{}
	var buf bytes.Buffer
	if err := m.Write(&buf); err == nil {
		t.Error("untrained model serialized")
	}
}

func TestReadGarbageFails(t *testing.T) {
	if _, err := Read(bytes.NewBufferString("not json")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := Read(bytes.NewBufferString("{}")); err == nil {
		t.Error("empty model accepted")
	}
}

// TestBaselineRoundTrip: a calibration baseline embedded via SetBaseline
// survives serialization, and artifacts written without one (or by
// older builds, which lack the field entirely) load with a nil baseline.
func TestBaselineRoundTrip(t *testing.T) {
	m, err := Train(trainSamples(1, 4*sim.Second), Config{Hidden: 4, Layers: 1, Epochs: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m.Baseline() != nil {
		t.Fatal("fresh model should have no baseline")
	}
	cal := m.Calibrate(trainSamples(2, 4*sim.Second))
	m.SetBaseline(cal)
	if b := m.Baseline(); b == nil || b.NLL != cal.NLL || b.PITDeviation != cal.PITDeviation {
		t.Fatalf("baseline after set: %+v, want %+v", m.Baseline(), cal)
	}

	var buf bytes.Buffer
	if err := m.Write(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if !bytes.Contains(raw, []byte(`"calibration"`)) {
		t.Fatal("serialized artifact missing calibration field")
	}
	got, err := Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	b := got.Baseline()
	if b == nil || b.NLL != cal.NLL || b.PITDeviation != cal.PITDeviation || b.Windows != cal.Windows {
		t.Fatalf("baseline after round trip: %+v, want %+v", b, cal)
	}

	// An artifact from before baselines existed — the same header with
	// the calibration field deleted — still loads, with no baseline.
	old, err := Read(bytes.NewReader(mutate(t, raw, func(d map[string]any) { delete(d, "calibration") })))
	if err != nil {
		t.Fatalf("artifact without a calibration field rejected: %v", err)
	}
	if old.Baseline() != nil {
		t.Fatal("artifact without a calibration field should have nil baseline")
	}
}

// TestScoreWindowsMatchesCalibrate: the streaming scorer and the batch
// Calibrate fold the same per-window numbers, so their aggregates agree
// exactly — the property the serving tier's drift sketch relies on.
func TestScoreWindowsMatchesCalibrate(t *testing.T) {
	m, err := Train(trainSamples(1, 4*sim.Second), Config{Hidden: 4, Layers: 1, Epochs: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	held := trainSamples(2, 4*sim.Second)
	cal := m.Calibrate(held)

	var nllSum float64
	n := 0
	bins := make([]float64, len(cal.PIT))
	for _, s := range held {
		n += m.ScoreWindows(s.Trace, s.CT, func(pit, _, nll float64) {
			nllSum += nll
			b := int(pit * float64(len(bins)))
			if b >= len(bins) {
				b = len(bins) - 1
			}
			bins[b]++
		})
	}
	if n != cal.Windows {
		t.Fatalf("windows %d vs Calibrate %d", n, cal.Windows)
	}
	if got := nllSum / float64(n); got != cal.NLL {
		t.Fatalf("mean NLL %v vs Calibrate %v", got, cal.NLL)
	}
	for b := range bins {
		if got := bins[b] / float64(n); got != cal.PIT[b] {
			t.Fatalf("PIT bin %d: %v vs Calibrate %v", b, got, cal.PIT[b])
		}
	}
}

// weightBytes is m's raw weight section, read from whichever layout the
// network holds.
func weightBytes(t testing.TB, m *Model) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Net.WriteWeights(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sameBits fails unless a and b are the same model down to the bit
// pattern of every weight and statistic.
func sameBits(t *testing.T, a, b *Model) {
	t.Helper()
	if !bytes.Equal(weightBytes(t, a), weightBytes(t, b)) {
		t.Fatal("weights differ in some bit")
	}
	bits := func(m *Model) [][]uint64 {
		var out [][]uint64
		add := func(vs ...float64) {
			row := make([]uint64, len(vs))
			for i, v := range vs {
				row[i] = math.Float64bits(v)
			}
			out = append(out, row)
		}
		add(m.xScale.Mean...)
		add(m.xScale.Std...)
		add(m.yMean, m.yStd, m.outlierRate, m.minDelayMs)
		add(m.env.Min...)
		add(m.env.Max...)
		return out
	}
	if !reflect.DeepEqual(bits(a), bits(b)) {
		t.Fatal("scaler or envelope differ in some bit")
	}
	if a.Cfg != b.Cfg || a.Net.Kind != b.Net.Kind {
		t.Fatalf("config or head kind differ: %+v vs %+v", a.Cfg, b.Cfg)
	}
	if !reflect.DeepEqual(a.Baseline(), b.Baseline()) {
		t.Fatalf("baselines differ: %+v vs %+v", a.Baseline(), b.Baseline())
	}
}

// traceBytes is the JSON a SimulateTrace result is served as.
func traceBytes(t *testing.T, tr *trace.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLegacyCheckpoint loads testdata/legacy-h6x2.json — written by
// `iboxml train` at the last commit whose artifacts were a single JSON
// document — and checks that it still means exactly what it meant:
// re-saving it in the current layout and loading that back gives the
// same bits, and legacy-loaded, re-loaded and in-memory models simulate
// byte-identical traces.
func TestLegacyCheckpoint(t *testing.T) {
	const legacyPath = "testdata/legacy-h6x2.json"
	legacy, err := Load(legacyPath)
	if err != nil {
		t.Fatalf("legacy checkpoint rejected: %v", err)
	}
	if legacy.NumParams() != 590 || legacy.Baseline() == nil || legacy.Baseline().Windows != 60 {
		t.Fatalf("legacy checkpoint loaded as %d params, baseline %+v", legacy.NumParams(), legacy.Baseline())
	}
	onDisk, err := os.ReadFile(legacyPath)
	if err != nil {
		t.Fatal(err)
	}
	// The test-side legacy encoder reproduces the old writer exactly,
	// which is what lets the other tests stand in for old files with it.
	// The old writer's LSTM weights were float64 and a loaded model's
	// are float32, so the reference is the file re-encoded with each
	// LSTM weight rounded through float32 — and re-encoding it unrounded
	// must give the file itself.
	var doc modelJSON
	if err := json.Unmarshal(onDisk, &doc); err != nil {
		t.Fatal(err)
	}
	encode := func() []byte {
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(doc); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(encode(), onDisk) {
		t.Fatal("re-encoding the legacy file does not reproduce it")
	}
	for _, w := range doc.Net.Params[:3*doc.Net.Layers] { // Wx, Wh, b per LSTM layer
		for i, v := range w {
			w[i] = float64(float32(v))
		}
	}
	second, err := Load(legacyPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(legacyBytes(t, second), encode()) {
		t.Fatal("legacyBytes no longer reproduces the old writer's output")
	}

	path := filepath.Join(t.TempDir(), "resaved.json")
	if err := legacy.Save(path); err != nil {
		t.Fatal(err)
	}
	resaved, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, legacy, resaved)
	if fi, err := os.Stat(path); err != nil || fi.Size() >= int64(len(onDisk)) {
		t.Fatalf("re-saved artifact is %d bytes, legacy %d: %v", fi.Size(), len(onDisk), err)
	}

	in := synthTrace(11, 3*sim.Second)
	want := traceBytes(t, legacy.SimulateTrace(in, nil, 42))
	if got := traceBytes(t, resaved.SimulateTrace(in, nil, 42)); !bytes.Equal(got, want) {
		t.Fatal("re-saved checkpoint simulates a different trace")
	}
	// And from the other side: a model that has never been serialized
	// against both of its serialized forms.
	m, err := Train(trainSamples(1, 3*sim.Second), Config{Hidden: 6, Layers: 2, Epochs: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	m.SetBaseline(m.Calibrate(trainSamples(1, 3*sim.Second)))
	want = traceBytes(t, m.SimulateTrace(in, nil, 42))
	for name, data := range map[string][]byte{"legacy": legacyBytes(t, m), "current": artifactBytes(t, m)} {
		got, err := Read(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sameBits(t, m, got)
		if !bytes.Equal(traceBytes(t, got.SimulateTrace(in, nil, 42)), want) {
			t.Fatalf("%s-loaded model simulates a different trace than the in-memory one", name)
		}
	}
}

// TestSaveReplacesAtomically: Save never exposes a partial artifact under
// the final name — it writes beside it and renames — so a load racing a
// re-save sees the old model or the new one, and nothing is left behind.
func TestSaveReplacesAtomically(t *testing.T) {
	m := corpusModel(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "m.json")
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	old, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer old.Close()
	before, _ := old.Stat()
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if os.SameFile(before, after) {
		t.Fatal("Save rewrote the artifact in place")
	}
	// The descriptor opened before the re-save still reads a whole model.
	if _, err := Read(old); err != nil {
		t.Fatalf("reader that opened before the re-save: %v", err)
	}
	if des, _ := os.ReadDir(dir); len(des) != 1 {
		t.Fatalf("Save left %d files in the directory, want 1", len(des))
	}
	if err := m.Save(filepath.Join(dir, "missing", "m.json")); err == nil {
		t.Fatal("Save into a missing directory succeeded")
	}
}

// syntheticModel is a loadable model of the given shape with random
// weights — the serializers do not care whether it was trained. ct adds
// the fifth (cross-traffic) input.
func syntheticModel(hidden, layers int, ct bool) *Model {
	in := 4
	if ct {
		in = 5
	}
	std := make([]float64, in)
	for i := range std {
		std[i] = 1
	}
	return &Model{
		Cfg:     Config{Hidden: hidden, Layers: layers, Window: 100 * sim.Millisecond, UseCrossTraffic: ct},
		Net:     nn.NewSequenceModel(nn.GaussianHead, in, hidden, layers, 1),
		xScale:  scaler{Mean: make([]float64, in), Std: std},
		yMean:   40,
		yStd:    10,
		trained: true,
	}
}

// readBack writes m and reads it again, as the serving registry would.
func readBack(t testing.TB, m *Model) *Model {
	t.Helper()
	got, err := Read(bytes.NewReader(artifactBytes(t, m)))
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// allocated reports the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestLoadAllocBound: loading a paper-scale (256×4) checkpoint allocates
// one array per tensor and under 1 MiB more — no whole-file buffer, no
// decoded copy of the weights, no second layout, no training state.
func TestLoadAllocBound(t *testing.T) {
	m := syntheticModel(256, 4, false)
	path := filepath.Join(t.TempDir(), "paper.json")
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	tensors := 8 * uint64(m.NumParams())
	var got *Model
	var err error
	total := allocated(func() { got, err = Load(path) })
	if err != nil {
		t.Fatal(err)
	}
	if got.NumParams() != m.NumParams() {
		t.Fatalf("loaded %d params, saved %d", got.NumParams(), m.NumParams())
	}
	if extra := int64(total) - int64(tensors); extra > 1<<20 {
		t.Fatalf("Load allocated %d bytes beyond the %d of the tensors, want ≤ 1 MiB", extra, tensors)
	}
}

// TestLoadedModelHasNoTrainingState: a model read in either layout holds
// its packed weights and the head, and nothing training needs — no
// gradient buffers (Adam's moments exist only inside an optimizer) — and
// serving it or asking it questions builds none.
func TestLoadedModelHasNoTrainingState(t *testing.T) {
	m := corpusModel(t)
	in := synthTrace(3, sim.Second)
	for name, data := range map[string][]byte{"current": artifactBytes(t, m), "legacy": legacyBytes(t, m)} {
		got, err := Read(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		got.SimulateTrace(in, nil, 1)
		SimulateTraceLanes([]ReplayLane{{Model: got, Input: in}, {Model: got, Input: in}}, 0)
		got.Shape()
		got.NumParams()
		if err := got.Validate(); err != nil {
			t.Fatal(err)
		}
		artifactBytes(t, got)
		for _, p := range got.Net.Params() {
			if p.Grad != nil {
				t.Fatalf("%s: loaded model holds a gradient buffer", name)
			}
		}
	}
}

// TestFirstInferenceAllocatesNoWeights: the reader builds a loaded model's
// kernel, so its first PredictWindows or SimulateTrace compiles nothing
// and allocates nothing weight-sized. A copy of the in-memory model's
// LSTM weights (float32, 4 bytes each) shows the measurement would see
// it.
func TestFirstInferenceAllocatesNoWeights(t *testing.T) {
	m := syntheticModel(256, 4, false)
	raw := artifactBytes(t, m)
	in := synthTrace(5, sim.Second)
	weights := 4 * uint64(m.NumParams())
	for name, first := range map[string]func(*Model){
		"PredictWindows": func(m *Model) { m.PredictWindows(in, nil) },
		"SimulateTrace":  func(m *Model) { m.SimulateTrace(in, nil, 1) },
	} {
		got, err := Read(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		if a := allocated(func() { first(got) }); a > 1<<20 {
			t.Fatalf("first %s on a loaded model allocated %d bytes, want ≤ 1 MiB (weights are %d)", name, a, weights)
		}
	}
	if a := allocated(func() { m.Net.LSTM.Compile() }); a < weights*9/10 {
		t.Fatalf("copying the in-memory model's weights allocated %d bytes, weights are %d", a, weights)
	}
}

// oneCopyShapes are the hidden widths and depths of nn's kernelShapes —
// Hidden % 4 ≠ 0, Hidden < 4, the paper's 256×4 — as iBoxML networks,
// some with the cross-traffic input.
var oneCopyShapes = []struct {
	hidden, layers int
	ct             bool
}{
	{5, 1, false}, {6, 2, true}, {3, 3, false}, {9, 4, true}, {4, 2, false},
	{13, 2, false}, {1, 1, true}, {8, 3, false}, {256, 4, true},
}

// TestLoadedModelMatchesInMemory: over those shapes, a model loaded from
// its artifact — kernel only — predicts and simulates exactly what the
// in-memory model does, and saving it again reproduces the artifact byte
// for byte.
func TestLoadedModelMatchesInMemory(t *testing.T) {
	in := synthTrace(21, 2*sim.Second)
	for _, sh := range oneCopyShapes {
		name := fmt.Sprintf("h%dx%d ct=%v", sh.hidden, sh.layers, sh.ct)
		m := syntheticModel(sh.hidden, sh.layers, sh.ct)
		raw := artifactBytes(t, m)
		got := readBack(t, m)
		if !bytes.Equal(artifactBytes(t, got), raw) {
			t.Fatalf("%s: Save(Load(artifact)) differs from the artifact", name)
		}
		mu1, s1 := m.PredictWindows(in, nil)
		mu2, s2 := got.PredictWindows(in, nil)
		for i := range mu1 {
			if math.Float64bits(mu1[i]) != math.Float64bits(mu2[i]) || math.Float64bits(s1[i]) != math.Float64bits(s2[i]) {
				t.Fatalf("%s: window %d: (%v, %v) loaded vs (%v, %v) in memory", name, i, mu2[i], s2[i], mu1[i], s1[i])
			}
		}
		if !bytes.Equal(traceBytes(t, got.SimulateTrace(in, nil, 9)), traceBytes(t, m.SimulateTrace(in, nil, 9))) {
			t.Fatalf("%s: the loaded model simulates a different trace", name)
		}
	}
}

// BenchmarkLoad times Load per shape and layout; the legacy files are what
// the old writer would have produced for the same model.
func BenchmarkLoad(b *testing.B) {
	for _, shape := range []struct{ hidden, layers int }{{96, 1}, {256, 4}} {
		m := syntheticModel(shape.hidden, shape.layers, false)
		dir := b.TempDir()
		paths := map[string]string{"legacy": filepath.Join(dir, "legacy.json"), "new": filepath.Join(dir, "new.json")}
		if err := os.WriteFile(paths["legacy"], legacyBytes(b, m), 0o644); err != nil {
			b.Fatal(err)
		}
		if err := m.Save(paths["new"]); err != nil {
			b.Fatal(err)
		}
		for _, layout := range []string{"legacy", "new"} {
			b.Run(fmt.Sprintf("%dx%d/%s", shape.hidden, shape.layers, layout), func(b *testing.B) {
				fi, err := os.Stat(paths[layout])
				if err != nil {
					b.Fatal(err)
				}
				b.SetBytes(fi.Size())
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := Load(paths[layout]); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
