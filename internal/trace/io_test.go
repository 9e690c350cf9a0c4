package trace

import (
	"bytes"
	"path/filepath"
	"testing"

	"ibox/internal/sim"
)

func TestSaveLoadJSONFile(t *testing.T) {
	tr := mkTrace(20, 1000, sim.Millisecond, 10*sim.Millisecond)
	tr.Protocol = "cubic"
	path := filepath.Join(t.TempDir(), "t.json")
	if err := tr.SaveJSON(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadJSON(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Protocol != "cubic" || len(got.Packets) != 20 {
		t.Errorf("round trip: %q %d", got.Protocol, len(got.Packets))
	}
	if _, err := LoadJSON(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestReadJSONRejectsInvalid(t *testing.T) {
	if _, err := ReadJSON(bytes.NewBufferString("not json")); err == nil {
		t.Error("garbage accepted")
	}
	// Structurally valid JSON but semantically invalid trace.
	bad := `{"protocol":"x","path_id":"y","packets":[
		{"seq":1,"size":100,"send":0,"recv":10},
		{"seq":1,"size":100,"send":5,"recv":15}]}`
	if _, err := ReadJSON(bytes.NewBufferString(bad)); err == nil {
		t.Error("duplicate seq accepted")
	}
}

func TestTraceStart(t *testing.T) {
	tr := mkTrace(3, 100, sim.Millisecond, sim.Millisecond)
	tr.Packets[0].SendTime = 7 * sim.Millisecond
	tr.Packets[1].SendTime = 8 * sim.Millisecond
	tr.Packets[2].SendTime = 9 * sim.Millisecond
	tr.Packets[0].RecvTime = 8 * sim.Millisecond
	tr.Packets[1].RecvTime = 9 * sim.Millisecond
	tr.Packets[2].RecvTime = 10 * sim.Millisecond
	start, err := tr.Start()
	if err != nil || start != 7*sim.Millisecond {
		t.Errorf("Start = %v, %v", start, err)
	}
	if _, err := (&Trace{}).Start(); err == nil {
		t.Error("empty trace Start accepted")
	}
}

func TestSeriesString(t *testing.T) {
	s := NewSeries(0, sim.Second, 3)
	s.Vals = []float64{1, 2, 3}
	if out := s.String(); out == "" {
		t.Error("empty Series.String")
	}
	if m := s.Max(); m != 3 {
		t.Errorf("Max = %v", m)
	}
	empty := NewSeries(0, sim.Second, 0)
	if !isNaN(empty.Max()) || !isNaN(empty.Mean()) {
		t.Error("empty series Max/Mean should be NaN")
	}
}

func isNaN(f float64) bool { return f != f }

func TestMergeMixedProtocols(t *testing.T) {
	a := mkTrace(3, 100, sim.Millisecond, sim.Millisecond)
	a.Protocol = "cubic"
	b := mkTrace(3, 100, sim.Millisecond, sim.Millisecond)
	b.Protocol = "vegas"
	m, err := Merge([]*Trace{a, b, nil})
	if err != nil {
		t.Fatal(err)
	}
	if m.Protocol != "mixed" {
		t.Errorf("protocol = %q, want mixed", m.Protocol)
	}
}
