package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"ibox/internal/core"
	"ibox/internal/iboxml"
	"ibox/internal/par"
	"ibox/internal/sim"
	"ibox/internal/trace"
)

// mlCache caches tiny trained checkpoints by (hidden, layers, seed):
// distinct seeds give genuinely different weights for one shape.
var mlCache = struct {
	sync.Mutex
	m map[[3]int64]*iboxml.Model
}{m: map[[3]int64]*iboxml.Model{}}

func trainedMLShape(t testing.TB, hidden, layers int, seed int64) *iboxml.Model {
	t.Helper()
	key := [3]int64{int64(hidden), int64(layers), seed}
	mlCache.Lock()
	defer mlCache.Unlock()
	if m := mlCache.m[key]; m != nil {
		return m
	}
	var samples []iboxml.TrainingSample
	for i := int64(0); i < 2; i++ {
		samples = append(samples, iboxml.TrainingSample{Trace: synthTrace(i, 3*sim.Second)})
	}
	m, err := iboxml.Train(samples, iboxml.Config{
		Hidden: hidden, Layers: layers, Epochs: 1, Seed: seed,
	})
	if err != nil {
		t.Fatalf("train h%d l%d seed %d: %v", hidden, layers, seed, err)
	}
	mlCache.m[key] = m
	return m
}

func saveModel(t testing.TB, m *iboxml.Model, dir, id string) {
	t.Helper()
	if err := m.Save(filepath.Join(dir, id)); err != nil {
		t.Fatalf("save %s: %v", id, err)
	}
}

// TestCrossCheckpointBatchEquivalence: two concurrent requests for two
// *different* checkpoints of one shape must share a single micro-batch
// (X-Ibox-Batch-Size: 2 on both) and still answer byte-for-byte what the
// offline unbatched simulation answers for each model.
func TestCrossCheckpointBatchEquivalence(t *testing.T) {
	s, dir := newTestServer(t, func(c *Config) {
		c.Workers = 1
		c.BatchWindow = 250 * time.Millisecond
		c.BatchMax = 2 // flush as soon as both requests joined
	})
	mA := trainedMLShape(t, 8, 1, 5)
	mB := trainedMLShape(t, 8, 1, 6)
	saveModel(t, mA, dir, "a.json")
	saveModel(t, mB, dir, "b.json")
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	inputs := []*trace.Trace{synthTrace(41, 2*sim.Second), synthTrace(42, 2*sim.Second)}
	reqs := []SimulateRequest{
		{Model: "a.json", Input: inputs[0], Seed: 901},
		{Model: "b.json", Input: inputs[1], Seed: 902},
	}
	want := [][]byte{
		encodeResponse(t, SimulateResponse{
			Model: "a.json", Kind: KindIBoxML,
			Metrics: core.MetricsOf(mA.SimulateTrace(inputs[0], nil, 901)),
			Trace:   mA.SimulateTrace(inputs[0], nil, 901),
		}),
		encodeResponse(t, SimulateResponse{
			Model: "b.json", Kind: KindIBoxML,
			Metrics: core.MetricsOf(mB.SimulateTrace(inputs[1], nil, 902)),
			Trace:   mB.SimulateTrace(inputs[1], nil, 902),
		}),
	}

	var wg sync.WaitGroup
	sizes := make([]string, len(reqs))
	bodies := make([][]byte, len(reqs))
	codes := make([]int, len(reqs))
	for i := range reqs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i], sizes[i], bodies[i] = postSimulateSized(t, ts.URL, reqs[i])
		}(i)
	}
	wg.Wait()
	for i := range reqs {
		if codes[i] != 200 {
			t.Fatalf("request %d: status %d: %s", i, codes[i], bodies[i])
		}
		if sizes[i] != "2" {
			t.Fatalf("request %d: %s = %q, want 2 (cross-checkpoint co-batch)", i, batchSizeHeader, sizes[i])
		}
		if !bytes.Equal(bodies[i], want[i]) {
			t.Fatalf("request %d: cross-checkpoint batched body differs from offline unbatched", i)
		}
	}
}

// postSimulateSized is postSimulate plus the batch-size header.
func postSimulateSized(t testing.TB, url string, req SimulateRequest) (int, string, []byte) {
	t.Helper()
	code, hdr, body := postSimulate(t, url, req)
	return code, hdr.Get(batchSizeHeader), body
}

// TestShapeMismatchNeverCoBatches: concurrent requests for checkpoints
// of different shapes must land in separate batches even with room in
// the dispatch window.
func TestShapeMismatchNeverCoBatches(t *testing.T) {
	s, dir := newTestServer(t, func(c *Config) {
		c.Workers = 1
		c.BatchWindow = 60 * time.Millisecond
		c.BatchMax = 2
	})
	saveModel(t, trainedMLShape(t, 8, 1, 5), dir, "h8.json")
	saveModel(t, trainedMLShape(t, 6, 1, 5), dir, "h6.json")
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	in := synthTrace(44, sim.Second)
	var wg sync.WaitGroup
	sizes := make([]string, 2)
	for i, id := range []string{"h8.json", "h6.json"} {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			code, size, body := postSimulateSized(t, ts.URL, SimulateRequest{Model: id, Input: in, Seed: 1})
			if code != 200 {
				t.Errorf("%s: status %d: %s", id, code, body)
			}
			sizes[i] = size
		}(i, id)
	}
	wg.Wait()
	for i, size := range sizes {
		if size != "1" {
			t.Fatalf("request %d: batch size %q, want 1 (shapes differ)", i, size)
		}
	}
}

// TestBatchGroupSurvivesReload is the regression test for the
// pointer-keyed grouping bug: the batcher used to key pending groups by
// *iboxml.Model, so an LRU-evicted-then-reloaded checkpoint (same
// artifact, fresh pointer) silently split its group. Keys are shapes
// now: two submissions under one ID through two distinct pointers must
// share a batch.
func TestBatchGroupSurvivesReload(t *testing.T) {
	dir := t.TempDir()
	writeMLModel(t, dir, "m.json")
	m1, err := iboxml.Load(filepath.Join(dir, "m.json"))
	if err != nil {
		t.Fatal(err)
	}
	m2, err := iboxml.Load(filepath.Join(dir, "m.json")) // the "reloaded" pointer
	if err != nil {
		t.Fatal(err)
	}
	if m1 == m2 {
		t.Fatal("expected two distinct model pointers")
	}

	pool := par.NewPool(1)
	defer pool.Close()
	b := newBatcher(pool, 200*time.Millisecond, 2, 0)
	in := synthTrace(45, sim.Second)
	var wg sync.WaitGroup
	sizes := make([]int, 2)
	for i, m := range []*iboxml.Model{m1, m2} {
		wg.Add(1)
		go func(i int, m *iboxml.Model) {
			defer wg.Done()
			_, size, err := b.submit(context.Background(), "m.json", m, in, int64(i))
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
			}
			sizes[i] = size
		}(i, m)
	}
	wg.Wait()
	for i, size := range sizes {
		if size != 2 {
			t.Fatalf("submission %d: batch size %d, want 2 — evicted-then-reloaded checkpoint split its group", i, size)
		}
	}
}

// TestServeCrossCheckpointDeterminism races a mixed burst over two
// same-shape checkpoints through the batching front door and checks every
// response byte against the offline serial replay — the serial-vs-batched
// determinism half of the equivalence harness, run under -race in CI.
func TestServeCrossCheckpointDeterminism(t *testing.T) {
	s, dir := newTestServer(t, func(c *Config) {
		c.Workers = 2
		c.BatchWindow = 5 * time.Millisecond
		c.BatchMax = 8
	})
	models := map[string]*iboxml.Model{
		"a.json": trainedMLShape(t, 8, 1, 5),
		"b.json": trainedMLShape(t, 8, 1, 6),
	}
	for id, m := range models {
		saveModel(t, m, dir, id)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const n = 12
	ids := []string{"a.json", "b.json"}
	type result struct {
		code int
		body []byte
	}
	results := make([]result, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := ids[i%len(ids)]
			code, _, body := postSimulate(t, ts.URL, SimulateRequest{
				Model: id, Input: synthTrace(int64(50+i%3), 2*sim.Second), Seed: int64(700 + i%3),
			})
			results[i] = result{code, body}
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if results[i].code != 200 {
			t.Fatalf("request %d: status %d: %s", i, results[i].code, results[i].body)
		}
		id := ids[i%len(ids)]
		m := models[id]
		out := m.SimulateTrace(synthTrace(int64(50+i%3), 2*sim.Second), nil, int64(700+i%3))
		want := encodeResponse(t, SimulateResponse{
			Model: id, Kind: KindIBoxML, Metrics: core.MetricsOf(out), Trace: out,
		})
		if !bytes.Equal(results[i].body, want) {
			t.Fatalf("request %d (%s): batched response differs from serial offline replay", i, id)
		}
	}
}

// sentinelClone returns a same-shape copy of m whose weights are scaled
// into saturation — a sentinel: if lane batching leaked any state across
// lanes, a sentinel neighbor would visibly corrupt the victim's outputs.
func sentinelClone(t testing.TB, m *iboxml.Model, scale float64) *iboxml.Model {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Write(&buf); err != nil {
		t.Fatal(err)
	}
	clone, err := iboxml.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Perturb before any inference compiles the clone's kernel.
	for _, p := range clone.Net.Params() {
		for i := range p.W {
			p.W[i] *= scale
		}
	}
	return clone
}

// FuzzShapeGroup fuzzes the co-batching compatibility decision: whatever
// two checkpoint shapes arrive, incompatible models must never share a
// lane batch (the shape key separates them and the lane layer panics
// rather than corrupting state), and compatible ones must co-batch with
// outputs bitwise-identical to their own unbatched replays — even when
// the neighbor lane carries saturated sentinel weights.
func FuzzShapeGroup(f *testing.F) {
	f.Add(uint8(8), uint8(1), uint8(8), uint8(1), int64(5), int64(6))  // same shape
	f.Add(uint8(8), uint8(1), uint8(6), uint8(1), int64(5), int64(5))  // hidden mismatch
	f.Add(uint8(8), uint8(1), uint8(8), uint8(2), int64(5), int64(5))  // layer mismatch
	f.Add(uint8(3), uint8(3), uint8(3), uint8(3), int64(1), int64(2))  // deep + tiny
	f.Add(uint8(5), uint8(2), uint8(7), uint8(2), int64(9), int64(10)) // odd widths
	f.Fuzz(func(t *testing.T, h1, l1, h2, l2 uint8, seedA, seedB int64) {
		hiddenA, layersA := 1+int(h1)%8, 1+int(l1)%3
		hiddenB, layersB := 1+int(h2)%8, 1+int(l2)%3
		mA := trainedMLShape(t, hiddenA, layersA, seedA%4)
		mB := sentinelClone(t, trainedMLShape(t, hiddenB, layersB, seedB%4), 100)

		inA := synthTrace(46, sim.Second)
		inB := synthTrace(47, sim.Second)
		lanes := []iboxml.ReplayLane{
			{Model: mA, Input: inA, Seed: 11},
			{Model: mB, Input: inB, Seed: 12},
		}
		if mA.Shape() != mB.Shape() {
			// The batcher keys groups by Shape, so these never share a
			// group; forcing them into one batch fails loudly.
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("incompatible lanes did not panic")
				}
				if !strings.Contains(fmt.Sprint(r), "shape") {
					t.Fatalf("unexpected panic: %v", r)
				}
			}()
			iboxml.SimulateTraceLanes(lanes, 0)
			return
		}
		// Compatible: one batch, zero cross-talk — each lane bitwise equals
		// its own unbatched replay despite the sentinel neighbor.
		outs := iboxml.SimulateTraceLanes(lanes, 0)
		wantA := mA.SimulateTrace(inA, nil, 11)
		wantB := mB.SimulateTrace(inB, nil, 12)
		for i, pair := range []struct{ got, want *trace.Trace }{{outs[0], wantA}, {outs[1], wantB}} {
			var bg, bw bytes.Buffer
			if err := json.NewEncoder(&bg).Encode(pair.got); err != nil {
				t.Fatal(err)
			}
			if err := json.NewEncoder(&bw).Encode(pair.want); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(bg.Bytes(), bw.Bytes()) {
				t.Fatalf("lane %d: batched output differs from unbatched (cross-lane corruption)", i)
			}
		}
	})
}
