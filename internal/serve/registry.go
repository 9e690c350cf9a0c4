// Package serve is the online-serving subsystem: it exposes the trained
// path models (iBoxNet parameter profiles, iBoxML checkpoints) behind a
// long-running HTTP/JSON service, so a counterfactual query — "how would
// protocol B have fared on this path?" — is an API call rather than a
// batch experiment run. The pieces:
//
//   - Registry: a thread-safe warm model cache over a directory of
//     artifacts, with lazy single-flight loading and LRU eviction;
//   - batcher: request micro-batching for iBoxML replay, amortizing the
//     LSTM weight streaming across concurrent requests (see
//     iboxml.SimulateTraceBatch);
//   - Server: the HTTP front door with admission control — bounded
//     queue, load shedding, per-request deadlines, graceful drain.
//
// Serving is a faithful frontend to the offline code paths: a simulate
// response is byte-identical to the equivalent core/iboxml call with the
// same model, inputs and seed, whether or not the request was batched.
package serve

import (
	"bytes"
	"container/list"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"ibox/internal/iboxml"
	"ibox/internal/iboxnet"
	"ibox/internal/obs"
)

// Kind identifies what a registry entry can simulate.
type Kind string

const (
	// KindIBoxNet is a parameter profile driving the §3 emulator; requests
	// name a congestion-control protocol to run over it.
	KindIBoxNet Kind = "iboxnet"
	// KindIBoxML is a trained §4 LSTM checkpoint; requests supply a
	// send-side input trace to replay through it.
	KindIBoxML Kind = "iboxml"
)

// maxModelFileBytes bounds how much of a model file the registry will
// read; anything larger than this is not a model this codebase produces.
const maxModelFileBytes = 256 << 20

// Model is a loaded, immutable registry entry. Exactly one of Net/ML is
// set, per Kind. Handed-out entries stay valid after eviction — eviction
// only drops the registry's reference.
type Model struct {
	ID        string
	Kind      Kind
	Net       iboxnet.Params // when Kind == KindIBoxNet
	ML        *iboxml.Model  // when Kind == KindIBoxML
	SizeBytes int64
}

// entry is a cache slot. ready is closed when the load attempt finishes;
// concurrent Gets for the same id wait on it instead of loading twice
// (single-flight). A failed load is cached too (err set, model nil),
// pinned to the artifact's stat signature at load time: the error is
// served without touching the file until the signature changes.
type entry struct {
	ready chan struct{}
	model *Model
	err   error
	fail  failSig       // artifact signature when err != nil
	elem  *list.Element // position in the LRU (or negative) list; nil while loading
}

// failSig is an artifact's stat signature (existence, size, mtime) taken
// just before a load attempt. Two equal signatures mean the file almost
// certainly has the same content, so a load that failed against one
// would fail the same way again — the cached error stands in for the
// re-read and re-sniff. Any visible change (file appears, is replaced,
// grows) makes the signatures differ and triggers a fresh load, which
// preserves the old behaviour that a failure is never pinned forever.
type failSig struct {
	exists  bool
	size    int64
	modTime time.Time
}

func statSig(path string) failSig {
	fi, err := os.Stat(path)
	if err != nil {
		return failSig{}
	}
	return failSig{exists: true, size: fi.Size(), modTime: fi.ModTime()}
}

// Registry is the warm model cache: a directory of trained artifacts,
// loaded lazily on first request, kept warm up to a capacity, evicted
// least-recently-used beyond it.
type Registry struct {
	dir string
	max int

	mu      sync.Mutex
	entries map[string]*entry
	lru     *list.List // of loaded string ids; front = most recently used
	neg     *list.List // of failed string ids, same discipline, own capacity

	hits, misses, evictions, loadErrors *obs.Counter
	loaded                              *obs.Gauge
	loadHist                            *obs.Histogram
}

// NewRegistry returns a registry over dir holding at most max models
// warm (max <= 0 selects 16).
func NewRegistry(dir string, max int) *Registry {
	if max <= 0 {
		max = 16
	}
	r := &Registry{
		dir:     dir,
		max:     max,
		entries: make(map[string]*entry),
		lru:     list.New(),
		neg:     list.New(),
	}
	if reg := obs.Get(); reg != nil {
		r.hits = reg.Counter("serve.model_hits")
		r.misses = reg.Counter("serve.model_misses")
		r.evictions = reg.Counter("serve.model_evictions")
		r.loadErrors = reg.Counter("serve.model_load_errors")
		r.loaded = reg.Gauge("serve.models_loaded")
		r.loadHist = reg.Histogram("serve.model_load_ns")
	}
	return r
}

// ErrInvalidModelID marks ids rejected before touching the filesystem —
// a client error, not a load failure.
var ErrInvalidModelID = errors.New("serve: invalid model id")

// validID rejects ids that could escape the model directory or that name
// hidden files. Models are plain files directly inside the directory.
func validID(id string) error {
	if id == "" {
		return fmt.Errorf("%w: empty", ErrInvalidModelID)
	}
	if strings.ContainsAny(id, "/\\") || strings.Contains(id, "..") || strings.HasPrefix(id, ".") {
		return fmt.Errorf("%w: %q", ErrInvalidModelID, id)
	}
	return nil
}

// Get returns the model with the given id, loading it from disk on first
// use. Concurrent requests for the same cold model share one load, and
// the error path is single-flight too: a failed load is cached against
// the artifact's stat signature, so repeated Gets for a broken or
// missing model return the cached error with one stat call instead of
// re-reading and re-sniffing the file every time. The failure is not
// pinned — as soon as the file appears, is replaced or otherwise changes
// its signature, the next Get loads it fresh.
func (r *Registry) Get(id string) (*Model, error) {
	if err := validID(id); err != nil {
		return nil, err
	}
	path := filepath.Join(r.dir, id)
	for {
		r.mu.Lock()
		if e, ok := r.entries[id]; ok {
			r.mu.Unlock()
			<-e.ready
			if e.err == nil {
				r.touch(e)
				r.hits.Add(1)
				return e.model, nil
			}
			if statSig(path) == e.fail {
				// The artifact looks exactly as it did when the load failed;
				// serve the cached error.
				r.touch(e)
				r.hits.Add(1)
				return nil, e.err
			}
			// The file changed (or appeared): drop the stale negative entry
			// and retry. Only the first Get to notice replaces it; the
			// others find the fresh loading entry and wait on it.
			r.mu.Lock()
			if r.entries[id] == e {
				if e.elem != nil {
					r.neg.Remove(e.elem)
				}
				delete(r.entries, id)
			}
			r.mu.Unlock()
			continue
		}
		e := &entry{ready: make(chan struct{})}
		r.entries[id] = e
		r.mu.Unlock()
		r.misses.Add(1)

		// Signature before the read: if the file mutates mid-load, the next
		// Get sees a signature mismatch and retries rather than trusting an
		// error recorded against content that no longer exists.
		sig := statSig(path)
		var t0 time.Time
		if r.loadHist != nil {
			t0 = time.Now()
		}
		m, err := loadModel(path, id)
		if r.loadHist != nil {
			r.loadHist.ObserveSince(t0)
		}
		r.mu.Lock()
		e.model, e.err = m, err
		if err != nil {
			e.fail = sig
			e.elem = r.neg.PushFront(id)
			r.evictNeg()
			r.loadErrors.Add(1)
		} else {
			e.elem = r.lru.PushFront(id)
			r.loaded.Set(float64(r.lru.Len()))
			r.evict()
		}
		r.mu.Unlock()
		close(e.ready)
		return m, err
	}
}

// touch moves an entry to the front of its list (LRU for loaded models,
// the negative list for cached failures).
func (r *Registry) touch(e *entry) {
	r.mu.Lock()
	if e.elem != nil {
		if e.err != nil {
			r.neg.MoveToFront(e.elem)
		} else {
			r.lru.MoveToFront(e.elem)
		}
	}
	r.mu.Unlock()
}

// evict drops least-recently-used loaded entries beyond capacity. Caller
// holds r.mu. In-flight loads are not in the LRU list and never evict.
func (r *Registry) evict() {
	for r.lru.Len() > r.max {
		back := r.lru.Back()
		id := back.Value.(string)
		r.lru.Remove(back)
		delete(r.entries, id)
		r.evictions.Add(1)
	}
	r.loaded.Set(float64(r.lru.Len()))
}

// evictNeg bounds the negative cache the same way: at most max cached
// failures, oldest dropped first. Caller holds r.mu. Without the bound a
// client probing many bad ids would grow the entries map without limit —
// before negative caching that couldn't happen, because failures were
// never retained.
func (r *Registry) evictNeg() {
	for r.neg.Len() > r.max {
		back := r.neg.Back()
		r.neg.Remove(back)
		delete(r.entries, back.Value.(string))
		r.evictions.Add(1)
	}
}

// Loaded reports how many models are currently warm — the /statusz and
// LoadStats view of cache pressure.
func (r *Registry) Loaded() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lru.Len()
}

// Warm preloads the given ids (e.g. from a -warm flag at startup),
// returning the first error.
func (r *Registry) Warm(ids []string) error {
	for _, id := range ids {
		if _, err := r.Get(id); err != nil {
			return fmt.Errorf("serve: warming %s: %w", id, err)
		}
	}
	return nil
}

// ModelInfo describes one model file for GET /v1/models.
type ModelInfo struct {
	ID        string `json:"id"`
	SizeBytes int64  `json:"size_bytes"`
	Loaded    bool   `json:"loaded"`
	Kind      Kind   `json:"kind,omitempty"` // known only once loaded
}

// List enumerates the model files in the directory (sorted by id) and
// whether each is currently warm.
func (r *Registry) List() ([]ModelInfo, error) {
	des, err := os.ReadDir(r.dir)
	if err != nil {
		return nil, fmt.Errorf("serve: listing models: %w", err)
	}
	r.mu.Lock()
	warm := make(map[string]Kind, len(r.entries))
	for id, e := range r.entries {
		if e.elem != nil && e.model != nil {
			warm[id] = e.model.Kind
		}
	}
	r.mu.Unlock()
	var out []ModelInfo
	for _, de := range des {
		if de.IsDir() || strings.HasPrefix(de.Name(), ".") {
			continue
		}
		info := ModelInfo{ID: de.Name()}
		if fi, err := de.Info(); err == nil {
			info.SizeBytes = fi.Size()
		}
		if k, ok := warm[de.Name()]; ok {
			info.Loaded = true
			info.Kind = k
		}
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// sniffBytes is how much of an artifact loadModel inspects to tell its
// kind. The discriminating keys come first in what the writers emit (an
// iBoxML header line is under 2 KiB, and "config" leads it), so a file
// whose first 64 KiB names neither is not a model.
const sniffBytes = 64 << 10

// sniffKind tells an artifact's kind from its leading bytes by walking the
// top-level keys of the JSON object that starts there: an iBoxML checkpoint
// (header or legacy document) has "net" and "config", an iBoxNet profile
// "Bandwidth". Only the prefix is looked at; values are skipped, not kept.
func sniffKind(prefix []byte, id string) (Kind, error) {
	dec := json.NewDecoder(bytes.NewReader(prefix))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return "", fmt.Errorf("serve: model %s is not a JSON object", id)
	}
	for dec.More() {
		key, err := dec.Token()
		if err != nil {
			break
		}
		switch key {
		case "net", "config":
			return KindIBoxML, nil
		case "Bandwidth":
			return KindIBoxNet, nil
		}
		var skip json.RawMessage
		if dec.Decode(&skip) != nil {
			break
		}
	}
	return "", fmt.Errorf("serve: model %s is neither an iBoxML checkpoint (no \"net\") nor an iBoxNet profile (no \"Bandwidth\")", id)
}

// artifactFile streams an open artifact to a deserializer through the
// size cap, counting what it delivers: the cap and Model.SizeBytes are
// about the bytes actually read, not about a stat taken earlier.
type artifactFile struct {
	f *os.File
	r io.Reader // f, limited to one byte past the cap
	n int64
}

func (a *artifactFile) Read(p []byte) (int, error) {
	n, err := a.r.Read(p)
	a.n += int64(n)
	return n, err
}

// Len reports how much of the file is still unread. iboxml.Read checks a
// checkpoint's declared weight count against it before allocating.
func (a *artifactFile) Len() int {
	fi, err := a.f.Stat()
	if err != nil || fi.Size() < a.n {
		return 0
	}
	return int(fi.Size() - a.n)
}

// loadModel reads one artifact from disk in a single streaming pass, its
// kind decided from the leading bytes. Both deserializers validate, so a
// corrupt file is rejected here and never enters the cache.
func loadModel(path, id string) (*Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	prefix := make([]byte, sniffBytes)
	n, err := f.ReadAt(prefix, 0)
	if err != nil && err != io.EOF {
		return nil, err
	}
	kind, err := sniffKind(prefix[:n], id)
	if err != nil {
		return nil, err
	}
	a := &artifactFile{f: f, r: io.LimitReader(f, maxModelFileBytes+1)}
	m := &Model{ID: id, Kind: kind}
	if kind == KindIBoxML {
		m.ML, err = iboxml.Read(a)
	} else {
		m.Net, err = iboxnet.ReadParams(a)
	}
	if a.n > maxModelFileBytes {
		return nil, fmt.Errorf("serve: model %s is over the %d-byte limit", id, int64(maxModelFileBytes))
	}
	if err != nil {
		return nil, fmt.Errorf("serve: model %s: %w", id, err)
	}
	m.SizeBytes = a.n
	return m, nil
}
