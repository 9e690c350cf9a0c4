package nn

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// Header is the JSON description of a serialized SequenceModel: the
// architecture, and where the weight values are. Artifacts written today
// declare Weights and CRC32C and keep the values out of the JSON, in a raw
// section of exactly 8·Weights bytes (little-endian IEEE-754 float64 in
// artifact order: per LSTM layer Wx, Wh and b, whose row r = g·Hidden + j
// is gate g of unit j, then the head's W and b; see WriteWeights and
// ReadWeights). Legacy artifacts carry the values inline as Params, one
// array per tensor, and declare neither.
//
// The section stays float64 although a model holds its LSTM weights as
// float32: the writer emits each widened, so an artifact loads to exactly
// the weights it was written from. An artifact written when those weights
// were float64 rounds each to the nearest float32 once, on load; one
// beyond float32's range is rejected as corrupt rather than turned into
// ±Inf.
type Header struct {
	Kind   HeadKind `json:"kind"`
	In     int      `json:"in"`
	Hidden int      `json:"hidden"`
	Layers int      `json:"layers"`

	Weights int64  `json:"weights,omitempty"` // float64 count of the raw section
	CRC32C  uint32 `json:"crc32c,omitempty"`  // Castagnoli CRC of the section's bytes

	Params [][]float64 `json:"params,omitempty"` // legacy: one inline array per tensor
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// weightChunk sizes the staging buffers both directions of the raw section
// stream through; they are the only memory a load needs beyond the
// tensors.
const weightChunk = 64 << 10

// expMask is the float64 exponent field; all ones means NaN or ±Inf.
const expMask = 0x7ff << 52

// validate rejects architectures no model of this codebase has, before
// anything is sized from them: building an impossible shape would panic,
// and a corrupt or truncated checkpoint must surface as an error.
func (h Header) validate() error {
	if h.Kind != GaussianHead && h.Kind != BinaryHead {
		return fmt.Errorf("nn: serialized model has unknown head kind %d", h.Kind)
	}
	if h.In <= 0 || h.Hidden <= 0 || h.Layers <= 0 {
		return fmt.Errorf("nn: serialized model has impossible shape in=%d hidden=%d layers=%d",
			h.In, h.Hidden, h.Layers)
	}
	// Cap the shape well above any model this codebase trains (the paper's
	// largest is ≈2M parameters) so a corrupted size field cannot demand a
	// multi-gigabyte allocation before the weight count check runs.
	if h.In > 4096 || h.Hidden > 4096 || h.Layers > 64 {
		return fmt.Errorf("nn: serialized model shape in=%d hidden=%d layers=%d is implausibly large",
			h.In, h.Hidden, h.Layers)
	}
	return nil
}

// headOut is the width of the dense head for an output distribution.
func headOut(kind HeadKind) int {
	if kind == BinaryHead {
		return 1
	}
	return 2
}

// tensorSizes lists the length of every tensor of the (validated)
// architecture in artifact order, without allocating any of them.
func (h Header) tensorSizes() []int64 {
	H, in, out := int64(h.Hidden), int64(h.In), int64(headOut(h.Kind))
	sizes := make([]int64, 0, 3*h.Layers+2)
	for l := 0; l < h.Layers; l++ {
		sizes = append(sizes, 4*H*in, 4*H*H, 4*H)
		in = H
	}
	return append(sizes, out*H, out)
}

// weightCount is the architecture's scalar parameter count.
func (h Header) weightCount() int64 {
	var n int64
	for _, sz := range h.tensorSizes() {
		n += sz
	}
	return n
}

// empty allocates the architecture with all-zero weights: the shell a
// reader fills, without the random init NewSequenceModel would run only
// to have it overwritten.
func (h Header) empty() *SequenceModel {
	im := &InferModel{maxH: h.Hidden}
	for l := 0; l < h.Layers; l++ {
		in := h.Hidden
		if l == 0 {
			in = h.In
		}
		im.Layers = append(im.Layers, newInferLayer(in, h.Hidden))
	}
	return &SequenceModel{Kind: h.Kind, LSTM: im, Head: newDense(h.Hidden, headOut(h.Kind))}
}

// tensor is one weight tensor of a model in artifact order: tensor t of
// packed layer l, or the plain slice w.
type tensor struct {
	l *InferLayer
	t int
	w []float64
}

func (x tensor) len() int {
	if x.l != nil {
		return x.l.tensorLen(x.t)
	}
	return len(x.w)
}

// put stores vals as values [at, at+len(vals)) of the tensor. An LSTM
// tensor is float32, so there put rounds each value, and refuses (storing
// nothing) a run holding a magnitude float32 cannot reach, which would
// narrow to ±Inf.
func (x tensor) put(at int, vals []float64) error {
	if x.l == nil {
		copy(x.w[at:], vals)
		return nil
	}
	for _, v := range vals {
		if math.Abs(v) > math.MaxFloat32 {
			return fmt.Errorf("weight %g is outside float32 range", v)
		}
	}
	x.l.scatter(x.t, at, vals)
	return nil
}

// get reads values [at, at+len(dst)) of the tensor into dst.
func (x tensor) get(at int, dst []float64) {
	if x.l != nil {
		x.l.gather(x.t, at, dst)
		return
	}
	copy(dst, x.w[at:])
}

// tensors lists the model's weight tensors in artifact order.
func (m *SequenceModel) tensors() []tensor {
	var ts []tensor
	for _, l := range m.LSTM.Layers {
		for t := 0; t < tensorsPerLayer; t++ {
			ts = append(ts, tensor{l: l, t: t})
		}
	}
	for _, p := range m.Head.Params() {
		ts = append(ts, tensor{w: p.W})
	}
	return ts
}

// Inline restores a model from a legacy header, whose weights are the
// inline Params arrays.
func (h Header) Inline() (*SequenceModel, error) {
	if err := h.validate(); err != nil {
		return nil, err
	}
	if h.Weights != 0 {
		return nil, fmt.Errorf("nn: serialized model declares a %d-weight raw section where inline params were expected", h.Weights)
	}
	sizes := h.tensorSizes()
	if len(sizes) != len(h.Params) {
		return nil, fmt.Errorf("nn: serialized model has %d tensors, want %d", len(h.Params), len(sizes))
	}
	for i, n := range sizes {
		if n != int64(len(h.Params[i])) {
			return nil, fmt.Errorf("nn: tensor %d has %d weights, want %d", i, len(h.Params[i]), n)
		}
	}
	m := h.empty()
	for i, x := range m.tensors() {
		if err := x.put(0, h.Params[i]); err != nil {
			return nil, fmt.Errorf("nn: tensor %d: %w", i, err)
		}
	}
	return m, nil
}

// ReadWeights restores a model from a raw-section header and r, which must
// hold exactly the section: size is the byte count r will deliver, and it
// is compared with the declared count before any tensor is allocated, so a
// small file cannot claim a large model. The section is then read in
// weightChunk pieces, each LSTM tensor scattered straight into its layer's
// packed float32 unit blocks. Truncation, trailing bytes, a CRC mismatch,
// non-finite values and LSTM weights beyond float32's range are errors.
func (h Header) ReadWeights(r io.Reader, size int64) (*SequenceModel, error) {
	if err := h.validate(); err != nil {
		return nil, err
	}
	if h.Params != nil {
		return nil, fmt.Errorf("nn: serialized model carries inline params where a raw section was expected")
	}
	if n := h.weightCount(); h.Weights != n {
		return nil, fmt.Errorf("nn: serialized model declares %d weights, its shape has %d", h.Weights, n)
	}
	if size != 8*h.Weights {
		return nil, fmt.Errorf("nn: weight section is %d bytes, want %d for %d weights", size, 8*h.Weights, h.Weights)
	}
	m := h.empty()
	buf := make([]byte, weightChunk)
	vals := make([]float64, weightChunk/8)
	var crc uint32
	for i, x := range m.tensors() {
		for at, n := 0, x.len(); at < n; at += len(vals) {
			run := vals[:min(n-at, len(vals))]
			b := buf[:8*len(run)]
			if _, err := io.ReadFull(r, b); err != nil {
				return nil, fmt.Errorf("nn: weight section ends inside tensor %d: %w", i, err)
			}
			crc = crc32.Update(crc, castagnoli, b)
			for j := range run {
				bits := binary.LittleEndian.Uint64(b[8*j:])
				if bits&expMask == expMask {
					return nil, fmt.Errorf("nn: tensor %d holds a non-finite weight", i)
				}
				run[j] = math.Float64frombits(bits)
			}
			if err := x.put(at, run); err != nil {
				return nil, fmt.Errorf("nn: tensor %d: %w", i, err)
			}
		}
	}
	if n, err := io.ReadFull(r, buf[:1]); n != 0 {
		return nil, fmt.Errorf("nn: bytes follow the %d-weight section", h.Weights)
	} else if err != io.EOF {
		return nil, fmt.Errorf("nn: reading past the weight section: %w", err)
	}
	if crc != h.CRC32C {
		return nil, fmt.Errorf("nn: weight section CRC-32C is %08x, header declares %08x", crc, h.CRC32C)
	}
	return m, nil
}

// WriteWeights writes the raw weight section: every tensor in artifact
// order as little-endian float64, the LSTM's float32 weights widened.
func (m *SequenceModel) WriteWeights(w io.Writer) error {
	vals := make([]float64, weightChunk/8)
	buf := make([]byte, 0, weightChunk)
	for _, x := range m.tensors() {
		for at, n := 0, x.len(); at < n; at += len(vals) {
			run := vals[:min(n-at, len(vals))]
			x.get(at, run)
			buf = buf[:0]
			for _, v := range run {
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
			}
			if _, err := w.Write(buf); err != nil {
				return err
			}
		}
	}
	return nil
}

// Header describes the model for the raw-section layout, including the
// section's checksum (one pass over the weights).
func (m *SequenceModel) Header() Header {
	sum := crc32.New(castagnoli)
	m.WriteWeights(sum) // a hash never fails a write
	in, hidden, layers := m.Arch()
	return Header{
		Kind:    m.Kind,
		In:      in,
		Hidden:  hidden,
		Layers:  layers,
		Weights: int64(m.NumParams()),
		CRC32C:  sum.Sum32(),
	}
}
