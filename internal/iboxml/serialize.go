package iboxml

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"ibox/internal/atomicfile"
	"ibox/internal/nn"
)

// An artifact is a one-line JSON header followed by the network's weights
// as raw little-endian float64 (see nn.Header). formatRaw names that
// layout in the header; legacy artifacts are a single JSON document with
// the weights inline and carry no format field.
const (
	formatRaw = 2
	// maxHeaderBytes bounds the header line (a real one is under 2 KiB),
	// and so how far into a file a reader looks before it knows the layout.
	maxHeaderBytes = 64 << 10
)

// modelJSON is the JSON part of a serialized Model: the whole of a legacy
// artifact, the header line of a current one.
type modelJSON struct {
	Format      int        `json:"format,omitempty"`
	Cfg         Config     `json:"config"`
	Net         *nn.Header `json:"net"`
	XMean       []float64  `json:"x_mean"`
	XStd        []float64  `json:"x_std"`
	YMean       float64    `json:"y_mean"`
	YStd        float64    `json:"y_std"`
	OutlierRate float64    `json:"outlier_rate"`
	MinDelayMs  float64    `json:"min_delay_ms"`
	Envelope    envelope   `json:"envelope"`
	// Calibration is the optional training-time baseline (SetBaseline).
	// Omitted when absent; decoders ignore unknown fields, so artifacts
	// round-trip across versions in both directions.
	Calibration *Calibration `json:"calibration,omitempty"`
}

// Write serializes the trained model: the header as one newline-terminated
// JSON object (`head -n1 model | jq .` shows it), then the weight section.
func (m *Model) Write(w io.Writer) error {
	if !m.trained {
		return fmt.Errorf("iboxml: cannot serialize an untrained model")
	}
	net := m.Net.Header()
	var hdr bytes.Buffer
	if err := json.NewEncoder(&hdr).Encode(modelJSON{
		Format: formatRaw,
		Cfg:    m.Cfg, Net: &net,
		XMean: m.xScale.Mean, XStd: m.xScale.Std,
		YMean: m.yMean, YStd: m.yStd,
		OutlierRate: m.outlierRate, MinDelayMs: m.minDelayMs,
		Envelope: m.env, Calibration: m.baseline,
	}); err != nil {
		return err
	}
	if hdr.Len() > maxHeaderBytes {
		return fmt.Errorf("iboxml: model header is %d bytes, over the %d-byte limit", hdr.Len(), maxHeaderBytes)
	}
	if _, err := w.Write(hdr.Bytes()); err != nil {
		return err
	}
	return m.Net.WriteWeights(w)
}

// Read restores a model serialized by Write, or a legacy all-JSON one. A
// reader that can report its remaining length (Len() int, as bytes.Reader,
// bytes.Buffer and strings.Reader do) is streamed; any other is buffered
// first if it turns out to hold a weight section, because the section's
// length is checked against the header before the network is allocated.
func Read(r io.Reader) (*Model, error) {
	size := int64(-1)
	if l, ok := r.(interface{ Len() int }); ok {
		size = int64(l.Len())
	}
	return read(r, size)
}

// read is Read over an input of size bytes (-1: unknown).
func read(r io.Reader, size int64) (*Model, error) {
	dec := json.NewDecoder(r)
	var in modelJSON
	if err := dec.Decode(&in); err != nil {
		return nil, fmt.Errorf("iboxml: decode model: %w", err)
	}
	if in.Net == nil {
		return nil, fmt.Errorf("iboxml: model has no network")
	}
	var net *nn.SequenceModel
	var err error
	switch in.Format {
	case 0:
		net, err = in.Net.Inline()
	case formatRaw:
		hdrLen := dec.InputOffset() + 1 // the header and its newline
		if hdrLen > maxHeaderBytes {
			return nil, fmt.Errorf("iboxml: model header is over the %d-byte limit", maxHeaderBytes)
		}
		// The decoder has read ahead; the section starts in its buffer.
		rest := io.MultiReader(dec.Buffered(), r)
		var nl [1]byte
		if _, err := io.ReadFull(rest, nl[:]); err != nil || nl[0] != '\n' {
			return nil, fmt.Errorf("iboxml: model header is not newline-terminated")
		}
		if size < 0 {
			data, err := io.ReadAll(rest)
			if err != nil {
				return nil, fmt.Errorf("iboxml: read weight section: %w", err)
			}
			rest, size = bytes.NewReader(data), hdrLen+int64(len(data))
		}
		net, err = in.Net.ReadWeights(rest, size-hdrLen)
	default:
		return nil, fmt.Errorf("iboxml: unknown artifact format %d", in.Format)
	}
	if err != nil {
		return nil, fmt.Errorf("iboxml: %w", err)
	}
	m := &Model{
		Cfg: in.Cfg, Net: net,
		xScale:      scaler{Mean: in.XMean, Std: in.XStd},
		yMean:       in.YMean,
		yStd:        in.YStd,
		outlierRate: in.OutlierRate,
		minDelayMs:  in.MinDelayMs,
		env:         in.Envelope,
		baseline:    in.Calibration,
		trained:     true,
	}
	// Reject corrupt or hand-edited checkpoints at load time rather than
	// letting them produce NaN delays (or panic) on first use.
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// Save writes the model to a file, replacing any previous one atomically.
func (m *Model) Save(path string) error {
	return atomicfile.Write(path, m.Write)
}

// Load reads a model from a file.
func Load(path string) (*Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	return read(f, fi.Size())
}
