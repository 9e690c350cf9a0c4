package iboxnet

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"

	"ibox/internal/atomicfile"
)

// Validate checks that parameters — typically ones just deserialized from
// disk — describe a physically plausible bottleneck, so a truncated or
// hand-edited profile is rejected at load time instead of driving the
// emulator with NaN rates or a negative buffer.
func (p Params) Validate() error {
	if !(p.Bandwidth > 0) || math.IsInf(p.Bandwidth, 0) {
		return fmt.Errorf("iboxnet: bandwidth %v bytes/s, want finite > 0", p.Bandwidth)
	}
	if p.BufferBytes <= 0 {
		return fmt.Errorf("iboxnet: buffer %d bytes, want > 0", p.BufferBytes)
	}
	if p.PropDelay < 0 {
		return fmt.Errorf("iboxnet: negative propagation delay %v", p.PropDelay)
	}
	if math.IsNaN(p.LossRate) || p.LossRate < 0 || p.LossRate > 1 {
		return fmt.Errorf("iboxnet: loss rate %v outside [0,1]", p.LossRate)
	}
	if ct := p.CrossTraffic; ct != nil {
		if ct.Step <= 0 {
			return fmt.Errorf("iboxnet: cross-traffic series step %v, want > 0", ct.Step)
		}
		if len(ct.Vals) == 0 {
			return fmt.Errorf("iboxnet: cross-traffic series has no windows")
		}
		for i, v := range ct.Vals {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				return fmt.Errorf("iboxnet: cross-traffic window %d is %v, want finite >= 0", i, v)
			}
		}
	}
	return nil
}

// Write serializes the parameters as JSON (the "iBoxNet profile" the paper
// planned to release for the community).
func (p Params) Write(w io.Writer) error {
	return json.NewEncoder(w).Encode(p)
}

// ReadParams restores parameters serialized by Write.
func ReadParams(r io.Reader) (Params, error) {
	var p Params
	if err := json.NewDecoder(r).Decode(&p); err != nil {
		return Params{}, fmt.Errorf("iboxnet: decode params: %w", err)
	}
	if err := p.Validate(); err != nil {
		return Params{}, fmt.Errorf("decoded params invalid: %w", err)
	}
	return p, nil
}

// Save writes the parameters to a file, replacing any previous one
// atomically.
func (p Params) Save(path string) error {
	return atomicfile.Write(path, p.Write)
}

// LoadParams reads parameters from a file.
func LoadParams(path string) (Params, error) {
	f, err := os.Open(path)
	if err != nil {
		return Params{}, err
	}
	defer f.Close()
	return ReadParams(bufio.NewReader(f))
}
