package trace

import (
	"bufio"
	"os"
)

// SaveJSON writes the trace to a file.
func (t *Trace) SaveJSON(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	if err := t.WriteJSON(w); err != nil {
		return err
	}
	return w.Flush()
}

// LoadJSON reads a trace from a file.
func LoadJSON(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadJSON(bufio.NewReader(f))
}
