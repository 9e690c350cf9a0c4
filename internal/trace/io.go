package trace

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"ibox/internal/sim"
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

// WriteCSV writes the trace in a simple line format compatible with
// spreadsheet tools: header then seq,size,send_ns,recv_ns,lost.
func (t *Trace) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# protocol=%s path=%s\n", t.Protocol, t.PathID); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(bw, "seq,size,send_ns,recv_ns,lost"); err != nil {
		return err
	}
	for _, p := range t.Packets {
		lost := 0
		if p.Lost {
			lost = 1
		}
		if _, err := fmt.Fprintf(bw, "%d,%d,%d,%d,%d\n", p.Seq, p.Size, int64(p.SendTime), int64(p.RecvTime), lost); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadCSV parses the format written by WriteCSV.
func ReadCSV(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	t := &Trace{}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			for _, kv := range strings.Fields(strings.TrimPrefix(line, "#")) {
				if k, v, ok := strings.Cut(kv, "="); ok {
					switch k {
					case "protocol":
						t.Protocol = v
					case "path":
						t.PathID = v
					}
				}
			}
			continue
		}
		if strings.HasPrefix(line, "seq,") {
			continue // header
		}
		fields := strings.Split(line, ",")
		if len(fields) != 5 {
			return nil, fmt.Errorf("trace: csv line %d: want 5 fields, got %d", lineNo, len(fields))
		}
		var p Packet
		var err error
		if p.Seq, err = strconv.ParseInt(fields[0], 10, 64); err != nil {
			return nil, fmt.Errorf("trace: csv line %d seq: %w", lineNo, err)
		}
		if p.Size, err = strconv.Atoi(fields[1]); err != nil {
			return nil, fmt.Errorf("trace: csv line %d size: %w", lineNo, err)
		}
		send, err := strconv.ParseInt(fields[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: csv line %d send: %w", lineNo, err)
		}
		recv, err := strconv.ParseInt(fields[3], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: csv line %d recv: %w", lineNo, err)
		}
		lost, err := strconv.Atoi(fields[4])
		if err != nil {
			return nil, fmt.Errorf("trace: csv line %d lost: %w", lineNo, err)
		}
		p.SendTime, p.RecvTime, p.Lost = sim.Time(send), sim.Time(recv), lost != 0
		t.Packets = append(t.Packets, p)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}
