package wire

import (
	"encoding/json"
	"errors"
	"os"
	"strings"
	"testing"
)

func TestTruncated(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want bool
	}{
		{"", true}, {"  ", true}, {`{"a":[1,`, true}, {`{"a":"x`, true}, {"nul", true},
		{"null", true}, {"5", true}, {`"s"`, true}, // a top-level scalar needs the byte after it
		{"null ", false}, {"5,", false}, {`{}`, false}, {`[1] x`, false},
		{`{"a" 1`, false}, {"}", false}, // syntax errors decide before the read does
	} {
		if got := Truncated([]byte(tc.in)); got != tc.want {
			t.Errorf("Truncated(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// members is encoding/json's view of the objects in
// testdata/fastpaths.txt; readMembers is the Reader's.
type members struct {
	Seq  int64 `json:"seq"`
	Size int64 `json:"size"`
	Send int64 `json:"send"`
}

var memberNames = []string{"seq", "size", "send"}

func readMembers(b []byte) (members, error) {
	var m members
	r := NewReader(b)
	if r.Object() {
		var seen uint64
		for r.More() {
			switch r.Key(memberNames, &seen) {
			case 0:
				m.Seq = r.Int64()
			case 1:
				m.Size = r.Int64()
			case 2:
				m.Send = r.Int64()
			default:
				r.Skip()
			}
		}
	}
	return m, r.Err()
}

func readInt64(b []byte) (int64, error) {
	r := NewReader(b)
	n := r.Int64()
	return n, r.Err()
}

// fastPathBodies returns the integer tokens and the object bodies of
// testdata/fastpaths.txt.
func fastPathBodies(t *testing.T) (ints, objects []string) {
	b, err := os.ReadFile("testdata/fastpaths.txt")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		switch {
		case line == "" || line[0] == '#':
		case line[0] == '{':
			objects = append(objects, line)
		default:
			ints = append(ints, line)
		}
	}
	return ints, objects
}

// agree requires read to give what encoding/json's Decoder gives for
// body, or both to fail; ErrDuplicateMember is the one allowed departure.
func agree[T comparable](t *testing.T, body string, read func([]byte) (T, error)) {
	t.Helper()
	got, err := read([]byte(body))
	if errors.Is(err, ErrDuplicateMember) {
		return
	}
	var want T
	werr := json.NewDecoder(strings.NewReader(body)).Decode(&want)
	if (err == nil) != (werr == nil) {
		t.Errorf("%q: Reader err = %v, encoding/json err = %v", body, err, werr)
	} else if err == nil && got != want {
		t.Errorf("%q: Reader read %+v, encoding/json %+v", body, got, want)
	}
}

// TestFastPathsMatchEncodingJSON decodes every body of
// testdata/fastpaths.txt with the Reader and with encoding/json: an
// integer token on its own (where it ends the buffer) and as a member,
// and each object over the same three member names.
func TestFastPathsMatchEncodingJSON(t *testing.T) {
	ints, objects := fastPathBodies(t)
	for _, tok := range ints {
		agree(t, tok, readInt64)
		agree(t, `{"seq":`+tok+`}`, readMembers)
	}
	for _, body := range objects {
		agree(t, body, readMembers)
	}
	for _, body := range []string{`{"size":1,"seq":2,"size":3}`, `{"seq":1,"SEQ":2}`, `{"seq":1,"seq":2}`} {
		if _, err := readMembers([]byte(body)); !errors.Is(err, ErrDuplicateMember) {
			t.Errorf("%s: err = %v, want ErrDuplicateMember", body, err)
		}
	}
}
