package trace

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"strings"
	"testing"

	"ibox/internal/wire"
)

// FuzzReadJSON checks the JSON form against encoding/json as the oracle:
// ReadJSON accepts what json.Decoder decodes into a valid Trace, to the
// same value (except a member set twice, which ReadJSON refuses), and
// WriteJSON writes what json.Encoder writes.
func FuzzReadJSON(f *testing.F) {
	var good bytes.Buffer
	tr := mkTrace(3, 100, 1000, 500)
	tr.Packets[1].Lost = true
	tr.WriteJSON(&good)
	f.Add(good.String())
	f.Add("{}")
	f.Add(`{"packets":[{"seq":0,"size":1,"send":0,"recv":0}]}`)
	f.Add(`{"Protocol": "x", "PATH_ID": "y", "Packets": [{"Seq": 1, "SIZE": 2, "send": 3, "recv": 4, "lost": false}]}`)
	f.Add(`{"packets":[null,{"seq":null,"size":1,"lost":null}],"protocol":null,"x":[{"y":{}}]}`)
	f.Add(`{"packets":[]} trailing`)
	f.Add(`{"packets":null}`)
	f.Add(`{"packets":[{"seq":1,"size":1,"send":1.0,"recv":2}]}`)
	f.Add(`{"protocol":"aé\"<>","path_id":"\xff","packets":[]}`)
	f.Add(`{"packets":[{"size":1,"SIZE":2}]}`)
	// The wire reader's fast-path cases, as a packet.
	fast, err := os.ReadFile("../wire/testdata/fastpaths.txt")
	if err != nil {
		f.Fatal(err)
	}
	for _, line := range strings.Split(string(fast), "\n") {
		switch {
		case line == "" || line[0] == '#':
		case line[0] == '{':
			f.Add(`{"packets":[` + line + `]}`)
		default:
			f.Add(`{"packets":[{"seq":` + line + `,"size":1}]}`)
		}
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, err := ReadJSON(strings.NewReader(s))
		if errors.Is(err, wire.ErrDuplicateMember) {
			return
		}
		var want Trace
		werr := json.NewDecoder(strings.NewReader(s)).Decode(&want)
		if werr == nil {
			werr = want.Validate()
		}
		if (err == nil) != (werr == nil) {
			t.Fatalf("ReadJSON err = %v, encoding/json err = %v", err, werr)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(*got, want) {
			t.Fatalf("ReadJSON decoded %+v, encoding/json %+v", *got, want)
		}
		var gotOut, wantOut bytes.Buffer
		if err := got.WriteJSON(&gotOut); err != nil {
			t.Fatal(err)
		}
		if err := json.NewEncoder(&wantOut).Encode(got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotOut.Bytes(), wantOut.Bytes()) {
			t.Fatalf("WriteJSON wrote %s, encoding/json %s", gotOut.Bytes(), wantOut.Bytes())
		}
	})
}
