package trace

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"

	"ibox/internal/wire"
)

// FuzzReadCSV checks the CSV trace parser never panics and that anything
// it accepts satisfies the trace invariants.
func FuzzReadCSV(f *testing.F) {
	var good bytes.Buffer
	tr := mkTrace(5, 100, 1000, 500)
	tr.WriteCSV(&good)
	f.Add(good.String())
	f.Add("")
	f.Add("seq,size,send_ns,recv_ns,lost\n1,2,3\n")
	f.Add("# protocol=x path=y\n0,100,0,50,0\n")
	f.Add("0,100,0,50,2\n0,100,-5,50,0\n")
	f.Fuzz(func(t *testing.T, s string) {
		tr, err := ReadCSV(strings.NewReader(s))
		if err != nil {
			return
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("ReadCSV accepted an invalid trace: %v", err)
		}
	})
}

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
