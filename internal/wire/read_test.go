package wire

import "testing"

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
