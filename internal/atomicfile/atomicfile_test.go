package atomicfile

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func TestWriteReplacesOrLeavesAlone(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "artifact.json")
	put := func(content string) func(io.Writer) error {
		return func(w io.Writer) error { _, err := io.WriteString(w, content); return err }
	}
	if err := Write(path, put("first")); err != nil {
		t.Fatal(err)
	}
	if err := Write(path, put("second")); err != nil {
		t.Fatal(err)
	}
	// A writer that fails half-way leaves the previous file as it was.
	boom := errors.New("boom")
	err := Write(path, func(w io.Writer) error {
		io.WriteString(w, "partial")
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Write returned %v, want the writer's error", err)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "second" {
		t.Fatalf("after a failed write the file holds %q (%v), want %q", got, err, "second")
	}
	if fi, err := os.Stat(path); err != nil || fi.Mode().Perm()&0o044 != 0o044 {
		t.Fatalf("artifact mode %v (%v), want group/world readable like os.Create's", fi.Mode(), err)
	}
	des, err := os.ReadDir(dir)
	if err != nil || len(des) != 1 {
		t.Fatalf("directory holds %d entries (%v), want only the artifact", len(des), err)
	}
	if err := Write(filepath.Join(dir, "no-such-dir", "x"), put("x")); err == nil {
		t.Fatal("Write into a missing directory succeeded")
	}
}
