// Package atomicfile replaces a file in one step, so a reader that opens
// the path while it is being rewritten sees the old content or the new,
// never a prefix of the new.
package atomicfile

import (
	"bufio"
	"io"
	"os"
	"path/filepath"
)

// Write streams write's output to a temporary file beside path, then
// renames it over path. The temporary name starts with a dot, which the
// serving registry neither lists nor loads. On any error path is left as
// it was and the temporary file is removed.
func Write(path string, write func(io.Writer) error) (err error) {
	f, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			f.Close() // already failing; the first error is the one to report
			os.Remove(f.Name())
		}
	}()
	w := bufio.NewWriter(f)
	if err = write(w); err != nil {
		return err
	}
	if err = w.Flush(); err != nil {
		return err
	}
	// CreateTemp's 0600 is for secrets; artifacts keep os.Create's mode.
	if err = f.Chmod(0o644); err != nil {
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	return os.Rename(f.Name(), path)
}
