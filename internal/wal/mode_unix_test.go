//go:build unix

package wal

import (
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

// TestLogReplaceKeepsMode: the log Replace installs has the mode Open
// creates it with, so a checkpoint never widens its permissions. The
// umask is cleared for the test, or it would hide a wider mode.
func TestLogReplaceKeepsMode(t *testing.T) {
	old := syscall.Umask(0)
	t.Cleanup(func() { syscall.Umask(old) })
	path := filepath.Join(t.TempDir(), "wal.log")
	l, _ := openT(t, path)
	defer l.Close()
	mode := func() os.FileMode {
		t.Helper()
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return fi.Mode().Perm()
	}
	if m := mode(); m != 0o644 {
		t.Fatalf("Open created the log with mode %v, want -rw-r--r--", m)
	}
	if err := l.Replace([]Record{{Seq: 1, Op: OpKey, ID: "k1"}}); err != nil {
		t.Fatal(err)
	}
	if m := mode(); m != 0o644 {
		t.Fatalf("after Replace the log has mode %v, want -rw-r--r--", m)
	}
}
