package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"existdlog/internal/engine"
)

func rec(seq uint64, op Op, facts ...Fact) Record {
	return Record{Seq: seq, Op: op, Facts: facts}
}

func openT(t *testing.T, path string) (*Log, []Record) {
	t.Helper()
	l, recs, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	return l, recs
}

func TestLogRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, recs := openT(t, path)
	if len(recs) != 0 {
		t.Fatalf("fresh log replayed %d records", len(recs))
	}
	want := []Record{
		rec(1, OpUpdate, Fact{Key: "e", Row: []string{"a", "b"}}),
		rec(2, OpRetract, Fact{Key: "e", Row: []string{"a", "b"}}),
		rec(3, OpUpdate,
			Fact{Key: "e", Row: []string{"with,comma", "with\"quote"}},
			Fact{Key: "b@f", Row: nil}),
	}
	for _, r := range want {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if l.LastSeq() != 3 {
		t.Errorf("LastSeq = %d, want 3", l.LastSeq())
	}
	l.Close()

	l2, got := openT(t, path)
	defer l2.Close()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("replay\ngot  %v\nwant %v", got, want)
	}
	if l2.LastSeq() != 3 {
		t.Errorf("reopened LastSeq = %d, want 3", l2.LastSeq())
	}
}

// TestLogTornTail cuts the file at every byte boundary inside the last
// frame and checks that replay keeps exactly the intact prefix, that the
// tail is physically truncated, and that appending afterwards works.
func TestLogTornTail(t *testing.T) {
	dir := t.TempDir()
	ref := filepath.Join(dir, "ref.log")
	l, _ := openT(t, ref)
	if err := l.Append(rec(1, OpUpdate, Fact{Key: "e", Row: []string{"a", "b"}})); err != nil {
		t.Fatal(err)
	}
	intact, err := os.ReadFile(ref)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(rec(2, OpUpdate, Fact{Key: "e", Row: []string{"c", "d"}})); err != nil {
		t.Fatal(err)
	}
	l.Close()
	full, err := os.ReadFile(ref)
	if err != nil {
		t.Fatal(err)
	}

	for cut := len(intact) + 1; cut < len(full); cut++ {
		path := filepath.Join(dir, fmt.Sprintf("cut%d.log", cut))
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l, recs := openT(t, path)
		if len(recs) != 1 || recs[0].Seq != 1 {
			t.Fatalf("cut at %d: replayed %v, want record 1 only", cut, recs)
		}
		if fi, err := os.Stat(path); err != nil || fi.Size() != int64(len(intact)) {
			t.Fatalf("cut at %d: size %d after open, want %d", cut, fi.Size(), len(intact))
		}
		if err := l.Append(rec(2, OpUpdate, Fact{Key: "e", Row: []string{"x", "y"}})); err != nil {
			t.Fatal(err)
		}
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
		l.Close()
		l2, recs2 := openT(t, path)
		l2.Close()
		if len(recs2) != 2 {
			t.Fatalf("cut at %d: append after truncation lost records: %v", cut, recs2)
		}
	}
}

// TestLogCorruptFrame flips a payload byte mid-log: replay must stop at
// the corruption instead of decoding garbage.
func TestLogCorruptFrame(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, _ := openT(t, path)
	for seq := uint64(1); seq <= 3; seq++ {
		if err := l.Append(rec(seq, OpUpdate, Fact{Key: "e", Row: []string{"a", "b"}})); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff // lands in the second frame
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, recs := openT(t, path)
	l2.Close()
	if len(recs) != 1 {
		t.Fatalf("replayed %d records across a corrupt frame, want 1", len(recs))
	}
}

// TestLogReset: Replace with no records empties the log, and appends
// after it are all that replays.
func TestLogReset(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, _ := openT(t, path)
	if err := l.Append(rec(7, OpUpdate, Fact{Key: "e", Row: []string{"a", "b"}})); err != nil {
		t.Fatal(err)
	}
	if err := l.Replace(nil); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(rec(8, OpUpdate, Fact{Key: "e", Row: []string{"c", "d"}})); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	l.Close()
	l2, recs := openT(t, path)
	l2.Close()
	if len(recs) != 1 || recs[0].Seq != 8 {
		t.Fatalf("after reset replayed %v, want record 8 only", recs)
	}
}

// TestLogReplace: Replace leaves exactly the given records, no temporary
// file, and a log that takes appends (and Rollback) after them.
func TestLogReplace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, _ := openT(t, path)
	for seq := uint64(1); seq <= 3; seq++ {
		if err := l.Append(rec(seq, OpUpdate, Fact{Key: "e", Row: []string{"a", fmt.Sprint(seq)}})); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Replace([]Record{{Seq: 1, Op: OpKey, ID: "k1"}, {Seq: 3, Op: OpKey, ID: "k3"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temporary file left behind: %v", err)
	}
	if err := l.Append(rec(4, OpUpdate, Fact{Key: "e", Row: []string{"a", "4"}})); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(rec(5, OpUpdate, Fact{Key: "e", Row: []string{"a", "5"}})); err != nil {
		t.Fatal(err)
	}
	if err := l.Rollback(); err != nil {
		t.Fatal(err)
	}
	l.Close()
	l2, recs := openT(t, path)
	l2.Close()
	var got []string
	for _, r := range recs {
		got = append(got, fmt.Sprintf("%s %s@%d", r.Op, r.ID, r.Seq))
	}
	if want := "[key k1@1 key k3@3 update @4]"; fmt.Sprint(got) != want {
		t.Fatalf("after Replace replayed %v, want %s", got, want)
	}
}

// TestLogReplaceTwice: a second Replace on the same Log still replaces
// the log at its path, and appends after it land there, not in a file
// named after the first Replace's temporary.
func TestLogReplaceTwice(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	l, _ := openT(t, path)
	for _, id := range []string{"k1", "k2"} {
		if err := l.Replace([]Record{{Seq: 1, Op: OpKey, ID: id}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Append(rec(2, OpUpdate, Fact{Key: "e", Row: []string{"a", "2"}})); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	l.Close()
	l2, recs := openT(t, path)
	l2.Close()
	var got []string
	for _, r := range recs {
		got = append(got, fmt.Sprintf("%s %s@%d", r.Op, r.ID, r.Seq))
	}
	if want := "[key k2@1 update @2]"; fmt.Sprint(got) != want {
		t.Fatalf("after two Replaces replayed %v, want %s", got, want)
	}
	if names, _ := filepath.Glob(filepath.Join(dir, "*.tmp*")); len(names) != 0 {
		t.Fatalf("files left beside the log: %v", names)
	}
}

func TestSnapshotFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snapshot.db")
	db := engine.NewDatabase()
	db.Add("e", "a", "b")
	db.Add("e", "with,comma", "line\nbreak")
	db.Add("flag")
	if err := WriteSnapshotFile(path, 42, db); err != nil {
		t.Fatal(err)
	}
	seq, got, err := ReadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 42 {
		t.Errorf("seq = %d, want 42", seq)
	}
	if fmt.Sprint(got.Facts("e")) != fmt.Sprint(db.Facts("e")) || got.Count("flag") != 1 {
		t.Errorf("snapshot round trip lost facts: %v", got.Facts("e"))
	}
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Error("temp file left behind")
	}
}

func TestSnapshotFileMissingAndTorn(t *testing.T) {
	dir := t.TempDir()
	if _, _, err := ReadSnapshotFile(filepath.Join(dir, "absent.db")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("missing snapshot: err = %v, want ErrNotExist", err)
	}
	path := filepath.Join(dir, "snapshot.db")
	db := engine.NewDatabase()
	db.Add("e", "a", "b")
	if err := WriteSnapshotFile(path, 1, db); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadSnapshotFile(path); err == nil {
		t.Error("torn snapshot accepted")
	}
}
