// Package wal provides the durability layer for the mutable query
// service: an append-only log of fact mutations plus checkpoint files,
// both designed so that a process killed at any instant recovers to
// exactly the acknowledged state.
//
// The log is a sequence of self-checking frames:
//
//	uint32 LE payload length | uint32 LE CRC-32 (IEEE) of payload | payload
//
// where the payload is one JSON-encoded Record. Appends become durable
// only at Sync (the caller groups several Appends per fsync); a crash
// mid-write leaves a torn tail that Open detects — short frame, bad
// checksum, or undecodable payload — and truncates away. Everything
// before the tear was fsync'd and acknowledged; everything after it was
// never acknowledged, so dropping it is exactly crash semantics.
//
// Records carry the store's sequence number. Checkpoints record the
// sequence they cover, so replay applies only records newer than the
// checkpoint; this makes checkpointing, then replacing the log (Replace),
// safe in either crash order (a stale log behind a fresh checkpoint is merely
// redundant, never double-applied).
package wal

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"existdlog/internal/engine"
	"existdlog/internal/failpoint"
)

// Op distinguishes the mutation kinds the service logs.
type Op string

const (
	OpUpdate  Op = "update"
	OpRetract Op = "retract"
	// OpProbe is a disk-health probe frame the degraded-mode recovery
	// path appends and fsyncs, then rolls back. It carries no facts and
	// replay skips it — one can survive only if the process dies between
	// the probe's sync and its rollback, which is harmless.
	OpProbe Op = "probe"
	// OpKey carries an idempotency key over a checkpoint: the mutation
	// with this ID was applied at Seq, which the checkpoint already
	// covers. It has no facts; replay only remembers the key.
	OpKey Op = "key"
)

// Fact is one base tuple named by relation key and constant row.
type Fact struct {
	Key string   `json:"key"`
	Row []string `json:"row"`
}

// Record is one durable mutation: all facts of one acknowledged write.
// ID is the client's idempotency key, when one was supplied: replay
// rebuilds the store's dedup window from it, so a retried ack-lost
// write is applied once even across a restart.
type Record struct {
	Seq   uint64 `json:"seq"`
	Op    Op     `json:"op"`
	Facts []Fact `json:"facts"`
	ID    string `json:"id,omitempty"`
	// Trace is the originating request's trace id, carried for
	// end-to-end correlation between the log and the flight recorder.
	// Replay ignores it; old logs without the field read back fine.
	Trace string `json:"trace,omitempty"`
}

// maxFrame bounds a frame payload; anything larger in a length header is
// treated as tail corruption rather than an attempted allocation.
const maxFrame = 1 << 28

// Log is an append-only mutation log backed by one file. It tracks two
// offsets: off, the end of everything appended, and synced, the end of
// the durable prefix (advanced by Sync). Rollback truncates back to the
// durable prefix — the degraded-mode path uses it to discard frames
// that were appended but never became durable, so the on-disk log never
// carries a record the store did not acknowledge and apply.
type Log struct {
	f       *os.File
	path    string // Replace renames over it; f's own name is a temporary's after a Replace
	lastSeq uint64
	off     int64
	synced  int64
}

// Open opens (creating if absent) the log at path, replays every intact
// record into the returned slice, and truncates any torn tail so the
// file ends at the last intact frame, ready for appends.
func Open(path string) (*Log, []Record, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	var recs []Record
	br := bufio.NewReader(f)
	var off int64 // end of the last intact frame
	var head [8]byte
	for {
		if _, err := io.ReadFull(br, head[:]); err != nil {
			break // clean EOF or torn header: both end the intact prefix
		}
		n := binary.LittleEndian.Uint32(head[0:4])
		sum := binary.LittleEndian.Uint32(head[4:8])
		if n > maxFrame {
			break
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(br, payload); err != nil {
			break
		}
		if crc32.ChecksumIEEE(payload) != sum {
			break
		}
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil {
			break
		}
		recs = append(recs, rec)
		off += int64(8 + n)
	}
	if err := f.Truncate(off); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("wal: truncate torn tail: %w", err)
	}
	if _, err := f.Seek(off, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	l := &Log{f: f, path: path, off: off, synced: off}
	for _, r := range recs {
		if r.Seq > l.lastSeq {
			l.lastSeq = r.Seq
		}
	}
	return l, recs, nil
}

// Append writes one record frame. It is buffered by the OS only; the
// record is not durable until Sync returns. The "wal/append" failpoint
// injects write faults (ENOSPC, EIO) here for the degraded-mode suite.
func (l *Log) Append(rec Record) error {
	if err := failpoint.Inject("wal/append"); err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	frame, err := encodeFrame(rec)
	if err != nil {
		return err
	}
	if _, err := l.f.Write(frame); err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	l.off += int64(len(frame))
	if rec.Seq > l.lastSeq {
		l.lastSeq = rec.Seq
	}
	return nil
}

// encodeFrame writes rec as one checksummed frame.
func encodeFrame(rec Record) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("wal: encode: %w", err)
	}
	frame := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	copy(frame[8:], payload)
	return frame, nil
}

// Sync makes every appended record durable (one fsync; callers batch
// appends to group-commit). The "wal/sync" failpoint injects fsync
// faults here for the degraded-mode suite.
func (l *Log) Sync() error {
	if err := failpoint.Inject("wal/sync"); err != nil {
		return fmt.Errorf("wal: sync: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: sync: %w", err)
	}
	l.synced = l.off
	return nil
}

// Rollback discards every frame appended since the last successful
// Sync, truncating the file back to the durable prefix. The store calls
// it after a failed group commit: the discarded frames were never
// acknowledged and never applied, so dropping them restores the
// log-matches-store invariant before the next write (or probe).
func (l *Log) Rollback() error {
	if l.off == l.synced {
		return nil
	}
	if err := l.f.Truncate(l.synced); err != nil {
		return fmt.Errorf("wal: rollback: %w", err)
	}
	if _, err := l.f.Seek(l.synced, io.SeekStart); err != nil {
		return fmt.Errorf("wal: rollback: %w", err)
	}
	l.off = l.synced
	return nil
}

// Probe checks the log can still take durable writes: it appends a
// contentless probe frame, fsyncs it, and rolls it back. Success means
// appends and fsyncs work again — the degraded-mode recovery signal. A
// probe frame that survives a crash between sync and rollback is
// skipped at replay (OpProbe carries no facts).
func (l *Log) Probe() error {
	if err := l.Rollback(); err != nil {
		return err
	}
	base := l.off
	if err := l.Append(Record{Op: OpProbe}); err != nil {
		return err
	}
	if err := l.Sync(); err != nil {
		// The probe frame never became durable; best-effort drop it (a
		// leftover is re-dropped by the next probe's own Rollback).
		l.Rollback()
		return err
	}
	// The probe frame is durable, so the disk is healthy; truncate it
	// away (synced moved past it, so Rollback would keep it).
	if err := l.f.Truncate(base); err != nil {
		return fmt.Errorf("wal: probe: %w", err)
	}
	if _, err := l.f.Seek(base, io.SeekStart); err != nil {
		return fmt.Errorf("wal: probe: %w", err)
	}
	l.off, l.synced = base, base
	return nil
}

// Replace discards the log contents but recs, durably and atomically:
// the records are written to a temporary file, fsync'd, and renamed over
// the log, so a crash leaves either the old log or exactly recs, never a
// log holding neither. A checkpoint calls it to truncate the log down to
// what the checkpoint does not hold (nil when that is nothing).
func (l *Log) Replace(recs []Record) (err error) {
	tmp := l.path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: replace: %w", err)
	}
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()
	bw := bufio.NewWriter(f)
	var off int64
	for _, rec := range recs {
		frame, err := encodeFrame(rec)
		if err != nil {
			return err
		}
		if _, err := bw.Write(frame); err != nil {
			return fmt.Errorf("wal: replace: %w", err)
		}
		off += int64(len(frame))
	}
	if err = bw.Flush(); err != nil {
		return fmt.Errorf("wal: replace: %w", err)
	}
	if err = f.Sync(); err != nil {
		return fmt.Errorf("wal: replace: %w", err)
	}
	if err = os.Rename(tmp, l.path); err != nil {
		return fmt.Errorf("wal: replace: %w", err)
	}
	syncDir(l.path)
	l.f.Close()
	l.f, l.off, l.synced = f, off, off
	return nil
}

// syncDir makes a rename into path's directory durable, best effort.
func syncDir(path string) {
	if dir, err := os.Open(filepath.Dir(path)); err == nil {
		dir.Sync()
		dir.Close()
	}
}

// LastSeq returns the highest sequence number seen (replayed or appended).
func (l *Log) LastSeq() uint64 { return l.lastSeq }

// Close closes the underlying file without syncing.
func (l *Log) Close() error { return l.f.Close() }

// WriteSnapshotFile durably checkpoints db, covering mutations up to and
// including seq, at path: written to a temp file, fsync'd, then renamed
// over path so a crash leaves either the old checkpoint or the new one,
// never a torn file under the real name.
func WriteSnapshotFile(path string, seq uint64, db *engine.Database) (err error) {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()
	bw := bufio.NewWriter(f)
	if _, err = fmt.Fprintf(bw, "snapshot,%d\n", seq); err != nil {
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	if err = db.WriteSnapshot(bw); err != nil {
		return err
	}
	if err = bw.Flush(); err != nil {
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	if err = f.Sync(); err != nil {
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	if err = f.Close(); err != nil {
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	if err = os.Rename(tmp, path); err != nil {
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	// Make the rename itself durable.
	syncDir(path)
	return nil
}

// ReadSnapshotFile loads a checkpoint written by WriteSnapshotFile,
// returning the covered sequence and the database. A missing file is
// reported with an error matching os.ErrNotExist (the caller starts
// from the initial load instead); a torn or malformed file is a hard
// error, because WriteSnapshotFile's rename protocol should make one
// impossible.
func ReadSnapshotFile(path string) (uint64, *engine.Database, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, nil, fmt.Errorf("wal: snapshot: %w", err)
	}
	defer f.Close()
	br := bufio.NewReader(f)
	line, err := br.ReadString('\n')
	if err != nil {
		return 0, nil, fmt.Errorf("wal: snapshot header: %w", err)
	}
	var seq uint64
	if _, err := fmt.Sscanf(line, "snapshot,%d\n", &seq); err != nil {
		return 0, nil, fmt.Errorf("wal: snapshot header %q: %w", line, err)
	}
	db, err := engine.ReadSnapshot(br)
	if err != nil {
		return 0, nil, err
	}
	return seq, db, nil
}
