// Package fleet is the crash-safe sweep service: a long-running daemon
// that accepts churn-sweep specs over HTTP, executes their replications
// on a supervised worker pool, and checkpoints every completion to an
// append-only write-ahead log so that `kill -9` at any instant loses at
// most the replications that were in flight.
//
// The architecture is four small layers:
//
//   - WAL (this file): CRC-framed, fsync'd, torn-write-tolerant record
//     log. It knows nothing about sweeps — it persists opaque payloads
//     and recovers the longest intact prefix on open.
//   - Store (store.go): the sweep state machine rebuilt from WAL replay
//     — specs, per-replication completion sets and outputs, terminal
//     states. Every mutation is logged before it is acknowledged.
//   - Supervisor (supervisor.go): a worker pool over runner.RunFrom
//     adding per-replication timeouts, panic isolation, bounded retries
//     with exponential backoff + jitter, and graceful drain.
//   - Gateway (gateway.go): the HTTP/JSON surface — submit, status,
//     streamed results, cancel, metrics — with strict spec parsing and
//     bounded-queue backpressure.
//
// The load-bearing property is inherited from the rest of the repo: a
// replication's output is a pure function of (scenario, seed, index),
// so completed replications are never recomputed and a resumed sweep's
// final result is byte-identical to an uninterrupted run at any worker
// count.
package fleet

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// Frame layout: 4-byte little-endian payload length, 4-byte little-endian
// CRC-32C (Castagnoli) of the payload, then the payload bytes. A record
// is valid only if the full frame is present and the checksum matches;
// anything else is a torn tail and recovery stops at the last good
// record.
const (
	walHeaderSize = 8
	// walMaxRecord bounds a single payload so a corrupted length field
	// cannot drive a huge allocation during replay.
	walMaxRecord = 64 << 20
)

var walCRC = crc32.MakeTable(crc32.Castagnoli)

// WAL is an append-only record log. Appends are serialized, framed,
// written, and fsync'd before returning, so an acknowledged record
// survives an immediate power cut (up to the filesystem's guarantees).
type WAL struct {
	mu      sync.Mutex
	f       *os.File
	hdr     [walHeaderSize]byte
	records int
	size    int64
}

// OpenWAL opens (creating if absent) the log at path, replays every
// intact record into fn in append order, truncates any torn or corrupt
// tail, and returns the WAL positioned for appends. Replay never
// fails on bad data — a partial frame, a short payload, or a checksum
// mismatch simply ends the log there; only I/O errors and a non-nil
// error from fn are returned.
func OpenWAL(path string, fn func(payload []byte) error) (*WAL, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("fleet: wal open: %w", err)
	}
	w := &WAL{f: f}
	good, records, err := replayWAL(f, fn)
	if err != nil {
		f.Close()
		return nil, err
	}
	w.records = records
	w.size = good
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("fleet: wal stat: %w", err)
	}
	if fi.Size() > good {
		// Drop the torn tail so the next append starts on a frame
		// boundary; the data past `good` was never acknowledged.
		if err := f.Truncate(good); err != nil {
			f.Close()
			return nil, fmt.Errorf("fleet: wal truncate torn tail: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, fmt.Errorf("fleet: wal sync after truncate: %w", err)
		}
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("fleet: wal seek: %w", err)
	}
	// Make the log's existence itself durable: fsync the parent
	// directory once at open, so a daemon that checkpoints into a fresh
	// file cannot lose the whole file to a crash.
	syncDir(filepath.Dir(path))
	return w, nil
}

// replayWAL scans every intact frame, calling fn per payload, and
// returns the offset just past the last good record plus the record
// count. Corruption is not an error — it ends the scan.
func replayWAL(r io.Reader, fn func([]byte) error) (good int64, records int, err error) {
	br := bufio.NewReader(r)
	var hdr [walHeaderSize]byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return good, records, nil // clean EOF or torn header
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		sum := binary.LittleEndian.Uint32(hdr[4:8])
		if n == 0 || n > walMaxRecord {
			return good, records, nil // nonsense length: corrupt tail
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(br, payload); err != nil {
			return good, records, nil // torn payload
		}
		if crc32.Checksum(payload, walCRC) != sum {
			return good, records, nil // bit rot or torn rewrite
		}
		if fn != nil {
			if err := fn(payload); err != nil {
				return good, records, err
			}
		}
		good += int64(walHeaderSize + n)
		records++
	}
}

// Append frames, writes, and fsyncs one payload. The record is durable
// when Append returns nil.
func (w *WAL) Append(payload []byte) error {
	if len(payload) == 0 || len(payload) > walMaxRecord {
		return fmt.Errorf("fleet: wal append: payload size %d out of range", len(payload))
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return fmt.Errorf("fleet: wal append: closed")
	}
	binary.LittleEndian.PutUint32(w.hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(w.hdr[4:8], crc32.Checksum(payload, walCRC))
	if _, err := w.f.Write(w.hdr[:]); err != nil {
		return fmt.Errorf("fleet: wal write header: %w", err)
	}
	if _, err := w.f.Write(payload); err != nil {
		return fmt.Errorf("fleet: wal write payload: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("fleet: wal fsync: %w", err)
	}
	w.records++
	w.size += int64(walHeaderSize + len(payload))
	return nil
}

// Records returns the number of durable records (replayed + appended).
func (w *WAL) Records() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.records
}

// Size returns the durable log size in bytes.
func (w *WAL) Size() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.size
}

// Close syncs and closes the log. Further appends fail.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	err := w.f.Sync()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	return err
}

// syncDir best-effort fsyncs a directory (ignored on filesystems that
// refuse it — the file contents are still fsync'd per record).
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}
