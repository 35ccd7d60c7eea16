package fleet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzParseSpec feeds arbitrary bytes to the POST /sweeps parser. It never
// panics, every rejection is a *SpecError, and an accepted spec derives
// 1 ≤ Total ≤ maxSweepReps replications, on which newSweep does not panic
// either: the store appends a spec to the WAL before it builds the sweep,
// so a spec that parses but cannot be built would stop every restart.
func FuzzParseSpec(f *testing.F) {
	paths, err := filepath.Glob("../../examples/sweeps/*.json")
	if err != nil || len(paths) == 0 {
		f.Fatalf("no example sweeps: %v", err)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := ParseSpec(data)
		if err != nil {
			var se *SpecError
			if !errors.As(err, &se) {
				t.Fatalf("rejection %v (%T) is not a *SpecError", err, err)
			}
			return
		}
		if spec.Total < 1 || spec.Total > maxSweepReps {
			t.Fatalf("accepted spec derives %d replications, want 1..%d", spec.Total, maxSweepReps)
		}
		newSweep("sweep-000001", spec)
	})
}

// FuzzOpenStore feeds arbitrary logs to the store's replay, one layer
// above replayWAL. Every newline-separated piece of the input but the
// last becomes a WAL record with a valid checksum; the last is appended
// raw, a possibly torn or corrupt tail. Whatever the bytes, OpenStore
// does not panic; replay stops inside the file; the log cut where replay
// stopped replays the same records, and reopens into the same sweeps;
// and every stored sweep answers Status, and Results once it is done. The
// committed corpus holds a submitted quickstart sweep with two rep
// records and a done record, a torn frame, a checksum flip, a sweep
// whose runs overflow, and a done sweep whose results merge.
func FuzzOpenStore(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		pieces := bytes.Split(data, []byte("\n"))
		var log []byte
		for _, p := range pieces[:len(pieces)-1] {
			log = binary.LittleEndian.AppendUint32(log, uint32(len(p)))
			log = binary.LittleEndian.AppendUint32(log, crc32.Checksum(p, walCRC))
			log = append(log, p...)
		}
		log = append(log, pieces[len(pieces)-1]...)

		good, records, _ := replayWAL(bytes.NewReader(log), nil)
		if good > int64(len(log)) {
			t.Fatalf("replay stopped at %d, past the end of a %d-byte log", good, len(log))
		}
		if g, r, _ := replayWAL(bytes.NewReader(log[:good]), nil); g != good || r != records {
			t.Fatalf("the log cut at %d replays %d records to %d, want %d to %d", good, r, g, records, good)
		}

		path := filepath.Join(t.TempDir(), "fleet.wal")
		if err := os.WriteFile(path, log, 0o644); err != nil {
			t.Fatal(err)
		}
		// The first open cuts the torn tail off the file, so the second
		// reopens the log as a copy cut at good.
		open := func() ([]Status, error) {
			st, err := OpenStore(path, 0)
			if err != nil {
				return nil, err
			}
			defer st.Close()
			if n, size := st.WALStats(); n != records || size != good {
				t.Fatalf("the store replayed %d records to %d, want %d to %d", n, size, records, good)
			}
			var statuses []Status
			for _, sw := range st.all() {
				statuses = append(statuses, sw.Status())
				if sw.State() == StateDone {
					sw.Results()
				}
			}
			return statuses, nil
		}
		full, errFull := open()
		cut, errCut := open()
		if (errFull == nil) != (errCut == nil) || !reflect.DeepEqual(full, cut) {
			t.Fatalf("full log: %v %+v; cut log: %v %+v", errFull, full, errCut, cut)
		}
	})
}
