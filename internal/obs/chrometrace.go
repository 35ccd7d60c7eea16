package obs

import (
	"bufio"
	"fmt"
	"io"
	"os"
)

// WriteChromeTraceFile writes WriteChromeTrace's rendering of the
// per-domain records to a new file at path.
func WriteChromeTraceFile(path string, domains [][]Record) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteChromeTrace(f, domains); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// WriteChromeTrace renders per-domain flight-recorder records as Chrome
// trace-event JSON (the JSON-array format), readable in Perfetto or
// chrome://tracing: one thread track per domain, every record an instant
// event at its virtual time (microsecond timestamps = virtual seconds ×
// 1e6). Window barriers render as their own named events, so a sharded
// run's conservative windows are visible across the domain tracks.
func WriteChromeTrace(w io.Writer, domains [][]Record) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("[\n"); err != nil {
		return err
	}
	first := true
	emit := func(format string, args ...interface{}) {
		if !first {
			bw.WriteString(",\n")
		}
		first = false
		fmt.Fprintf(bw, format, args...)
	}
	for d, recs := range domains {
		// Name the track so Perfetto shows "domain N" instead of a bare
		// thread id.
		emit(`{"name":"thread_name","ph":"M","pid":1,"tid":%d,"args":{"name":"domain %d"}}`, d, d)
		for _, r := range recs {
			ts := r.At * 1e6
			switch r.Kind {
			case RecTxStart:
				emit(`{"name":"tx link %d","ph":"i","s":"t","ts":%.3f,"pid":1,"tid":%d,"args":{"bits":%g}}`, r.A, ts, d, r.V)
			case RecDeliver:
				emit(`{"name":"rx link %d","ph":"i","s":"t","ts":%.3f,"pid":1,"tid":%d,"args":{"bits":%g}}`, r.A, ts, d, r.V)
			case RecDrop:
				emit(`{"name":"drop link %d","ph":"i","s":"t","ts":%.3f,"pid":1,"tid":%d,"args":{"reason":%d,"bits":%g}}`, r.A, ts, d, r.B, r.V)
			case RecTimerFire:
				emit(`{"name":"timer","ph":"i","s":"t","ts":%.3f,"pid":1,"tid":%d}`, ts, d)
			case RecReroute:
				emit(`{"name":"reroute flow %d","ph":"i","s":"p","ts":%.3f,"pid":1,"tid":%d,"args":{"routes":%d}}`, r.A, ts, d, r.B)
			case RecScenarioEvent:
				emit(`{"name":"scenario event","ph":"i","s":"p","ts":%.3f,"pid":1,"tid":%d,"args":{"kind":%d,"subject":%d}}`, ts, d, r.A, r.B)
			case RecWindowBarrier:
				emit(`{"name":"window barrier","ph":"i","s":"g","ts":%.3f,"pid":1,"tid":%d,"args":{"drained":%d}}`, ts, d, r.A)
			default:
				emit(`{"name":"%s","ph":"i","s":"t","ts":%.3f,"pid":1,"tid":%d}`, r.Kind, ts, d)
			}
		}
	}
	if _, err := bw.WriteString("\n]\n"); err != nil {
		return err
	}
	return bw.Flush()
}
