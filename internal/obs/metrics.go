// Package obs is the observability layer of the reproduction: a
// fixed-slot metrics registry with a Prometheus-text exporter, a
// per-domain-engine flight recorder (a fixed ring of compact event
// records), a Chrome-trace exporter for Perfetto, and small sweep-level
// helpers (progress line, phase breakdown, HTTP serving).
//
// The package is a dependency leaf — it imports nothing from the rest
// of the stack — so every layer (sim, mac, node, scenario, runner, the
// CLIs) can attach to it without cycles.
//
// Everything here is observational by construction. The hot layers keep
// cheap intrinsic counters (plain integer fields bumped on their own
// event loops) whether or not anything observes them; the registry
// samples those counters into its slots at deterministic barriers (end
// of a replication, a window barrier), so enabling metrics draws no RNG,
// reorders no events, and changes no output byte. The flight recorder is
// the only true hot-path instrumentation and costs one ring-index write
// per record behind a nil guard.
package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
)

// Kind is a metric's Prometheus type.
type Kind uint8

// Metric kinds.
const (
	KindCounter Kind = iota
	KindGauge
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	}
	return "untyped"
}

// Label is one name=value pair of a metric series.
type Label struct {
	Key, Value string
}

// metric is one registered slot. Updates are plain field writes through
// the handle types; no atomics — a slot is only ever written by the
// goroutine that owns its layer (one emulation, one domain engine), and
// cross-goroutine aggregation happens through Aggregator's mutex at
// replication barriers.
type metric struct {
	name   string // family name
	help   string
	kind   Kind
	labels []Label
	series string // rendered name{labels} key, unique per registry

	val float64
}

// Counter is a monotonically increasing slot.
type Counter struct{ m *metric }

// Add increments the counter (negative deltas are ignored).
func (c Counter) Add(v float64) {
	if c.m != nil && v > 0 {
		c.m.val += v
	}
}

// Inc adds one.
func (c Counter) Inc() { c.Add(1) }

// Set forces the counter to an absolute sampled value (the sampling
// idiom: intrinsic counters are read at barriers, so the slot mirrors
// the intrinsic total rather than accumulating deltas).
func (c Counter) Set(v float64) {
	if c.m != nil && v > c.m.val {
		c.m.val = v
	}
}

// Value returns the current value.
func (c Counter) Value() float64 {
	if c.m == nil {
		return 0
	}
	return c.m.val
}

// Gauge is a slot holding an instantaneous value.
type Gauge struct{ m *metric }

// Set stores the value.
func (g Gauge) Set(v float64) {
	if g.m != nil {
		g.m.val = v
	}
}

// Max keeps the running maximum — the deterministic fold for gauges
// merged across replications that may finish in any order.
func (g Gauge) Max(v float64) {
	if g.m != nil && v > g.m.val {
		g.m.val = v
	}
}

// Registry is a set of metric slots registered at bind time. It is not
// goroutine-safe: a registry belongs to one replication (or one
// aggregator behind its own mutex), and its slots are updated by plain
// writes.
type Registry struct {
	metrics []*metric
	byKey   map[string]*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: map[string]*metric{}}
}

// seriesKey renders the canonical name{k="v",...} identity of a series.
func seriesKey(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// register creates (or returns the existing) slot for a series.
func (r *Registry) register(name, help string, kind Kind, labels []Label) *metric {
	key := seriesKey(name, labels)
	if m := r.byKey[key]; m != nil {
		return m
	}
	m := &metric{name: name, help: help, kind: kind, labels: labels, series: key}
	r.metrics = append(r.metrics, m)
	r.byKey[key] = m
	return m
}

// Counter registers (or finds) a counter series.
func (r *Registry) Counter(name, help string, labels ...Label) Counter {
	return Counter{r.register(name, help, KindCounter, labels)}
}

// Gauge registers (or finds) a gauge series.
func (r *Registry) Gauge(name, help string, labels ...Label) Gauge {
	return Gauge{r.register(name, help, KindGauge, labels)}
}

// Merge folds another registry into this one with deterministic,
// order-independent semantics: counters sum, gauges keep the maximum.
// Series missing here are created. Replications complete in scheduler order, so only
// commutative folds keep the aggregate bit-identical at any worker
// count.
func (r *Registry) Merge(other *Registry) {
	for _, om := range other.metrics {
		m := r.register(om.name, om.help, om.kind, om.labels)
		switch om.kind {
		case KindCounter:
			m.val += om.val
		case KindGauge:
			if om.val > m.val {
				m.val = om.val
			}
		}
	}
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format, series sorted by name for a stable snapshot.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	sorted := append([]*metric(nil), r.metrics...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].series < sorted[j].series })
	seen := map[string]bool{}
	for _, m := range sorted {
		if !seen[m.name] {
			seen[m.name] = true
			if m.help != "" {
				fmt.Fprintf(bw, "# HELP %s %s\n", m.name, m.help)
			}
			fmt.Fprintf(bw, "# TYPE %s %s\n", m.name, m.kind)
		}
		fmt.Fprintf(bw, "%s %s\n", m.series, formatFloat(m.val))
	}
	return bw.Flush()
}

// formatFloat renders a value the Prometheus way ("+Inf" for positive
// infinity, %g otherwise).
func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return fmt.Sprintf("%g", v)
}

// Aggregator merges per-replication registries behind a mutex: workers
// call Add as their replications finish (any order — the folds are
// commutative), readers snapshot with WritePrometheus.
type Aggregator struct {
	mu  sync.Mutex
	reg *Registry
}

// NewAggregator returns an empty aggregator.
func NewAggregator() *Aggregator {
	return &Aggregator{reg: NewRegistry()}
}

// Add merges one finished replication's registry into the aggregate.
func (a *Aggregator) Add(r *Registry) {
	a.mu.Lock()
	a.reg.Merge(r)
	a.mu.Unlock()
}

// With runs fn on the aggregate registry under the mutex — for sweep-
// level gauges owned by the coordinator (reps/sec, utilization).
func (a *Aggregator) With(fn func(*Registry)) {
	a.mu.Lock()
	fn(a.reg)
	a.mu.Unlock()
}

// WritePrometheus snapshots the aggregate under the mutex.
func (a *Aggregator) WritePrometheus(w io.Writer) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.reg.WritePrometheus(w)
}

// Lint validates a Prometheus text snapshot: every non-comment line must
// parse as `series value`, series must be unique, metric names must be
// legal, and no value may be NaN. It is what the CI instrumented-sweep
// step runs against the -metrics output.
func Lint(data []byte) error {
	seen := map[string]bool{}
	for ln, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return fmt.Errorf("obs: line %d: no value: %q", ln+1, line)
		}
		series, val := line[:i], line[i+1:]
		name := series
		if j := strings.IndexByte(series, '{'); j >= 0 {
			if !strings.HasSuffix(series, "}") {
				return fmt.Errorf("obs: line %d: unterminated labels: %q", ln+1, series)
			}
			name = series[:j]
		}
		if !validMetricName(name) {
			return fmt.Errorf("obs: line %d: bad metric name %q", ln+1, name)
		}
		if seen[series] {
			return fmt.Errorf("obs: line %d: duplicate series %q", ln+1, series)
		}
		seen[series] = true
		if val == "+Inf" || val == "-Inf" {
			continue
		}
		var f float64
		if _, err := fmt.Sscanf(val, "%g", &f); err != nil {
			return fmt.Errorf("obs: line %d: bad value %q: %v", ln+1, val, err)
		}
		if math.IsNaN(f) {
			return fmt.Errorf("obs: line %d: NaN value for %q", ln+1, series)
		}
	}
	if len(seen) == 0 {
		return fmt.Errorf("obs: snapshot contains no series")
	}
	return nil
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}
