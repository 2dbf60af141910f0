// Package obs is the run-observability substrate shared by every backend:
// a lightweight metrics registry (counters, gauges, histograms with label
// support and JSON export), a task-lifecycle event sink threaded through
// the planner's Driver and both execution backends, and the canonical JSON
// run report (report.go) that makes simulated and live executions
// comparable field-by-field.
//
// The package sits below internal/plan in the dependency order: plan's
// Backend interface embeds Sink, so the Driver reports every task
// transition and stage completion to whichever backend runs the job.
// Production shuffle systems treat this telemetry as the substrate for
// adaptation and resilience; here it is also the evidence layer for the
// paper's observability claims (per-worker timelines, cross-DC traffic
// matrices).
package obs

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"wanshuffle/internal/stats"
)

// Labels attach dimensions to a metric. Identical name+labels return the
// same metric instance.
type Labels map[string]string

// canonical renders labels in sorted k=v, order. It is the display and
// sort form only: it does not escape, so distinct label sets can render
// alike (a value may itself contain "," or "=").
func (l Labels) canonical() string {
	var b strings.Builder
	for _, k := range l.sortedKeys(nil) {
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(l[k])
		b.WriteByte(',')
	}
	return b.String()
}

// sortedKeys appends the label keys to dst in ascending order.
func (l Labels) sortedKeys(dst []string) []string {
	for k := range l {
		dst = append(dst, k)
	}
	slices.Sort(dst)
	return dst
}

// seriesKey is the registry's identity for name{labels}: the name and
// each sorted key and value, every one length-prefixed, so two distinct
// label sets can never share a key.
func seriesKey(name string, l Labels) string {
	var keyBuf [4]string // room for every label set in use: sorts off the heap
	keys := l.sortedKeys(keyBuf[:0])
	n := len(name) + binary.MaxVarintLen64
	for _, k := range keys {
		n += len(k) + len(l[k]) + 2*binary.MaxVarintLen64
	}
	var b strings.Builder
	b.Grow(n)
	var lenBuf [binary.MaxVarintLen64]byte
	field := func(s string) {
		b.Write(binary.AppendUvarint(lenBuf[:0], uint64(len(s))))
		b.WriteString(s)
	}
	field(name)
	for _, k := range keys {
		field(k)
		field(l[k])
	}
	return b.String()
}

// Counter is a monotonically increasing metric.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (negative n is ignored).
func (c *Counter) Add(n int64) {
	if c == nil || n < 0 {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can move in both directions.
type Gauge struct {
	mu sync.Mutex
	v  float64
}

// Set stores the gauge value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.v = v
	g.mu.Unlock()
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.v
}

// Histogram is a fixed-bucket distribution metric wrapping stats.Histogram
// behind a lock.
type Histogram struct {
	mu  sync.Mutex
	h   *stats.Histogram
	sum float64
}

// Observe records one sample.
func (h *Histogram) Observe(x float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.h.Add(x)
	h.sum += x
	h.mu.Unlock()
}

// snapshot returns the bucket counts, total count, and sum.
func (h *Histogram) snapshot() ([]stats.Bucket, int, float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.h.Buckets(), h.h.N(), h.sum
}

// metricKind discriminates registry entries.
type metricKind int

const (
	kindCounter metricKind = iota + 1
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("metricKind(%d)", int(k))
	}
}

type metricEntry struct {
	name   string
	labels Labels
	// key is the unambiguous registry key; sortLabels is the canonical
	// label string Snapshot orders by. Both are fixed at registration.
	key        string
	sortLabels string
	kind       metricKind
	c          *Counter
	g          *Gauge
	h          *Histogram
}

// Registry holds named metrics. The zero value is not usable; create one
// with NewRegistry. A nil *Registry hands out nil metrics whose methods
// no-op, so instrumented code needs no enabled checks (the trace.Recorder
// idiom).
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*metricEntry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: map[string]*metricEntry{}}
}

func (r *Registry) entry(name string, labels Labels, kind metricKind, edges []float64) *metricEntry {
	key := seriesKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.metrics[key]; ok {
		if e.kind != kind {
			panic(fmt.Sprintf("obs: metric %q re-registered as %v, was %v", name, kind, e.kind))
		}
		return e
	}
	cp := make(Labels, len(labels))
	for k, v := range labels {
		cp[k] = v
	}
	e := &metricEntry{name: name, labels: cp, key: key, sortLabels: cp.canonical(), kind: kind}
	switch kind {
	case kindCounter:
		e.c = &Counter{}
	case kindGauge:
		e.g = &Gauge{}
	case kindHistogram:
		e.h = &Histogram{h: stats.NewHistogram(edges)}
	}
	r.metrics[key] = e
	return e
}

// Counter returns (registering on first use) the counter name{labels}.
func (r *Registry) Counter(name string, labels Labels) *Counter {
	if r == nil {
		return nil
	}
	return r.entry(name, labels, kindCounter, nil).c
}

// Gauge returns (registering on first use) the gauge name{labels}.
func (r *Registry) Gauge(name string, labels Labels) *Gauge {
	if r == nil {
		return nil
	}
	return r.entry(name, labels, kindGauge, nil).g
}

// Histogram returns (registering on first use) the fixed-bucket histogram
// name{labels}. The edges only apply on first registration.
func (r *Registry) Histogram(name string, edges []float64, labels Labels) *Histogram {
	if r == nil {
		return nil
	}
	return r.entry(name, labels, kindHistogram, edges).h
}

// HistBucket is one exported histogram bucket: the count of samples with
// value <= Le. The overflow bucket's edge renders as "+Inf" (Prometheus
// style) because JSON has no infinity literal.
type HistBucket struct {
	Le    string `json:"le"`
	Count int    `json:"count"`
}

func formatEdge(le float64) string {
	if math.IsInf(le, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(le, 'g', -1, 64)
}

// MetricPoint is one metric's exported state.
type MetricPoint struct {
	Name    string            `json:"name"`
	Type    string            `json:"type"`
	Labels  map[string]string `json:"labels,omitempty"`
	Value   float64           `json:"value"`
	Count   int               `json:"count,omitempty"`
	Sum     float64           `json:"sum,omitempty"`
	Buckets []HistBucket      `json:"buckets,omitempty"`
}

// Snapshot exports every metric, sorted by name then labels (ties between
// label sets that render alike broken on the registry key), so output is
// deterministic.
func (r *Registry) Snapshot() []MetricPoint {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	entries := make([]*metricEntry, 0, len(r.metrics))
	for _, e := range r.metrics {
		entries = append(entries, e)
	}
	r.mu.Unlock()
	sort.Slice(entries, func(i, j int) bool {
		a, b := entries[i], entries[j]
		if a.name != b.name {
			return a.name < b.name
		}
		if a.sortLabels != b.sortLabels {
			return a.sortLabels < b.sortLabels
		}
		return a.key < b.key
	})
	out := make([]MetricPoint, 0, len(entries))
	for _, e := range entries {
		p := MetricPoint{Name: e.name, Type: e.kind.String()}
		if len(e.labels) > 0 {
			p.Labels = e.labels
		}
		switch e.kind {
		case kindCounter:
			p.Value = float64(e.c.Value())
		case kindGauge:
			p.Value = e.g.Value()
		case kindHistogram:
			buckets, n, sum := e.h.snapshot()
			p.Count = n
			p.Sum = sum
			for _, b := range buckets {
				p.Buckets = append(p.Buckets, HistBucket{Le: formatEdge(b.Le), Count: b.Count})
			}
		}
		out = append(out, p)
	}
	return out
}

// WriteJSON writes the registry snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}
