// Package metrics is the sampled time-series layer underneath the
// repo's root-cause analyses: continuous protocol state over virtual
// time (cwnd, ssthresh, srtt/rttvar, bytes-in-flight, pacing rate,
// flow-control windows, per-link queue depth and drops) collected with
// bounded memory and zero cost when disabled.
//
// The paper's analyses all hinge on *evolution*, not point events:
// hybrid slow start exiting early shows up as a cwnd curve flattening
// below the BDP, the MACW cap as a plateau, PRR as a drain during
// recovery. The qlog-style event log (internal/trace) records discrete
// per-packet events; this package records the continuous state between
// them.
//
// Discipline mirrors internal/trace:
//
//   - A nil *Collector registers nil *Series, and Record on a nil
//     *Series is a single branch — transports run unmetered at full
//     speed (alloc-guarded by BenchmarkRecordDisabled and the netem
//     link-transfer benchmarks).
//   - An enabled series is a fixed-capacity ring: samples closer
//     together than the cadence coalesce in place (last write wins, so
//     the latest value of a state variable is always accurate), and a
//     full ring deterministically downsamples — every second point is
//     kept and the cadence doubles — so arbitrarily long runs stay
//     O(capacity) per series with gracefully degrading resolution.
//
// Determinism: collection is passive. It draws no randomness and never
// feeds back into the simulation, so enabling metrics cannot change a
// run's packet schedule (the golden matrix tests assert byte-identical
// experiment output with metrics on).
package metrics

import (
	"fmt"
	"strings"
	"time"
)

// Kind classifies a series' unit, for rendering and round-tripping.
type Kind uint8

// The series kinds.
const (
	KindBytes    Kind = iota // byte quantities (cwnd, queue depth, windows)
	KindDuration             // nanosecond durations (srtt, rttvar)
	KindRate                 // bytes/second (pacing rate)
	KindCount                // cumulative counts (link drops)

	numKinds // sentinel; keep last
)

var kindNames = [numKinds]string{
	KindBytes:    "bytes",
	KindDuration: "duration_ns",
	KindRate:     "bytes_per_sec",
	KindCount:    "count",
}

// String returns the kind's serialized name.
func (k Kind) String() string {
	if k < numKinds {
		return kindNames[k]
	}
	return fmt.Sprintf("unknown_%d", uint8(k))
}

// KindByName maps a serialized kind name back to its Kind.
func KindByName(name string) (Kind, bool) {
	for k, n := range kindNames {
		if n == name {
			return Kind(k), true
		}
	}
	return 0, false
}

// Point is one timestamped sample. T is virtual (simulation) time.
type Point struct {
	T time.Duration `json:"t"`
	V float64       `json:"v"`
}

// Defaults for New(0, 0): a 1 ms initial cadence and 512 points per
// series bounds each series at ~8 KB while covering a 512 ms run at
// full resolution; each downsample doubles the covered span.
const (
	DefaultCadence  = time.Millisecond
	DefaultCapacity = 512
)

// Series is one named time-series. The zero value is not usable;
// obtain series from a Collector. All methods are nil-safe so
// instrumented hot paths need no enabled-check of their own.
type Series struct {
	name        string
	kind        Kind
	cadence     time.Duration // effective; doubles on each downsample
	pts         []Point       // len <= cap, cap fixed at registration
	downsamples int
}

// Name returns the series name.
func (s *Series) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Kind returns the series kind.
func (s *Series) Kind() Kind {
	if s == nil {
		return 0
	}
	return s.kind
}

// Cadence returns the current effective coalescing cadence (the initial
// cadence doubled once per downsample).
func (s *Series) Cadence() time.Duration {
	if s == nil {
		return 0
	}
	return s.cadence
}

// Downsamples returns how many times the ring halved itself.
func (s *Series) Downsamples() int {
	if s == nil {
		return 0
	}
	return s.downsamples
}

// Len returns the number of retained points.
func (s *Series) Len() int {
	if s == nil {
		return 0
	}
	return len(s.pts)
}

// Points returns the retained samples in time order. The slice aliases
// the ring; callers must not mutate it.
func (s *Series) Points() []Point {
	if s == nil {
		return nil
	}
	return s.pts
}

// Last returns the most recent sample, if any.
func (s *Series) Last() (Point, bool) {
	if s == nil || len(s.pts) == 0 {
		return Point{}, false
	}
	return s.pts[len(s.pts)-1], true
}

// Record appends a sample. No-op on nil (the disabled path — a single
// predictable branch, no allocation).
//
// Samples arriving within the cadence of the previous point coalesce
// into it (last write wins), so high-frequency emitters — per-packet
// bytes-in-flight updates — cost an in-place store, not a ring slot.
// When the ring is full it downsamples in place: every second point
// survives and the cadence doubles. Timestamps are clamped monotonic.
func (s *Series) Record(t time.Duration, v float64) {
	if s == nil {
		return
	}
	if n := len(s.pts); n > 0 {
		last := &s.pts[n-1]
		if t < last.T {
			t = last.T
		}
		if t-last.T < s.cadence {
			last.V = v
			return
		}
	}
	if len(s.pts) == cap(s.pts) {
		s.downsample()
	}
	s.pts = append(s.pts, Point{T: t, V: v})
}

// downsample halves the ring in place, keeping even-indexed points (the
// first sample always survives) and doubling the cadence. Deterministic:
// depends only on the points present, never on timing or randomness.
func (s *Series) downsample() {
	n := len(s.pts)
	kept := (n + 1) / 2
	for i := 0; i < kept; i++ {
		s.pts[i] = s.pts[2*i]
	}
	s.pts = s.pts[:kept]
	s.cadence *= 2
	s.downsamples++
}

// Collector is a registry of series for one endpoint's run. A nil
// *Collector is valid and hands out nil series, so instrumentation can
// be wired unconditionally.
type Collector struct {
	cadence  time.Duration
	capacity int
	series   []*Series // registration order
	byName   map[string]*Series
}

// New creates a collector whose series start at the given coalescing
// cadence with the given ring capacity. Zero selects DefaultCadence /
// DefaultCapacity. A negative cadence or a capacity below 2 is a
// programming error and panics (CLI layers validate first and exit 2).
func New(cadence time.Duration, capacity int) *Collector {
	if cadence == 0 {
		cadence = DefaultCadence
	}
	if capacity == 0 {
		capacity = DefaultCapacity
	}
	if cadence < 0 {
		panic(fmt.Sprintf("metrics: negative cadence %v", cadence))
	}
	if capacity < 2 {
		panic(fmt.Sprintf("metrics: capacity %d below minimum 2", capacity))
	}
	return &Collector{
		cadence:  cadence,
		capacity: capacity,
		byName:   make(map[string]*Series),
	}
}

// Reset empties every registered series for reuse, restoring its initial
// cadence and clearing its downsample count. Registrations are kept —
// Series() returns the same objects in the same order afterwards — so a
// reused collector exports series in the order the first run registered
// them. No-op on nil.
func (c *Collector) Reset() {
	if c == nil {
		return
	}
	for _, s := range c.series {
		s.pts = s.pts[:0]
		s.cadence = c.cadence
		s.downsamples = 0
	}
}

// Cadence returns the collector's initial per-series cadence.
func (c *Collector) Cadence() time.Duration {
	if c == nil {
		return 0
	}
	return c.cadence
}

// Series returns the registered series with the given name, creating it
// on first use. Registering the same name again returns the existing
// series (the kind must match), so two connections on one endpoint
// share a series and record into one timeline. Returns nil on a nil
// collector — the disabled path.
func (c *Collector) Series(name string, kind Kind) *Series {
	if c == nil {
		return nil
	}
	if strings.ContainsAny(name, ",\n\"") || name == "" {
		panic(fmt.Sprintf("metrics: invalid series name %q", name))
	}
	if s, ok := c.byName[name]; ok {
		if s.kind != kind {
			panic(fmt.Sprintf("metrics: series %q re-registered as %v, was %v", name, kind, s.kind))
		}
		return s
	}
	s := &Series{
		name:    name,
		kind:    kind,
		cadence: c.cadence,
		pts:     make([]Point, 0, c.capacity),
	}
	c.series = append(c.series, s)
	c.byName[name] = s
	return s
}

// Lookup returns the named series, or nil.
func (c *Collector) Lookup(name string) *Series {
	if c == nil {
		return nil
	}
	return c.byName[name]
}

// All returns the registered series in registration order (stable, so
// serialized output is deterministic). The slice aliases the registry.
func (c *Collector) All() []*Series {
	if c == nil {
		return nil
	}
	return c.series
}

// Len returns the number of registered series.
func (c *Collector) Len() int {
	if c == nil {
		return 0
	}
	return len(c.series)
}

// SeriesData is the portable, serializable form of one series — what
// rides in report bundles (CSV) and summary JSON.
type SeriesData struct {
	Name        string        `json:"name"`
	Kind        Kind          `json:"-"`
	KindName    string        `json:"kind"`
	CadenceNS   time.Duration `json:"cadence_ns"`
	Downsamples int           `json:"downsamples,omitempty"`
	Points      []Point       `json:"points"`
}

// Export snapshots every registered series, in registration order. The
// point slices are copied, so the export stays stable if recording
// continues.
func (c *Collector) Export() []SeriesData {
	if c == nil {
		return nil
	}
	out := make([]SeriesData, 0, len(c.series))
	for _, s := range c.series {
		out = append(out, SeriesData{
			Name:        s.name,
			Kind:        s.kind,
			KindName:    s.kind.String(),
			CadenceNS:   s.cadence,
			Downsamples: s.downsamples,
			Points:      append([]Point(nil), s.pts...),
		})
	}
	return out
}

// Live returns views of every registered series, in registration order:
// name, kind and the points, which alias the live rings — no copy is
// taken, so a view is valid only until recording resumes or the collector
// is Reset. Cadence and downsample metadata are left zero.
func (c *Collector) Live() []SeriesData {
	live := make([]SeriesData, len(c.All()))
	for i, s := range c.All() {
		live[i] = SeriesData{Name: s.name, Kind: s.kind, Points: s.pts}
	}
	return live
}
