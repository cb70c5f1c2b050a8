package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"
)

// span is one timed call into a layer, as the benchmark saw it from
// outside. Parent is the enclosing span's ID (0 for a root); Deltas
// holds the counter movement between Start and End for spans opened
// with counters.
type span struct {
	ID     int              `json:"id"`
	Parent int              `json:"parent"`
	Name   string           `json:"name"`
	Start  int64            `json:"start_ns"`
	End    int64            `json:"end_ns"`
	Deltas map[string]int64 `json:"deltas,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps every span of a traced run in memory; nothing is
// written until the run ends. A nil *tracer is the untraced run: every
// method is a no-op, so workloads call it unconditionally.
type tracer struct {
	t0     time.Time
	spans  []span
	open   []int               // indexes into spans, innermost last
	before []map[string]uint64 // counter readings at each open span's start (nil: none)
	// counters reads the counters whose deltas spans record; it is
	// re-pointed as the workload's registries come and go.
	counters func() map[string]uint64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under the innermost open one. withCounters
// records counter deltas across it; per-call spans on hot paths pass
// false, since reading every counter costs more than the call.
func (t *tracer) begin(name string, withCounters bool) {
	if t == nil {
		return
	}
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	var before map[string]uint64
	if withCounters {
		before = t.read()
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: int64(time.Since(t.t0)),
	})
	t.open = append(t.open, len(t.spans)-1)
	t.before = append(t.before, before)
}

// end closes the innermost open span.
func (t *tracer) end() {
	if t == nil || len(t.open) == 0 {
		return
	}
	n := len(t.open) - 1
	s := &t.spans[t.open[n]]
	s.End = int64(time.Since(t.t0))
	if before := t.before[n]; before != nil {
		after := t.read()
		s.Deltas = map[string]int64{}
		for k, v := range after {
			if d := int64(v - before[k]); d != 0 {
				s.Deltas[k] = d
			}
		}
	}
	t.open, t.before = t.open[:n], t.before[:n]
}

// read samples the workload counters plus the Go runtime's allocation
// and collector totals.
func (t *tracer) read() map[string]uint64 {
	out := map[string]uint64{}
	if t.counters != nil {
		for k, v := range t.counters() {
			out[k] = v
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	out["runtime.allocs"] = ms.Mallocs
	out["runtime.alloc_bytes"] = ms.TotalAlloc
	out["runtime.gc_cycles"] = uint64(ms.NumGC)
	out["runtime.gc_pause_ns"] = ms.PauseTotalNs
	return out
}

// total sums the durations of every span with the given name.
func (t *tracer) total(name string) (time.Duration, int) {
	var d time.Duration
	n := 0
	for _, s := range t.spans {
		if s.Name == name {
			d += s.dur()
			n++
		}
	}
	return d, n
}

// first returns the first span with the given name.
func (t *tracer) first(name string) (span, bool) {
	for _, s := range t.spans {
		if s.Name == name {
			return s, true
		}
	}
	return span{}, false
}

// delta returns a span's counter delta, 0 when absent.
func (s span) delta(name string) float64 { return float64(s.Deltas[name]) }

// cpuProfile profiles the calling process while fn runs and returns
// CPU seconds per layer bucket.
func cpuProfile(fn func() error) (map[string]float64, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, err
	}
	err := fn()
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	samples, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		return nil, err
	}
	return bucketCPU(samples), nil
}

// writeJSON writes v to dir/name, creating dir.
func writeJSON(dir, name string, v any) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), append(b, '\n'), 0o644)
}
