package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call across a layer boundary. Times are nanoseconds
// since the tracer's epoch; parent is the index of the enclosing span, -1
// for a root.
type span struct {
	name       uint16
	parent     int32
	start, end int64
}

// tracer holds every span of one run in memory; write dumps them when the
// run ends. A nil *tracer records nothing, so untraced code paths pay one
// nil check per call.
type tracer struct {
	run   string
	epoch time.Time
	names []string
	ids   map[string]uint16
	spans []span
}

func newTracer(run string) *tracer {
	return &tracer{run: run, epoch: time.Now(), ids: map[string]uint16{}}
}

// id interns a span name; look names up once, outside hot loops.
func (t *tracer) id(name string) uint16 {
	if id, ok := t.ids[name]; ok {
		return id
	}
	id := uint16(len(t.names))
	t.names = append(t.names, name)
	t.ids[name] = id
	return id
}

func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.epoch).Nanoseconds() }

// add records a finished span and returns its index.
func (t *tracer) add(name uint16, parent int32, start, end time.Time) int32 {
	t.spans = append(t.spans, span{name: name, parent: parent, start: t.ns(start), end: t.ns(end)})
	return int32(len(t.spans) - 1)
}

// open starts a span whose children are recorded before it ends; close
// stamps its end.
func (t *tracer) open(name string, parent int32) int32 {
	if t == nil {
		return -1
	}
	now := time.Now()
	return t.add(t.id(name), parent, now, now)
}

func (t *tracer) close(i int32) {
	if t != nil && i >= 0 {
		t.spans[i].end = t.ns(time.Now())
	}
}

// durations returns the durations of every span called name, in the
// given unit.
func (t *tracer) durations(name string, unit time.Duration) []float64 {
	id, ok := t.ids[name]
	if !ok {
		return nil
	}
	var out []float64
	for _, s := range t.spans {
		if s.name == id {
			out = append(out, float64(s.end-s.start)/float64(unit))
		}
	}
	return out
}

// total sums the durations of every span called name.
func (t *tracer) total(name string, unit time.Duration) float64 {
	sum := 0.0
	for _, d := range t.durations(name, unit) {
		sum += d
	}
	return sum
}

// write dumps the spans as gzipped CSV: id, parent, run, name, start and
// end in nanoseconds since the run's first span.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	fmt.Fprintln(bw, "id,parent,run,name,start_ns,end_ns")
	for i, s := range t.spans {
		fmt.Fprintf(bw, "%d,%d,%s,%s,%d,%d\n", i, s.parent, t.run, t.names[s.name], s.start, s.end)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// quantile returns the nearest-rank q-quantile of xs (NaN when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// median returns the middle of xs, averaging the two middle values of an
// even count (NaN when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	return (s[(n-1)/2] + s[n/2]) / 2
}
