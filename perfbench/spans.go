package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one traced call into a layer. Streaming layers are pulled in
// many small calls; they are recorded as one span per operation whose
// Busy is the summed time inside the layer and Calls the number of calls.
// For every other span Busy equals End - Start and Calls is 1.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Op     int    `json:"op"`     // the workload operation the span belongs to
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
	Busy   int64  `json:"busy_ns"`
	Calls  int    `json:"calls"`
}

// tracer keeps spans in memory and writes them out when the run ends.
// It is used from one goroutine at a time.
type tracer struct {
	origin time.Time
	spans  []span
	op     int
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// beginOp starts a new workload operation; later spans carry its number.
func (t *tracer) beginOp() { t.op++ }

// record adds a finished span and returns its id.
func (t *tracer) record(name string, parent int, start, end time.Time, busy time.Duration, calls int) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID:     id,
		Parent: parent,
		Op:     t.op,
		Name:   name,
		Start:  start.Sub(t.origin).Nanoseconds(),
		End:    end.Sub(t.origin).Nanoseconds(),
		Busy:   busy.Nanoseconds(),
		Calls:  calls,
	})
	return id
}

// do runs f as one span and returns its duration.
func (t *tracer) do(name string, parent int, f func() error) (time.Duration, error) {
	start := time.Now()
	err := f()
	end := time.Now()
	t.record(name, parent, start, end, end.Sub(start), 1)
	return end.Sub(start), err
}

// selfTime returns, per span name, the summed busy time of the spans of
// operation op minus the busy time of their direct children: the time
// spent in the layer itself.
func (t *tracer) selfTime(op int) map[string]time.Duration {
	child := make(map[int]int64)
	for _, s := range t.spans {
		if s.Op == op && s.Parent != 0 {
			child[s.Parent] += s.Busy
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range t.spans {
		if s.Op == op {
			out[s.Name] += time.Duration(s.Busy - child[s.ID])
		}
	}
	return out
}

// write stores the spans as JSON lines in dir/name.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("span directory: %w", err)
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("span file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("writing spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("closing span file: %w", err)
	}
	return path, nil
}

// samples collects per-operation values of the per-layer metrics; each
// metric is reported as the median over the operations.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

// addSelf adds the self time of every span of one operation, in seconds,
// under the span's name with an "_s" suffix.
func (s samples) addSelf(t *tracer, op int) {
	self := t.selfTime(op)
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		s.add(n+"_s", self[n].Seconds())
	}
}

// medians reduces the samples to one value per metric, filling every
// declared per-layer metric the workload did not exercise with 0.
func (s samples) medians() map[string]float64 {
	out := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		out[d.name] = 0
	}
	for name, vs := range s {
		if declared(perLayer, name) {
			out[name] = median(vs)
		}
	}
	return out
}
