//lint:file-allow wallclock the benchmark times real processes and real sockets; wall time is what it measures

package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// percentile returns the p-th percentile (0 ≤ p ≤ 100) of sorted by
// linear interpolation between closest ranks; 0 for an empty sample.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func median(xs []float64) float64 { return percentile(sortedCopy(xs), 50) }

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// span is one timed call the benchmark made into a layer. Spans of one
// operation share Op; Parent is the ID of the span that caused this one
// (0 for a root). Count is how many layer calls the span covers, so a
// loop span's per-call cost is its duration over Count.
type span struct {
	ID     int    `json:"id"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Count  int    `json:"count,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. One goroutine only:
// the traced pass is a single closed-loop client.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID; end closes it.
func (t *tracer) begin(op, parent int, name string) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Op: op, Parent: parent, Name: name, Start: int64(time.Since(t.t0))})
	return id
}

func (t *tracer) end(id int) { t.endN(id, 0) }

func (t *tracer) endN(id, count int) {
	s := &t.spans[id-1]
	s.End = int64(time.Since(t.t0))
	s.Count = count
}

// selfTimes returns each span's duration minus the part of its interval
// its direct children cover (overlapping children are not counted
// twice), indexed like spans.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[i] = s.dur() - covered
	}
	return out
}

// selfByName groups span self times (ns) by span name.
func selfByName(spans []span) map[string][]float64 {
	self := selfTimes(spans)
	out := make(map[string][]float64)
	for i, s := range spans {
		out[s.Name] = append(out[s.Name], float64(self[i]))
	}
	return out
}

// traceFile is the on-disk form of one traced run.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Spans    []span `json:"spans"`
}

func writeTrace(path, workload string, seed int64, spans []span) error {
	data, err := json.Marshal(traceFile{Workload: workload, Seed: seed, Spans: spans})
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
