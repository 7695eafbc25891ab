package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// span is one call into a layer, made by the benchmark's own code.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // -1 at the top
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer records spans around the benchmark's calls into the program
// while on is set; off, every method is a pass-through.
type tracer struct {
	on    bool
	epoch time.Time
	spans []span
	open  []int
	// runs summarizes, per traced repetition, the per-step
	// topology.Run calls, which are too many to keep one by one.
	runs []stepSummary
}

// stepSummary describes the step durations of one repetition, in ns.
type stepSummary struct {
	Rep    int     `json:"rep"`
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	MeanNs float64 `json:"mean_ns"`
	P50Ns  float64 `json:"p50_ns"`
	P99Ns  float64 `json:"p99_ns"`
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// span runs fn inside a span named after the layer and call.
func (t *tracer) span(name string, fn func()) {
	if !t.on {
		fn()
		return
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, StartNs: int64(time.Since(t.epoch))})
	t.open = append(t.open, id)
	fn()
	t.open = t.open[:len(t.open)-1]
	t.spans[id].EndNs = int64(time.Since(t.epoch))
}

// totals sums span durations by name over spans[from:].
func (t *tracer) totals(from int) map[string]float64 {
	out := map[string]float64{}
	for _, s := range t.spans[from:] {
		out[s.Name] += float64(s.EndNs - s.StartNs)
	}
	return out
}

// selfTimes returns, per span name, the summed duration minus the part
// covered by child spans.
func selfTimes(spans []span) map[string]float64 {
	self := map[string]float64{}
	for _, s := range spans {
		d := float64(s.EndNs - s.StartNs)
		self[s.Name] += d
		if s.Parent >= 0 {
			self[spans[s.Parent].Name] -= d
		}
	}
	return self
}

// dump writes every span, then every step summary, as one JSON line
// each.
func (t *tracer) dump(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	for _, r := range t.runs {
		if err := enc.Encode(r); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// summary renders per-name span counts, totals and self times.
func (t *tracer) summary(w io.Writer) {
	count := map[string]int{}
	total := map[string]float64{}
	for _, s := range t.spans {
		count[s.Name]++
		total[s.Name] += float64(s.EndNs - s.StartNs)
	}
	self := selfTimes(t.spans)
	names := make([]string, 0, len(count))
	for n := range count {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "span %-28s count=%-7d total_ms=%.3f self_ms=%.3f\n", n, count[n], total[n]/1e6, self[n]/1e6)
	}
}
