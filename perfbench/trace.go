package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// tracer records spans around the benchmark's calls into each layer:
// name, start, end, parent span and the scenario the work belongs to.
// Spans stay in memory and are written once, when the run ends. A nil
// *tracer records nothing, so untraced code paths pay one nil check.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

type span struct {
	name       string
	start, end int64 // ns since the tracer epoch
	parent     int32 // index of the parent span, -1 for a root
	scenario   int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)} }

// begin opens a span and returns its handle for end.
func (t *tracer) begin(name string, parent int32, scenario int64) int32 {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, start: now, end: -1, parent: parent, scenario: scenario})
	id := int32(len(t.spans) - 1)
	t.mu.Unlock()
	return id
}

// end closes a span opened by begin.
func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// layerStat aggregates the spans of one name.
type layerStat struct {
	count int64
	total int64 // ns, whole span
	self  int64 // ns, span minus the time its children cover
}

func (s layerStat) meanSelfNs() float64 {
	if s.count == 0 {
		return 0
	}
	return float64(s.self) / float64(s.count)
}

// aggregate folds the spans recorded since index from into per-name
// statistics. Children of one span run on the span's own goroutine, so
// they do not overlap and self time is the span minus their sum.
func (t *tracer) aggregate(from int) map[string]layerStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans))
	for i := from; i < len(t.spans); i++ {
		s := t.spans[i]
		if s.end >= 0 && int(s.parent) >= from {
			child[s.parent] += s.end - s.start
		}
	}
	out := make(map[string]layerStat)
	for i := from; i < len(t.spans); i++ {
		s := t.spans[i]
		if s.end < 0 {
			continue
		}
		st := out[s.name]
		st.count++
		st.total += s.end - s.start
		st.self += s.end - s.start - child[i]
		out[s.name] = st
	}
	return out
}

// mark returns the current span count, the from argument of aggregate.
func (t *tracer) mark() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// write stores every span as one tab-separated line:
// index, name, start ns, end ns, parent index, scenario.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tname\tstart_ns\tend_ns\tparent\tscenario")
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%d\t%d\n", i, s.name, s.start, s.end, s.parent, s.scenario)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
