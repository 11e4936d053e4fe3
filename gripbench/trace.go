package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer. Spans stay in memory until the
// traced run ends and are then written out in Chrome trace-event form.
type span struct {
	name       string
	start, end int64 // ns since the tracer's epoch
	parent     int32 // enclosing span, -1 at top level
	item       int32 // the item the call served, -1 outside items
}

// tracer records nested spans made on one goroutine.
type tracer struct {
	epoch time.Time
	spans []span
	open  int32 // innermost open span, -1 when none is open
	item  int32 // item the next spans serve
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), open: -1, item: -1}
}

// begin opens a span inside the innermost open one.
func (t *tracer) begin(name string) int32 {
	t.spans = append(t.spans, span{name: name, start: int64(time.Since(t.epoch)), parent: t.open, item: t.item})
	t.open = int32(len(t.spans) - 1)
	return t.open
}

// end closes span id, the innermost open one, and returns its duration.
func (t *tracer) end(id int32) time.Duration {
	s := &t.spans[id]
	s.end = int64(time.Since(t.epoch))
	t.open = s.parent
	return time.Duration(s.end - s.start)
}

// writeChrome writes the spans as Chrome trace-event JSON, which
// Perfetto (ui.perfetto.dev) and chrome://tracing open directly. Each
// event's args carry the span's index, its parent's index and its item.
func (t *tracer) writeChrome(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"displayTimeUnit":"ms","traceEvents":[`)
	for i, s := range t.spans {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "\n{\"name\":%q,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%d,\"parent\":%d,\"item\":%d}}",
			s.name, float64(s.start)/1e3, float64(s.end-s.start)/1e3, i, s.parent, s.item)
	}
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// summarize prints each span name's calls, total time and self time —
// the span less the time its child spans cover — largest self first.
func (t *tracer) summarize(w io.Writer) {
	type agg struct {
		calls       int
		total, self int64
	}
	children := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			children[s.parent] += s.end - s.start
		}
	}
	by := map[string]*agg{}
	var names []string
	for i, s := range t.spans {
		a := by[s.name]
		if a == nil {
			a = &agg{}
			by[s.name] = a
			names = append(names, s.name)
		}
		d := s.end - s.start
		a.calls++
		a.total += d
		a.self += d - children[i]
	}
	sort.Slice(names, func(i, j int) bool { return by[names[i]].self > by[names[j]].self })
	fmt.Fprintf(w, "%-28s %8s %12s %12s\n", "span", "calls", "total_ms", "self_ms")
	for _, n := range names {
		a := by[n]
		fmt.Fprintf(w, "%-28s %8d %12.3f %12.3f\n", n, a.calls, float64(a.total)/1e6, float64(a.self)/1e6)
	}
}
