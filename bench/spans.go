package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"visa/internal/obs"
)

// spanLog records host-time spans around the benchmark's calls into each
// layer: name, start, end, the span that caused it, and the request it
// belongs to. Spans stay in memory and are written once, when the run
// ends. A nil *spanLog records nothing, so untraced runs pay one nil check
// per span site.
type spanLog struct {
	mu    sync.Mutex
	start time.Time
	spans []span
}

type span struct {
	name       string
	lane       int
	parent     int // id of the causing span; 0 for a root
	req        int64
	start, end time.Duration
}

func newSpanLog() *spanLog { return &spanLog{start: now()} }

// begin opens a span and returns its id (0 when tracing is off). lane
// groups spans that run on one worker, for the timeline view.
func (l *spanLog) begin(parent int, name string, req int64) int {
	return l.beginLane(parent, 0, name, req)
}

func (l *spanLog) beginLane(parent, lane int, name string, req int64) int {
	if l == nil {
		return 0
	}
	t := now().Sub(l.start)
	l.mu.Lock()
	defer l.mu.Unlock()
	if parent > 0 && lane == 0 {
		lane = l.spans[parent-1].lane
	}
	l.spans = append(l.spans, span{name: name, lane: lane, parent: parent, req: req, start: t, end: -1})
	return len(l.spans)
}

// end closes span id.
func (l *spanLog) end(id int) {
	if l == nil || id == 0 {
		return
	}
	t := now().Sub(l.start)
	l.mu.Lock()
	l.spans[id-1].end = t
	l.mu.Unlock()
}

func (l *spanLog) len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.spans)
}

// write exports the spans in Chrome trace-event format (loadable in
// Perfetto): one complete event per span, with its id, parent and
// request id as arguments and its layer (the name up to the first '.' or
// '/') as the category.
func (l *spanLog) write(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	tr := obs.NewTracer()
	pid := tr.Pid("bench host time")
	for i, s := range l.spans {
		if s.end < 0 {
			return fmt.Errorf("span %q never ended", s.name)
		}
		tr.ThreadName(pid, s.lane, fmt.Sprintf("lane %d", s.lane))
		cat := s.name
		if k := strings.IndexAny(cat, "./"); k > 0 {
			cat = cat[:k]
		}
		tr.Complete(pid, s.lane, cat, s.name, float64(s.start), float64(s.end-s.start),
			obs.A("id", i+1), obs.A("parent", s.parent), obs.A("req", s.req))
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := tr.WriteChrome(bw); err != nil {
		f.Close() //visa:allow(errlint): the write error is the one reported
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close() //visa:allow(errlint): the flush error is the one reported
		return err
	}
	return f.Close()
}
