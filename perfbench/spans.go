package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"rfabric"
)

// span is one benchmark span. Spans of one operation share Op; Parent is
// the id of the enclosing span, 0 for an operation's root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the pass began
	End    int64  `json:"end_ns"`
	// Program is the program's own QueryTraced span tree, nested under the
	// execute span that ran it; it carries the modeled cycles per layer.
	Program *rfabric.Span `json:"program,omitempty"`
}

// spanLog keeps a traced pass's spans in memory until the run ends. A nil
// *spanLog records nothing, so untraced passes share the same code.
type spanLog struct {
	t0    time.Time
	spans []span
}

func newSpanLog(capacity int) *spanLog {
	return &spanLog{t0: time.Now(), spans: make([]span, 0, capacity)}
}

// begin opens a span and returns its id (0 on a nil log).
func (l *spanLog) begin(op, parent int, name string) int {
	if l == nil {
		return 0
	}
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: parent, Op: op, Name: name,
		Start: time.Since(l.t0).Nanoseconds()})
	return len(l.spans)
}

// end closes span id and returns its duration.
func (l *spanLog) end(id int) time.Duration {
	if l == nil || id == 0 {
		return 0
	}
	s := &l.spans[id-1]
	s.End = time.Since(l.t0).Nanoseconds()
	return time.Duration(s.End - s.Start)
}

// nest hangs the program's trace under span id.
func (l *spanLog) nest(id int, tr *rfabric.Trace) {
	if l == nil || id == 0 || tr == nil {
		return
	}
	l.spans[id-1].Program = tr.Root
}

// write saves the spans as JSON.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(l.spans); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
