package obs

import (
	"encoding/json"
	"fmt"
	"io"
)

// Field is one key/value pair of a metrics record. Field order is the
// record's order, and the JSONL exporter preserves it (a "kind" field
// conventionally leads).
type Field struct {
	Key string
	Val any
}

// F returns a Field (shorthand for building records at call sites).
func F(key string, val any) Field { return Field{Key: key, Val: val} }

// Record is one metrics row: an ordered field list.
type Record []Field

// Get returns the value of the named field, or nil.
func (r Record) Get(key string) any {
	for _, f := range r {
		if f.Key == key {
			return f.Val
		}
	}
	return nil
}

// MetricsWriter streams records to w as JSONL, one JSON object per line.
// Writes are buffered only by the underlying writer; errors are sticky and
// reported by Err/Close so emission sites stay unconditional. All methods
// are no-ops on a nil receiver.
type MetricsWriter struct {
	w   io.Writer
	err error
	n   int

	buffer bool
	recs   []Record
}

// NewMetricsWriter creates a writer emitting JSONL to w.
func NewMetricsWriter(w io.Writer) *MetricsWriter {
	return &MetricsWriter{w: w}
}

// NewRecordBuffer returns a MetricsWriter that retains records in memory
// instead of encoding them. Replay hands the retained records to a real
// writer in insertion order; because the encoder is deterministic, a
// buffered-then-replayed stream is byte-identical to direct writes. The
// parallel experiment engine gives each job its own buffer and replays
// them in plan order, which is what makes concurrent runs reproducible.
func NewRecordBuffer() *MetricsWriter { return &MetricsWriter{buffer: true} }

// Records returns the retained records of a buffered writer (nil for
// streaming writers and on nil).
func (m *MetricsWriter) Records() []Record {
	if m == nil {
		return nil
	}
	return m.recs
}

// Replay writes every retained record to dst in insertion order. No-op on
// nil (so disabled-instrumentation paths need no guards).
func (m *MetricsWriter) Replay(dst *MetricsWriter) {
	if m == nil {
		return
	}
	for _, rec := range m.recs {
		dst.Write(rec)
	}
}

// Reset drops a buffered writer's retained records (keeping the backing
// array for reuse) so long-lived consumers can drain the buffer in
// batches without unbounded growth — the service journal drains flushed
// counter records this way. No-op on nil and on streaming writers, whose
// output cannot be unwritten.
func (m *MetricsWriter) Reset() {
	if m == nil || !m.buffer {
		return
	}
	m.recs = m.recs[:0]
}

// Write emits one record. No-op on nil or after an error.
func (m *MetricsWriter) Write(rec Record) {
	if m == nil || m.err != nil {
		return
	}
	if m.buffer {
		m.recs = append(m.recs, rec)
		m.n++
		return
	}
	m.writeJSONL(rec)
	if m.err == nil {
		m.n++
	}
}

// Count returns the number of records written.
func (m *MetricsWriter) Count() int {
	if m == nil {
		return 0
	}
	return m.n
}

// Err returns the first write/encoding error, if any.
func (m *MetricsWriter) Err() error {
	if m == nil {
		return nil
	}
	return m.err
}

// Close returns the sticky error. The writer holds no buffered state of
// its own, so Close marks the end of the stream and nothing more.
func (m *MetricsWriter) Close() error {
	return m.Err()
}

func (m *MetricsWriter) writeJSONL(rec Record) {
	buf := make([]byte, 0, 64*len(rec))
	buf = append(buf, '{')
	for i, f := range rec {
		if i > 0 {
			buf = append(buf, ',')
		}
		kb, err := json.Marshal(f.Key)
		if err == nil {
			var vb []byte
			vb, err = json.Marshal(f.Val)
			if err == nil {
				buf = append(buf, kb...)
				buf = append(buf, ':')
				buf = append(buf, vb...)
			}
		}
		if err != nil {
			m.err = fmt.Errorf("obs: metrics field %q: %w", f.Key, err)
			return
		}
	}
	buf = append(buf, '}', '\n')
	if _, err := m.w.Write(buf); err != nil {
		m.err = err
	}
}
