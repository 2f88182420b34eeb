package results

import "io"

// CSVEncoder writes rows as CSV: a header line derived from the first
// row's field names, then one line per row. It reproduces the byte format
// of the repository's original hand-rolled writers (see appendValue), so
// regenerated figure files stay identical. Values are written verbatim —
// the encoder targets the numeric telemetry this repository emits and
// does not quote separators. Each line is appended into one buffer the
// encoder keeps from row to row and written with one Write.
type CSVEncoder struct {
	w      io.Writer
	header bool
	buf    []byte
}

// NewCSVEncoder returns an encoder writing to w.
func NewCSVEncoder(w io.Writer) *CSVEncoder {
	return &CSVEncoder{w: w}
}

// Header writes the header line immediately. Normally the header is
// derived from the first encoded row; writers that must produce a header
// even for zero rows call this first. Calling it after output has begun is
// a no-op.
func (e *CSVEncoder) Header(names ...string) error {
	if e.header {
		return nil
	}
	e.header = true
	b := e.buf[:0]
	for i, n := range names {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, n...)
	}
	e.buf = append(b, '\n')
	_, err := e.w.Write(e.buf)
	return err
}

// Encode writes one row (preceded by the header if this is the first).
// Every row should carry the same field names in the same order; the
// encoder trusts the emitter and does not re-check.
func (e *CSVEncoder) Encode(row Row) error {
	b := e.buf[:0]
	if !e.header {
		for i, f := range row {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, f.Name...)
		}
		b = append(b, '\n')
		e.header = true
	}
	for i, f := range row {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendValue(b, f.Value)
	}
	e.buf = append(b, '\n')
	_, err := e.w.Write(e.buf)
	return err
}

// HeaderDone reports whether the header line has been written — the
// encoder state a shard sink carries across append reopens.
func (e *CSVEncoder) HeaderDone() bool { return e.header }

// SetHeaderDone overrides the header state (used by shard sinks when
// reopening an existing file in append mode).
func (e *CSVEncoder) SetHeaderDone(done bool) { e.header = done }
