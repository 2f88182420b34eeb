package results

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Binary row shards: a compact, length-prefixed, byte-deterministic
// encoding of the same rows the CSV shards carry, so serving and replay
// are bandwidth-bound instead of parse-bound. The format:
//
//	header   magic "RRBS" + one version byte (currently 1)
//	row      uvarint body length, then the body:
//	  body   uvarint field count, then per field:
//	    uvarint name length, name bytes
//	    1 tag byte, value:
//	      1 int     zigzag varint (int and int64 collapse here, as both
//	                render identically in CSV)
//	      2 float64 8 bytes, IEEE 754 bits little-endian
//	      3 string  uvarint length + bytes (fmt.Stringer and any other
//	                value type are rendered by CSV's appendValue
//	                first, so the two formats agree on every byte)
//	      4 bool    1 byte, 0 or 1
//
// The row-level length prefix lets a reader skip rows without decoding
// fields and makes truncation detectable: a body shorter than its prefix
// is an error, never a silently short row. Encoding is a pure function of
// the rows — no timestamps, no padding, no map iteration — so a shard
// written twice from the same rows is byte-identical, and a binary shard
// decoded and re-encoded as CSV reproduces the sibling CSV shard byte for
// byte.

const (
	// binMagic opens every binary row shard.
	binMagic = "RRBS"
	// binVersion is the current format version, the byte after the magic.
	binVersion = 1

	binTagInt    = 1
	binTagFloat  = 2
	binTagString = 3
	binTagBool   = 4

	// maxBinRowLen bounds a row body: a longer length prefix is a corrupt
	// shard, whatever bytes follow it.
	maxBinRowLen = 1 << 26
)

// BinEncoder writes rows in the binary shard format. Like CSVEncoder,
// the file header (magic + version) is written before the first row;
// HeaderDone/SetHeaderDone carry that state across a shard sink's append
// reopens.
type BinEncoder struct {
	w      io.Writer
	header bool
	buf    []byte
}

// NewBinEncoder returns an encoder writing to w.
func NewBinEncoder(w io.Writer) *BinEncoder {
	return &BinEncoder{w: w}
}

// HeaderDone reports whether the magic+version header has been written.
func (e *BinEncoder) HeaderDone() bool { return e.header }

// SetHeaderDone overrides the header state (used by shard sinks when
// reopening an existing file in append mode).
func (e *BinEncoder) SetHeaderDone(done bool) { e.header = done }

// Encode writes one row (preceded by the header if this is the first).
func (e *BinEncoder) Encode(row Row) error {
	if !e.header {
		if _, err := io.WriteString(e.w, binMagic); err != nil {
			return err
		}
		if _, err := e.w.Write([]byte{binVersion}); err != nil {
			return err
		}
		e.header = true
	}
	// The body is appended after room for the longest length prefix; the
	// prefix then goes right before the body, and the row is one Write.
	const room = binary.MaxVarintLen64
	b := append(e.buf[:0], make([]byte, room)...)
	b = binary.AppendUvarint(b, uint64(len(row)))
	for _, f := range row {
		b = binary.AppendUvarint(b, uint64(len(f.Name)))
		b = append(b, f.Name...)
		b = appendBinValue(b, f.Value)
	}
	e.buf = b
	var pre [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(pre[:], uint64(len(b)-room))
	copy(b[room-n:], pre[:n])
	_, err := e.w.Write(b[room-n:])
	return err
}

// appendBinValue encodes one field value. The type partition mirrors
// appendValue's: anything that is not an int, float64 or bool is carried
// as the string CSV would have written, so decode+re-encode round-trips
// between the two formats byte for byte.
func appendBinValue(b []byte, v any) []byte {
	switch x := v.(type) {
	case int:
		b = append(b, binTagInt)
		return binary.AppendVarint(b, int64(x))
	case int64:
		b = append(b, binTagInt)
		return binary.AppendVarint(b, x)
	case float64:
		b = append(b, binTagFloat)
		return binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
	case bool:
		b = append(b, binTagBool)
		if x {
			return append(b, 1)
		}
		return append(b, 0)
	case string:
		b = append(b, binTagString)
		b = binary.AppendUvarint(b, uint64(len(x)))
		return append(b, x...)
	default:
		return appendBinValue(b, string(appendValue(nil, v)))
	}
}

// binCursor is the one parser of the binary shard format: it walks a
// shard held in memory row by row and field by field, performs every
// framing check (magic, version, row length, field count, name, tag,
// value, trailing bytes, truncation) and allocates nothing — names and
// string values come back as sub-slices of the shard. Consumers decide
// what to build from the fields: readBinRows materialises Rows,
// colBuilder.readBin keeps a few numeric columns.
type binCursor struct {
	rest   []byte // the shard after the current row
	body   []byte // the unread part of the current row
	fields uint64 // fields of the current row not yet read

	// field is the one nextField read last. It is read in place: returning
	// the struct by value cost a quarter of a cold model load in copies.
	field binField
}

// binField is one field as the cursor reads it: the name, the tag and the
// one value member the tag selects (the others hold leftovers of earlier
// fields). Integers arrive as int64, floats as float64, booleans as bool
// and everything else as string — the exact value set the CSV side
// renders, so a decoded row re-encodes identically in either format. name
// and str alias the shard bytes.
type binField struct {
	name []byte
	tag  byte
	i    int64   // binTagInt
	f    float64 // binTagFloat
	str  []byte  // binTagString
	b    bool    // binTagBool
}

// newBinCursor validates the shard header and returns a cursor positioned
// before the first row.
func newBinCursor(data []byte) (binCursor, error) {
	if len(data) < len(binMagic)+1 {
		return binCursor{}, fmt.Errorf("results: binary shard header: %w", io.ErrUnexpectedEOF)
	}
	if string(data[:len(binMagic)]) != binMagic {
		return binCursor{}, fmt.Errorf("results: not a binary row shard (bad magic %q)", data[:len(binMagic)])
	}
	if data[len(binMagic)] != binVersion {
		return binCursor{}, fmt.Errorf("results: binary shard version %d, reader supports %d", data[len(binMagic)], binVersion)
	}
	return binCursor{rest: data[len(binMagic)+1:]}, nil
}

// nextRow moves to the next row and returns its field count, or io.EOF at
// a clean end of the shard. Unread fields of the current row are skipped
// unparsed — the length prefix is what makes that possible. A shard that
// ends mid-row (truncated write, corrupt length) is an error, never a
// short row; the length is checked against the bytes that remain before
// anything is sized from it.
func (c *binCursor) nextRow() (int, error) {
	if len(c.rest) == 0 {
		return 0, io.EOF
	}
	length, n := binary.Uvarint(c.rest)
	if n == 0 {
		return 0, fmt.Errorf("results: binary shard row length: %w", io.ErrUnexpectedEOF)
	}
	if n < 0 {
		return 0, fmt.Errorf("results: binary shard row length: varint overflows a 64-bit integer")
	}
	if length > maxBinRowLen {
		return 0, fmt.Errorf("results: binary shard row length %d exceeds limit %d (corrupt shard?)", length, maxBinRowLen)
	}
	if length > uint64(len(c.rest)-n) {
		return 0, fmt.Errorf("results: binary shard truncated mid-row: %w", io.ErrUnexpectedEOF)
	}
	c.body, c.rest = c.rest[n:n+int(length)], c.rest[n+int(length):]
	nf, n := binary.Uvarint(c.body)
	if n <= 0 {
		return 0, fmt.Errorf("results: binary shard: bad field count")
	}
	c.body = c.body[n:]
	if nf > uint64(len(c.body)) {
		return 0, fmt.Errorf("results: binary shard: field count %d exceeds row body", nf)
	}
	c.fields = nf
	if nf == 0 {
		return 0, c.endRow()
	}
	return int(nf), nil
}

// endRow checks that the row's fields used up its body.
func (c *binCursor) endRow() error {
	if len(c.body) != 0 {
		return fmt.Errorf("results: binary shard: %d trailing bytes after row", len(c.body))
	}
	return nil
}

// nextField reads the next field of the current row into c.field; call it
// once per field nextRow counted. Reading the last field also checks the
// row for trailing bytes.
func (c *binCursor) nextField() error {
	if c.fields == 0 {
		return fmt.Errorf("results: binary shard: read past the last field of a row")
	}
	f, body := &c.field, c.body
	nameLen, n := binary.Uvarint(body)
	if n <= 0 || nameLen > uint64(len(body)-n) {
		return fmt.Errorf("results: binary shard: bad field name length")
	}
	body = body[n:]
	f.name = body[:nameLen]
	body = body[nameLen:]
	if len(body) == 0 {
		return fmt.Errorf("results: binary shard: field %q missing value tag", f.name)
	}
	f.tag = body[0]
	body = body[1:]
	switch f.tag {
	case binTagInt:
		v, n := binary.Varint(body)
		if n <= 0 {
			return fmt.Errorf("results: binary shard: field %q: bad varint", f.name)
		}
		f.i = v
		body = body[n:]
	case binTagFloat:
		if len(body) < 8 {
			return fmt.Errorf("results: binary shard: field %q: short float", f.name)
		}
		f.f = math.Float64frombits(binary.LittleEndian.Uint64(body))
		body = body[8:]
	case binTagString:
		sl, n := binary.Uvarint(body)
		if n <= 0 || sl > uint64(len(body)-n) {
			return fmt.Errorf("results: binary shard: field %q: bad string length", f.name)
		}
		f.str = body[n : n+int(sl)]
		body = body[n+int(sl):]
	case binTagBool:
		if len(body) < 1 {
			return fmt.Errorf("results: binary shard: field %q: short bool", f.name)
		}
		f.b = body[0] != 0
		body = body[1:]
	default:
		return fmt.Errorf("results: binary shard: field %q: unknown tag %d", f.name, f.tag)
	}
	c.body = body
	c.fields--
	if c.fields == 0 {
		return c.endRow()
	}
	return nil
}

// value boxes the field's value for a Row.
func (f *binField) value() any {
	switch f.tag {
	case binTagInt:
		return f.i
	case binTagFloat:
		return f.f
	case binTagString:
		return string(f.str)
	default:
		return f.b
	}
}

// readBinRows materialises every row of a binary shard held in memory.
func readBinRows(data []byte) ([]Row, error) {
	c, err := newBinCursor(data)
	if err != nil {
		return nil, err
	}
	var rows []Row
	for {
		nf, err := c.nextRow()
		if err == io.EOF {
			return rows, nil
		}
		if err != nil {
			return nil, err
		}
		row := make(Row, 0, nf)
		for ; nf > 0; nf-- {
			if err := c.nextField(); err != nil {
				return nil, err
			}
			row = append(row, Field{Name: string(c.field.name), Value: c.field.value()})
		}
		rows = append(rows, row)
	}
}
