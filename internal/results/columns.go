package results

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
)

// Columns is a numeric projection of a shard: for each requested field
// name, one value and one present bit per row. A row's field counts as
// present when the first field of that name in the row holds an int, int64
// or float64; a row without the name, or whose first field of that name is
// a string or bool, is absent there (value 0) even when a later duplicate
// is numeric. Model fitting needs three numbers per row, not the row, and
// a projection of a binary shard is read straight out of the shard bytes
// without building a single Row. Columns returned by a ColumnReader alias
// its storage and last until its next Read.
type Columns struct {
	// Rows is the shard's row count; every column has that length.
	Rows int
	// Values[k][i] and Present[k][i] describe the k-th requested name in
	// row i.
	Values  [][]float64
	Present [][]bool
}

// colBuilder fills a Columns row by row: the reducer both shard formats
// share, so "first field of the name, numeric only" is decided once. Its
// storage outlives a projection: reset reuses it for the next one.
type colBuilder struct {
	Columns
	valueBuf   []float64 // backs every Values column
	presentBuf []bool    // backs every Present column
	seen       []bool    // per column: the current row already had a field of that name
	row        int
}

// reset sizes the builder for k columns of n rows, every value absent,
// over two backing arrays it keeps: a projection costs the same few
// allocations whatever the shard's length, and a builder reset for shard
// after shard allocates only when one outgrows the shards before it.
func (b *colBuilder) reset(k, n int) {
	b.valueBuf = resize(b.valueBuf, k*n)
	b.presentBuf = resize(b.presentBuf, k*n)
	b.seen = resize(b.seen, k)
	b.Columns = Columns{Rows: n, Values: resize(b.Values, k), Present: resize(b.Present, k)}
	for j := 0; j < k; j++ {
		b.Values[j] = b.valueBuf[j*n : (j+1)*n : (j+1)*n]
		b.Present[j] = b.presentBuf[j*n : (j+1)*n : (j+1)*n]
	}
	b.row = -1
}

// resize returns s with length n and every element zero, in s's storage
// when it has the capacity. The result is never nil, so a zero-row
// projection compares equal whether its reader is fresh or reused.
func resize[T any](s []T, n int) []T {
	if s == nil || cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// startRow opens the next row.
func (b *colBuilder) startRow() {
	b.row++
	clear(b.seen)
}

// put offers column k the current row's next field of its name. Only the
// first offer per row and column counts, numeric or not.
func (b *colBuilder) put(k int, v float64, numeric bool) {
	if b.seen[k] {
		return
	}
	b.seen[k] = true
	if numeric {
		b.Values[k][b.row], b.Present[k][b.row] = v, true
	}
}

// numericValue returns a decoded field value as float64. Decoded shards
// carry int64 (both formats) and float64; in-memory rows also int.
func numericValue(value any) (float64, bool) {
	switch v := value.(type) {
	case float64:
		return v, true
	case int64:
		return float64(v), true
	case int:
		return float64(v), true
	}
	return 0, false
}

// numeric is numericValue for a field still in its shard encoding.
func (f *binField) numeric() (float64, bool) {
	switch f.tag {
	case binTagInt:
		return float64(f.i), true
	case binTagFloat:
		return f.f, true
	}
	return 0, false
}

// ProjectRows projects decoded rows onto the named columns.
func ProjectRows(rows []Row, names ...string) *Columns {
	return new(colBuilder).projectRows(rows, names)
}

// projectRows projects decoded rows onto the named columns.
func (b *colBuilder) projectRows(rows []Row, names []string) *Columns {
	b.reset(len(names), len(rows))
	for _, row := range rows {
		b.startRow()
		for _, f := range row {
			for k, name := range names {
				if f.Name == name {
					v, ok := numericValue(f.Value)
					b.put(k, v, ok)
				}
			}
		}
	}
	return &b.Columns
}

// readBin projects a binary shard held in memory. It accepts and rejects
// exactly the shards readBinRows does — every field of every row is still
// parsed — and returns what ProjectRows would make of them.
func (b *colBuilder) readBin(data []byte, names []string) (*Columns, error) {
	c, err := newBinCursor(data)
	if err != nil {
		return nil, err
	}
	// Count on a copy of the cursor, from the length prefixes alone. The
	// count stops at the first bad row, which the pass below then reports.
	n := 0
	for count := c; ; n++ {
		if _, err := count.nextRow(); err != nil {
			break
		}
	}
	b.reset(len(names), n)
	for {
		nf, err := c.nextRow()
		if err == io.EOF {
			return &b.Columns, nil
		}
		if err != nil {
			return nil, err
		}
		b.startRow()
		for ; nf > 0; nf-- {
			if err := c.nextField(); err != nil {
				return nil, err
			}
			for k, name := range names {
				if string(c.field.name) == name {
					v, ok := c.field.numeric()
					b.put(k, v, ok)
				}
			}
		}
	}
}

// project projects one shard held in memory: a binary shard is scanned in
// place, a CSV shard is decoded by ReadCSVRows and its rows projected, so
// both formats answer with the same values.
func (b *colBuilder) project(data []byte, bin bool, names []string) (*Columns, error) {
	if bin {
		return b.readBin(data, names)
	}
	rows, err := ReadCSVRows(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	return b.projectRows(rows, names), nil
}

// ColumnReader projects shard files onto numeric columns and keeps its
// storage from one Read to the next: the file bytes, the column arrays and
// the builder's per-row state. A reader that serves shard after shard
// allocates only when a shard outgrows the ones before it. The zero value
// is ready to use; a ColumnReader is not safe for concurrent use.
type ColumnReader struct {
	data []byte // the last shard's bytes
	b    colBuilder
}

// Read projects one shard file onto the named columns, dispatching on the
// extension like ReadRowsFile. It accepts and rejects the same files as
// ReadRowsFile, with the same errors.
//
// The returned Columns alias the reader's storage: they are valid until
// the next Read, which overwrites them. A caller that keeps values past
// that copies them.
func (r *ColumnReader) Read(path string, names ...string) (*Columns, error) {
	var err error
	if r.data, err = readFile(r.data, path); err != nil {
		return nil, err
	}
	cols, err := r.b.project(r.data, filepath.Ext(path) == ".bin", names)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return cols, nil
}

// ReadColumnsFile projects one shard file onto the named columns with a
// reader of its own, so the Columns are the caller's to keep.
func ReadColumnsFile(path string, names ...string) (*Columns, error) {
	return new(ColumnReader).Read(path, names...)
}

// readFile reads the file at path into buf's storage: os.ReadFile's bytes
// and errors, from a buffer reallocated only when the file outgrows it.
// The size Stat reports is a hint; the read runs to EOF, so a file that
// grows or shrinks while it is read comes back as os.ReadFile would return
// it. The buffer comes back on error too, so its storage is kept.
func readFile(buf []byte, path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return buf[:0], err
	}
	defer f.Close()
	size := 0
	if fi, err := f.Stat(); err == nil && int64(int(fi.Size())) == fi.Size() {
		size = int(fi.Size())
	}
	// One spare byte for the read that meets EOF; at least 512, as
	// os.ReadFile, for files (in /proc, say) that report size 0.
	buf = slices.Grow(buf[:0], max(size+1, 512))
	for {
		n, err := f.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, 1)
		}
	}
}
