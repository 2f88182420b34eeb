package results

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// Columns is a numeric projection of a shard: for each requested field
// name, one value and one present bit per row. A row's field counts as
// present when the first field of that name in the row holds an int, int64
// or float64; a row without the name, or whose first field of that name is
// a string or bool, is absent there (value 0) even when a later duplicate
// is numeric. Model fitting needs three numbers per row, not the row, and
// a projection of a binary shard is read straight out of the shard bytes
// without building a single Row.
type Columns struct {
	// Rows is the shard's row count; every column has that length.
	Rows int
	// Values[k][i] and Present[k][i] describe the k-th requested name in
	// row i.
	Values  [][]float64
	Present [][]bool
}

// colBuilder fills a Columns row by row: the reducer both shard formats
// share, so "first field of the name, numeric only" is decided once.
type colBuilder struct {
	Columns
	seen []bool // per column: the current row already had a field of that name
	row  int
}

// newColBuilder sizes k columns of n rows over two backing arrays, so a
// projection costs the same few allocations whatever the shard's length.
func newColBuilder(k, n int) *colBuilder {
	b := &colBuilder{
		Columns: Columns{Rows: n, Values: make([][]float64, k), Present: make([][]bool, k)},
		seen:    make([]bool, k),
		row:     -1,
	}
	values, present := make([]float64, k*n), make([]bool, k*n)
	for j := 0; j < k; j++ {
		b.Values[j] = values[j*n : (j+1)*n : (j+1)*n]
		b.Present[j] = present[j*n : (j+1)*n : (j+1)*n]
	}
	return b
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
	b := newColBuilder(len(names), len(rows))
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

// readBinColumns projects a binary shard held in memory. It accepts and
// rejects exactly the shards readBinRows does — every field of every row
// is still parsed — and returns what ProjectRows would make of them.
func readBinColumns(data []byte, names []string) (*Columns, error) {
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
	b := newColBuilder(len(names), n)
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

// ReadColumnsFile projects one shard file onto the named columns,
// dispatching on the extension like ReadRowsFile. A binary shard is
// scanned in place; a CSV shard is decoded by ReadCSVRows and projected by
// ProjectRows, so both formats answer with the same values.
func ReadColumnsFile(path string, names ...string) (*Columns, error) {
	if filepath.Ext(path) != ".bin" {
		rows, err := ReadRowsFile(path)
		if err != nil {
			return nil, err
		}
		return ProjectRows(rows, names...), nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	cols, err := readBinColumns(data, names)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return cols, nil
}
