package results

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// The read side of the shard formats: both the CSV shards and their
// binary siblings decode back into []Row, so consumers (the results
// service, ad-hoc tooling) accept either format through
// one call. Binary shards decode losslessly; CSV shards decode
// best-effort typed — integers as int64, floats as float64, everything
// else as string — which is exact for every row this repository's
// encoders write (CSV rendering is %d / %g / verbatim, all of which
// round-trip through the parse below).

// ReadRowsFile reads one shard file, dispatching on its extension:
// ".bin" is the binary row format, anything else is CSV.
func ReadRowsFile(path string) ([]Row, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rows []Row
	if filepath.Ext(path) == ".bin" {
		rows, err = readBinRows(data)
	} else {
		rows, err = ReadCSVRows(bytes.NewReader(data))
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rows, nil
}

// ReadCSVRows decodes a CSV shard written by CSVEncoder: the first line
// is the header, each following line one row. Values parse as int64 when
// they are valid integers, float64 when they are valid numbers, and stay
// strings otherwise — the inverse of the encoder's %d / %g / verbatim
// rendering.
func ReadCSVRows(r io.Reader) ([]Row, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<22)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, nil // empty shard: no header, no rows
	}
	names := strings.Split(sc.Text(), ",")
	var rows []Row
	for sc.Scan() {
		cells := strings.Split(sc.Text(), ",")
		if len(cells) != len(names) {
			return nil, fmt.Errorf("results: csv row has %d cells, header has %d", len(cells), len(names))
		}
		row := make(Row, len(cells))
		for i, cell := range cells {
			row[i] = Field{Name: names[i], Value: parseCSVValue(cell)}
		}
		rows = append(rows, row)
	}
	return rows, sc.Err()
}

// parseCSVValue recovers a typed value from one CSV cell.
func parseCSVValue(cell string) any {
	if v, err := strconv.ParseInt(cell, 10, 64); err == nil {
		return v
	}
	if v, err := strconv.ParseFloat(cell, 64); err == nil {
		return v
	}
	return cell
}
