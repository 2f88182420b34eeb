package results

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// writeShard encodes rows into a shard file of the given extension.
func writeShard(tb testing.TB, ext string, rows []Row) string {
	tb.Helper()
	var buf bytes.Buffer
	if ext == ".bin" {
		encodeRows(tb, NewBinEncoder(&buf), rows)
	} else {
		encodeRows(tb, NewCSVEncoder(&buf), rows)
	}
	path := filepath.Join(tb.TempDir(), "shard"+ext)
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		tb.Fatal(err)
	}
	return path
}

// firstFieldByName is the projection's specification, written the slow
// way: decode the rows, then take each row's first field of the name and
// keep it only when it is an int, int64 or float64.
func firstFieldByName(rows []Row, names []string) *Columns {
	want := &Columns{Rows: len(rows), Values: make([][]float64, len(names)), Present: make([][]bool, len(names))}
	for k, name := range names {
		want.Values[k] = make([]float64, len(rows))
		want.Present[k] = make([]bool, len(rows))
		for i, row := range rows {
			for _, f := range row {
				if f.Name != name {
					continue
				}
				switch v := f.Value.(type) {
				case int:
					want.Values[k][i], want.Present[k][i] = float64(v), true
				case int64:
					want.Values[k][i], want.Present[k][i] = float64(v), true
				case float64:
					want.Values[k][i], want.Present[k][i] = v, true
				}
				break
			}
		}
	}
	return want
}

// sameColumns compares projections bit for bit (NaN payloads included).
func sameColumns(a, b *Columns) bool {
	if a.Rows != b.Rows || len(a.Values) != len(b.Values) || !reflect.DeepEqual(a.Present, b.Present) {
		return false
	}
	for k := range a.Values {
		if len(a.Values[k]) != len(b.Values[k]) {
			return false
		}
		for i := range a.Values[k] {
			if math.Float64bits(a.Values[k][i]) != math.Float64bits(b.Values[k][i]) {
				return false
			}
		}
	}
	return true
}

func TestColumnsSemantics(t *testing.T) {
	names := []string{"q", "wall_us", "l2_dcm"}
	cases := []struct {
		name        string
		rows        []Row
		wantValues  [][]float64
		wantPresent [][]bool
	}{
		{
			name:        "duplicate field name: first wins",
			rows:        []Row{{F("q", 1), F("q", 2), F("wall_us", 3.5)}},
			wantValues:  [][]float64{{1}, {3.5}, {0}},
			wantPresent: [][]bool{{true}, {true}, {false}},
		},
		{
			name:        "first occurrence not numeric, later one numeric: absent",
			rows:        []Row{{F("q", "big"), F("q", 2), F("wall_us", true), F("wall_us", 1.0)}},
			wantValues:  [][]float64{{0}, {0}, {0}},
			wantPresent: [][]bool{{false}, {false}, {false}},
		},
		{
			name:        "column missing on one row",
			rows:        []Row{{F("q", 1), F("wall_us", 1.0), F("l2_dcm", 9.0)}, {F("q", 2), F("wall_us", 2.0)}},
			wantValues:  [][]float64{{1, 2}, {1, 2}, {9, 0}},
			wantPresent: [][]bool{{true, true}, {true, true}, {true, false}},
		},
		{
			name:        "int in one row, float in the next",
			rows:        []Row{{F("q", 1000)}, {F("q", 1000.5)}, {F("q", int64(-7))}},
			wantValues:  [][]float64{{1000, 1000.5, -7}, {0, 0, 0}, {0, 0, 0}},
			wantPresent: [][]bool{{true, true, true}, {false, false, false}, {false, false, false}},
		},
		{
			name:        "names not present at all",
			rows:        []Row{{F("rank", 0), F("mode", "X")}, {F("rank", 1), F("mode", "Y")}},
			wantValues:  [][]float64{{0, 0}, {0, 0}, {0, 0}},
			wantPresent: [][]bool{{false, false}, {false, false}, {false, false}},
		},
		{
			name:        "row without fields",
			rows:        []Row{{}, {F("q", 3)}},
			wantValues:  [][]float64{{0, 3}, {0, 0}, {0, 0}},
			wantPresent: [][]bool{{false, true}, {false, false}, {false, false}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := &Columns{Rows: len(tc.rows), Values: tc.wantValues, Present: tc.wantPresent}
			if got := ProjectRows(tc.rows, names...); !sameColumns(got, want) {
				t.Errorf("ProjectRows = %+v, want %+v", got, want)
			}
			got, err := ReadColumnsFile(writeShard(t, ".bin", tc.rows), names...)
			if err != nil {
				t.Fatal(err)
			}
			if !sameColumns(got, want) {
				t.Errorf("binary shard projects to %+v, want %+v", got, want)
			}
		})
	}
}

func TestColumnsOfEmptyShards(t *testing.T) {
	// A shard sink that emitted nothing leaves a header-only binary shard
	// or an empty CSV file: zero rows, zero-length columns, no error.
	dir := t.TempDir()
	for name, data := range map[string]string{"empty.bin": binMagic + "\x01", "empty.csv": ""} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := ReadColumnsFile(path, "q", "wall_us")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.Rows != 0 || len(got.Values) != 2 || len(got.Values[0]) != 0 || len(got.Present[1]) != 0 {
			t.Errorf("%s: %+v", name, got)
		}
	}
}

func TestColumnsSameFromBothFormats(t *testing.T) {
	// The harness's field shapes, through the one call: the CSV shard is
	// typed back by ReadCSVRows, the binary shard never becomes rows, and
	// both agree with the specification over the original rows (a bool or a
	// Stringer is not a number in either). Requesting a name twice fills
	// both columns.
	rows := binTestRows()
	names := []string{"q", "wall_us", "l2_dcm", "label", "flag", "mode", "absent", "q"}
	want := firstFieldByName(rows, names)
	for _, ext := range []string{".csv", ".bin"} {
		got, err := ReadColumnsFile(writeShard(t, ext, rows), names...)
		if err != nil {
			t.Fatal(err)
		}
		if !sameColumns(got, want) {
			t.Errorf("%s shard projects to %+v, want %+v", ext, got, want)
		}
	}
	if _, err := ReadColumnsFile(filepath.Join(t.TempDir(), "missing.bin"), "q"); !os.IsNotExist(err) {
		t.Errorf("missing shard: err = %v", err)
	}
}

// sweepRows is a shard body shaped like one served scenario: five fields
// per row, as the sweep harness emits them.
func sweepRows(n int) []Row {
	rows := make([]Row, n)
	for i := range rows {
		q := 1000 + 137*(i/96)
		rows[i] = Row{
			F("rank", i%3), F("q", q), F("mode", i%2),
			F("wall_us", 0.03*float64(q)*(1+0.01*float64(i%7))),
			F("l2_dcm", float64(q/8+i%5)),
		}
	}
	return rows
}

func TestProjectionAllocatesAConstantFewTimes(t *testing.T) {
	// The point of projecting instead of decoding: the cost in allocations
	// is the file buffer and the column storage, whatever the row count. A
	// per-row or per-field allocation sneaking back in fails here.
	var perShard [2]float64
	for i, n := range []int{1152, 4 * 1152} {
		path := writeShard(t, ".bin", sweepRows(n))
		perShard[i] = testing.AllocsPerRun(20, func() {
			cols, err := ReadColumnsFile(path, "q", "wall_us", "l2_dcm")
			if err != nil || cols.Rows != n {
				t.Fatalf("rows = %d, err = %v", cols.Rows, err)
			}
		})
	}
	if perShard[0] > 16 || perShard[0] != perShard[1] {
		t.Errorf("allocations per projection: %v for 1152 rows, %v for 4608; want at most 16 and equal", perShard[0], perShard[1])
	}
}

func TestColumnReaderForgetsThePreviousShard(t *testing.T) {
	// One reader through shards that grow, shrink, switch format, change
	// the requested names and fail halfway: every answer is a fresh
	// reader's, error text included.
	dir := t.TempDir()
	corrupt := filepath.Join(dir, "corrupt.bin")
	data, err := os.ReadFile(writeShard(t, ".bin", sweepRows(96)))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(corrupt, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	empty := filepath.Join(dir, "empty.csv")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	three := []string{"q", "wall_us", "l2_dcm"}
	var r ColumnReader
	for i, tc := range []struct {
		path  string
		names []string
	}{
		{writeShard(t, ".bin", sweepRows(4608)), three},
		{writeShard(t, ".csv", binTestRows()), []string{"label", "q"}},
		{writeShard(t, ".bin", sweepRows(12)), three},
		{corrupt, three},
		{filepath.Join(dir, "missing.bin"), three},
		{writeShard(t, ".bin", sweepRows(1152)), []string{"l2_dcm", "mode", "wall_us", "rank", "q"}},
		{empty, three},
		{writeShard(t, ".csv", sweepRows(96)), three},
	} {
		got, gotErr := r.Read(tc.path, tc.names...)
		want, wantErr := ReadColumnsFile(tc.path, tc.names...)
		if !sameProjection(got, gotErr, want, wantErr) {
			t.Errorf("read %d (%s): reused reader gives %+v, %v; a fresh one %+v, %v", i, filepath.Base(tc.path), got, gotErr, want, wantErr)
		}
	}
}

func TestReadFileMatchesOSReadFile(t *testing.T) {
	// One buffer through files larger and smaller than it, around the
	// 512-byte floor, and one that is missing.
	dir := t.TempDir()
	var buf []byte
	for _, size := range []int{70_000, 0, 511, 512, 513, 3, 70_001, -1} {
		path := filepath.Join(dir, fmt.Sprintf("f%d", size))
		if size >= 0 {
			data := make([]byte, size)
			for i := range data {
				data[i] = byte(i * 7)
			}
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, wantErr := os.ReadFile(path)
		var err error
		buf, err = readFile(buf, path)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) || (err == nil && !bytes.Equal(buf, want)) {
			t.Errorf("size %d: %d bytes, err %v; os.ReadFile: %d bytes, err %v", size, len(buf), err, len(want), wantErr)
		}
	}
}

// sameProjection reports whether two projections of one shard agree: the
// same error text, or no error and the same columns.
func sameProjection(a *Columns, aErr error, b *Columns, bErr error) bool {
	if aErr != nil || bErr != nil {
		return aErr != nil && bErr != nil && aErr.Error() == bErr.Error()
	}
	return sameColumns(a, b)
}

// dirtyShard is a projection a builder makes just before the one under
// test, so the test sees whether anything of it survives into the next.
type dirtyShard struct {
	data  []byte
	bin   bool
	names []string
}

// dirtyShards are a binary shard larger than the fuzzers' seeds, a
// smaller CSV shard over other names, and a binary shard that fails after
// its columns are half filled.
func dirtyShards(tb testing.TB) []dirtyShard {
	var bin, csv bytes.Buffer
	encodeRows(tb, NewBinEncoder(&bin), sweepRows(96))
	encodeRows(tb, NewCSVEncoder(&csv), binTestRows())
	return []dirtyShard{
		{bin.Bytes(), true, []string{"wall_us", "l2_dcm", "q", "rank", "mode", "q", "label"}},
		{csv.Bytes(), false, []string{"label"}},
		{bin.Bytes()[:bin.Len()-3], true, []string{"q", "wall_us"}},
	}
}

// dirtyBuilder returns a builder that has just projected one of the
// shards, picked by key.
func dirtyBuilder(shards []dirtyShard, key int) *colBuilder {
	d := shards[key%len(shards)]
	b := new(colBuilder)
	_, _ = b.project(d.data, d.bin, d.names) // the truncated shard's error is the point: a half-filled builder
	return b
}

func FuzzBinShard(f *testing.F) {
	encode := func(rows []Row) []byte {
		var buf bytes.Buffer
		encodeRows(f, NewBinEncoder(&buf), rows)
		return buf.Bytes()
	}
	good := encode(binTestRows())
	f.Add(good)
	for _, tc := range corruptBinShards(good) {
		f.Add(tc.data)
	}
	f.Add(encode(sweepRows(12)))
	f.Add(encode([]Row{ // duplicate names, an empty row, values no model wants
		{F("q", 1), F("q", 2.5), F("wall_us", "slow"), F("wall_us", 3.0)},
		{},
		{F("l2_dcm", true), F("q", int64(math.MinInt64)), F("wall_us", math.NaN())},
	}))

	dirty := dirtyShards(f)
	names := []string{"q", "wall_us", "l2_dcm", "mode", "q", ""}
	f.Fuzz(func(t *testing.T, data []byte) {
		rows, rowsErr := readBinRows(data)
		cols, colsErr := new(colBuilder).readBin(data, names)
		if (rowsErr == nil) != (colsErr == nil) {
			t.Fatalf("row decode err = %v, projection err = %v", rowsErr, colsErr)
		}
		// A reader that has just projected another shard answers as a
		// fresh one.
		reused, reusedErr := dirtyBuilder(dirty, len(data)).readBin(data, names)
		if !sameProjection(reused, reusedErr, cols, colsErr) {
			t.Fatalf("reused reader: %+v, %v; fresh reader: %+v, %v", reused, reusedErr, cols, colsErr)
		}
		if rowsErr != nil {
			if rowsErr.Error() != colsErr.Error() {
				t.Fatalf("one parser, two messages: %q vs %q", rowsErr, colsErr)
			}
			return
		}
		if want := firstFieldByName(rows, names); !sameColumns(cols, want) {
			t.Fatalf("projection %+v, want %+v (rows %v)", cols, want, rows)
		}
		if viaRows := ProjectRows(rows, names...); !sameColumns(cols, viaRows) {
			t.Fatalf("projection %+v, ProjectRows %+v", cols, viaRows)
		}
	})
}

// FuzzCSVColumns feeds ReadCSVRows any bytes: it never panics, and the
// reader's CSV projection, fresh or reused, is ProjectRows of its rows
// (which is the specification's), or fails with its error.
func FuzzCSVColumns(f *testing.F) {
	for _, rows := range [][]Row{sweepRows(12), binTestRows()} {
		var buf bytes.Buffer
		encodeRows(f, NewCSVEncoder(&buf), rows)
		f.Add(buf.Bytes())
	}
	for _, golden := range []string{csvEncoderGolden, csvHeaderGolden, csvShardGolden} {
		f.Add([]byte(golden))
	}
	f.Add([]byte("q,wall_us\n1000,2.5,7\n")) // more cells than the header

	dirty := dirtyShards(f)
	names := []string{"q", "wall_us", "l2_dcm", "mode", "q", ""}
	f.Fuzz(func(t *testing.T, data []byte) {
		rows, rowsErr := ReadCSVRows(bytes.NewReader(data))
		var want *Columns
		if rowsErr == nil {
			want = ProjectRows(rows, names...)
			if spec := firstFieldByName(rows, names); !sameColumns(want, spec) {
				t.Fatalf("ProjectRows %+v, want %+v (rows %v)", want, spec, rows)
			}
		}
		fresh, freshErr := new(colBuilder).project(data, false, names)
		if !sameProjection(fresh, freshErr, want, rowsErr) {
			t.Fatalf("fresh reader: %+v, %v; rows: %+v, %v", fresh, freshErr, want, rowsErr)
		}
		reused, reusedErr := dirtyBuilder(dirty, len(data)).project(data, false, names)
		if !sameProjection(reused, reusedErr, want, rowsErr) {
			t.Fatalf("reused reader: %+v, %v; rows: %+v, %v", reused, reusedErr, want, rowsErr)
		}
	})
}
