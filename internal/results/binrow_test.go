package results

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// binTestRows mirrors the field shapes the harness emits: ints, floats,
// strings and a Stringer (euler.Dir renders through String in CSV).
type binDirStringer int

func (d binDirStringer) String() string {
	if d == 0 {
		return "X"
	}
	return "Y"
}

func binTestRows() []Row {
	var rows []Row
	for i := 0; i < 5; i++ {
		rows = append(rows, Row{
			F("rank", i%3),
			F("q", 1000*(i+1)),
			F("mode", binDirStringer(i%2)),
			F("wall_us", 12.5*float64(i)+0.125),
			F("l2_dcm", float64(i*i)*1e3),
			F("label", fmt.Sprintf("s%d", i)),
			F("flag", i%2 == 0),
		})
	}
	return rows
}

func encodeRows(t testing.TB, enc interface{ Encode(Row) error }, rows []Row) {
	t.Helper()
	for _, r := range rows {
		if err := enc.Encode(r); err != nil {
			t.Fatal(err)
		}
	}
}

func TestBinRoundTripMatchesCSVBytes(t *testing.T) {
	rows := binTestRows()

	// CSV of the original rows — the reference bytes.
	var csvRef bytes.Buffer
	encodeRows(t, NewCSVEncoder(&csvRef), rows)

	// Binary encode, decode, and re-encode both ways.
	var bin bytes.Buffer
	encodeRows(t, NewBinEncoder(&bin), rows)
	decoded, err := readBinRows(bin.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(decoded) != len(rows) {
		t.Fatalf("decoded %d rows, want %d", len(decoded), len(rows))
	}
	var csvFromBin bytes.Buffer
	encodeRows(t, NewCSVEncoder(&csvFromBin), decoded)
	if !bytes.Equal(csvFromBin.Bytes(), csvRef.Bytes()) {
		t.Errorf("CSV re-encoded from binary differs:\n got %q\nwant %q", csvFromBin.String(), csvRef.String())
	}

	// Binary re-encode of the decoded rows is byte-identical too: the
	// format is a pure function of the logical row.
	var bin2 bytes.Buffer
	encodeRows(t, NewBinEncoder(&bin2), decoded)
	if !bytes.Equal(bin2.Bytes(), bin.Bytes()) {
		t.Error("binary encode(decode(encode)) not byte-identical")
	}
}

// corruptBinShards lists shards every consumer of the cursor must reject:
// the table of TestBinReaderRejectsCorruptShards and the seed corpus of
// FuzzBinShard.
func corruptBinShards(full []byte) []struct {
	name string
	data []byte
} {
	return []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"short header", full[:3]},
		{"bad magic", append([]byte("XXXX\x01"), full[5:]...)},
		{"bad version", append([]byte(binMagic+"\x07"), full[5:]...)},
		{"truncated mid-row", full[:len(full)-3]},
		{"trailing garbage length", append(append([]byte{}, full...), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01)},
		{"length prefix far past the end", binary.AppendUvarint([]byte(binMagic+"\x01"), maxBinRowLen)},
	}
}

func TestBinReaderRejectsCorruptShards(t *testing.T) {
	var good bytes.Buffer
	encodeRows(t, NewBinEncoder(&good), binTestRows())
	full := good.Bytes()

	for _, tc := range corruptBinShards(full) {
		t.Run(tc.name, func(t *testing.T) {
			_, rowsErr := readBinRows(tc.data)
			if rowsErr == nil {
				t.Error("corrupt shard accepted")
			}
			// The projection shares the parser, so it fails identically.
			_, colsErr := new(colBuilder).readBin(tc.data, []string{"q", "wall_us"})
			if colsErr == nil || rowsErr == nil || colsErr.Error() != rowsErr.Error() {
				t.Errorf("projection error %v, row decode error %v", colsErr, rowsErr)
			}
		})
	}

	// A clean shard still reads after all that.
	if rows, err := readBinRows(full); err != nil || len(rows) != 5 {
		t.Fatalf("clean shard: rows=%d err=%v", len(rows), err)
	}
}

func TestBinLengthPrefixIsCheckedBeforeAnythingIsSizedFromIt(t *testing.T) {
	// Ten bytes claiming a 64 MiB row: the old streaming reader allocated
	// the 64 MiB before it found the shard ended. The length is now held
	// against the bytes that remain first.
	data := binary.AppendUvarint([]byte(binMagic+"\x01"), maxBinRowLen)
	for _, consumer := range []struct {
		name string
		read func() error
	}{
		{"rows", func() error { _, err := readBinRows(data); return err }},
		{"columns", func() error { _, err := new(colBuilder).readBin(data, []string{"q"}); return err }},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := consumer.read()
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "truncated") {
			t.Errorf("%s: err = %v, want a truncation error", consumer.name, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 1<<16 {
			t.Errorf("%s: allocated %d bytes to reject a %d-byte shard", consumer.name, got, len(data))
		}
	}
}

func TestBinReaderRejectsUnknownTag(t *testing.T) {
	var buf bytes.Buffer
	enc := NewBinEncoder(&buf)
	if err := enc.Encode(Row{F("v", 1)}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// The tag byte of field "v": header(5) + rowlen(1) + nfields(1) +
	// namelen(1) + name(1) = offset 9.
	data[9] = 0x7f
	if _, err := readBinRows(data); err == nil || !strings.Contains(err.Error(), "unknown tag") {
		t.Errorf("unknown tag accepted: %v", err)
	}
}

func TestBinShardSinkMirrorsCSVShardSink(t *testing.T) {
	dir := t.TempDir()
	csvSink, err := NewCSVShardSink(dir)
	if err != nil {
		t.Fatal(err)
	}
	binSink, err := NewBinShardSink(dir)
	if err != nil {
		t.Fatal(err)
	}
	tee := NewTee(csvSink, binSink)
	keys := []string{"p2/base/c128kB/r0", "p2/base/c512kB/r0"}
	rows := binTestRows()
	for _, k := range keys {
		for _, r := range rows {
			if err := tee.Emit(k, r); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := tee.Close(); err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		csvPath := csvSink.ShardPath(k)
		binPath := binSink.ShardPath(k)
		if filepath.Ext(binPath) != ".bin" {
			t.Fatalf("bin shard path %q", binPath)
		}
		// Same stem, different extension: sibling files.
		if strings.TrimSuffix(csvPath, ".csv") != strings.TrimSuffix(binPath, ".bin") {
			t.Errorf("shard stems differ: %q vs %q", csvPath, binPath)
		}
		csvBytes, err := os.ReadFile(csvPath)
		if err != nil {
			t.Fatal(err)
		}
		binRows, err := ReadRowsFile(binPath)
		if err != nil {
			t.Fatal(err)
		}
		var reenc bytes.Buffer
		encodeRows(t, NewCSVEncoder(&reenc), binRows)
		if !bytes.Equal(reenc.Bytes(), csvBytes) {
			t.Errorf("key %q: binary shard does not round-trip to the CSV shard bytes", k)
		}
		// The CSV read side agrees with the binary read side after CSV's
		// best-effort typing is normalized through a re-encode.
		csvRows, err := ReadRowsFile(csvPath)
		if err != nil {
			t.Fatal(err)
		}
		var fromCSV bytes.Buffer
		encodeRows(t, NewCSVEncoder(&fromCSV), csvRows)
		if !bytes.Equal(fromCSV.Bytes(), csvBytes) {
			t.Errorf("key %q: CSV decode+re-encode changed bytes", k)
		}
	}
}

func TestBinShardSinkAppendReopen(t *testing.T) {
	// Force evictions so shards are reopened in append mode: the magic
	// header must not be written twice.
	dir := t.TempDir()
	sink, err := NewBinShardSink(dir)
	if err != nil {
		t.Fatal(err)
	}
	sink.maxOpen = 1
	rows := binTestRows()
	for i, r := range rows {
		key := fmt.Sprintf("k%d", i%3) // interleave 3 keys through 1 slot
		if err := sink.Emit(key, r); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		got, err := ReadRowsFile(filepath.Join(dir, fmt.Sprintf("k%d.bin", i)))
		if err != nil {
			t.Fatalf("k%d: %v", i, err)
		}
		want := (len(rows) + 2 - i) / 3
		if len(got) != want {
			t.Errorf("k%d: %d rows, want %d", i, len(got), want)
		}
	}
}
