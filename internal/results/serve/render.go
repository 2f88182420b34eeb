package serve

import (
	"math"
	"strconv"
	"unicode/utf8"
)

// jsonAppender appends a response body by hand, byte for byte what
// json.Encoder with SetIndent("", "  ") prints for the same value: the
// bodies that answer most queries skip the encoder's reflection and its
// second, indenting pass. The structure and indentation are spelled out
// by each body's appendJSON; this type supplies the leaf values.
type jsonAppender struct {
	b []byte
	// refused is set when a float encoding/json refuses (a NaN or an
	// infinity) was asked for: the body is then the encoder's to render, error and all.
	refused bool
}

func (a *jsonAppender) raw(s string) { a.b = append(a.b, s...) }

func (a *jsonAppender) str(s string) { a.b = appendJSONString(a.b, s) }

func (a *jsonAppender) int(n int) { a.b = strconv.AppendInt(a.b, int64(n), 10) }

func (a *jsonAppender) float(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		a.refused = true
		return
	}
	a.b = appendJSONFloat(a.b, f)
}

// appendJSONFloat appends a finite float as encoding/json writes it: 'f'
// notation, or 'e' below 1e-6 and from 1e21 on in magnitude, with a
// one-digit negative exponent unpadded ("1e-7", not "1e-07").
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s quoted as encoding/json writes it with HTML
// escaping on, as the encoder has it by default: '"' and '\\' escaped,
// \b \f \n \r \t in short form, other control bytes and <, > and & as
// \u00XX, U+2028 and U+2029 as \u2028 and \u2029, and each byte of
// invalid UTF-8 as \ufffd.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// An empty match is a nil list, so "scenarios" is null.
func (l scenarioList) appendJSON(a *jsonAppender) {
	a.raw("{\n  \"count\": ")
	a.int(len(l))
	if len(l) == 0 {
		a.raw(",\n  \"scenarios\": null\n}\n")
		return
	}
	a.raw(",\n  \"scenarios\": [")
	for i, sc := range l {
		if i > 0 {
			a.raw(",")
		}
		a.raw("\n    ")
		a.b = append(a.b, sc.listed...)
	}
	a.raw("\n  ]\n}\n")
}

func (r predictResponse) appendJSON(a *jsonAppender) {
	a.raw("{\n  \"scenario\": ")
	a.str(r.Scenario)
	a.raw(",\n  \"backend\": ")
	a.str(r.Backend)
	a.raw(",\n  \"measure\": ")
	a.str(string(r.Measure))
	a.raw(",\n  \"at\": {\n    \"q\": ")
	a.float(r.At.Q)
	if r.At.Lambda != 0 { // omitempty: -0 is omitted too
		a.raw(",\n    \"lambda\": ")
		a.float(r.At.Lambda)
	}
	if r.At.DCM != nil {
		a.raw(",\n    \"dcm\": ")
		a.float(*r.At.DCM)
	}
	a.raw("\n  },\n  \"value\": ")
	a.float(r.Value)
	a.raw(",\n  \"model\": ")
	a.str(r.Model)
	a.raw(",\n  \"rows\": ")
	a.int(r.Rows)
	a.raw("\n}\n")
}

// appendJSON relies on what handleTrend builds: Series is nil (null) or
// holds series that each got their first point when they were created.
func (r trendResponse) appendJSON(a *jsonAppender) {
	a.raw("{\n  \"axis\": ")
	a.str(r.Axis)
	a.raw(",\n  \"backend\": ")
	a.str(r.Backend)
	a.raw(",\n  \"scenarios\": ")
	a.int(r.Scenarios)
	if r.Series == nil {
		a.raw(",\n  \"series\": null\n}\n")
		return
	}
	a.raw(",\n  \"series\": [")
	for i, ts := range r.Series {
		if i > 0 {
			a.raw(",")
		}
		a.raw("\n    {\n      \"model\": ")
		a.str(ts.Model)
		a.raw(",\n      \"coefficient\": ")
		a.str(ts.Coefficient)
		a.raw(",\n      \"points\": [")
		for j, p := range ts.Points {
			if j > 0 {
				a.raw(",")
			}
			a.raw("\n        {\n          \"x\": ")
			a.float(p.X)
			a.raw(",\n          \"scenario\": ")
			a.str(p.Scenario)
			a.raw(",\n          \"value\": ")
			a.float(p.Value)
			a.raw("\n        }")
		}
		a.raw("\n      ]\n    }")
	}
	a.raw("\n  ]\n}\n")
}
