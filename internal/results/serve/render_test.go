package serve

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
)

func TestAppendJSONStringMatchesEncoder(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"", `""`},
		{"p2_base_c128kB_cpu1x_quiet_opt_r0", `"p2_base_c128kB_cpu1x_quiet_opt_r0"`},
		{"a&b<c>d", `"a\u0026b\u003cc\u003ed"`},
		{"q\"uo\\te", `"q\"uo\\te"`},
		{"\b\f\n\r\t\x00\x1f\x7f", `"\b\f\n\r\t\u0000\u001f` + "\x7f" + `"`},
		{"line\u2028para\u2029end", `"line\u2028para\u2029end"`},
		{"\u00e9\u2013\u03c0", "\"\u00e9\u2013\u03c0\""}, // other runes pass through
		{"bad\xffutf8\xc3", `"bad\ufffdutf8\ufffd"`},
		{"\xed\xa0\x80", `"\ufffd\ufffd\ufffd"`}, // an encoded surrogate is three bad bytes
		{"\xef\xbf\xbd", "\"\ufffd\""},           // a real U+FFFD passes through
	} {
		got := string(appendJSONString([]byte("x"), tc.in))
		if got != "x"+tc.want {
			t.Errorf("%q: appended %s, want %s", tc.in, got[1:], tc.want)
		}
		enc, _ := json.Marshal(tc.in)
		if string(enc) != tc.want {
			t.Errorf("%q: the table's %s is not the encoder's %s", tc.in, tc.want, enc)
		}
	}
}

func TestAppendJSONFloatMatchesEncoder(t *testing.T) {
	for _, tc := range []struct {
		in   float64
		want string
	}{
		{0, "0"},
		{math.Copysign(0, -1), "-0"},
		{1e-7, "1e-7"},
		{-1e-7, "-1e-7"},
		{1e-6, "0.000001"},
		{1.5e-10, "1.5e-10"},
		{5e-324, "5e-324"},
		{1e21, "1e+21"},
		{999999999999999900000, "999999999999999900000"},
		{123.456, "123.456"},
		{60.000000075, "60.000000075"},
		{-2.3757467518548018e-18, "-2.3757467518548018e-18"},
		{math.MaxFloat64, "1.7976931348623157e+308"},
	} {
		if got := string(appendJSONFloat([]byte("x"), tc.in)); got != "x"+tc.want {
			t.Errorf("%v: appended %s, want %s", tc.in, got[1:], tc.want)
		}
		if enc, _ := json.Marshal(tc.in); string(enc) != tc.want {
			t.Errorf("%v: the table's %s is not the encoder's %s", tc.in, tc.want, enc)
		}
	}
}

func TestRefusedFloatFallsBackToTheEncoder(t *testing.T) {
	// A coefficient the encoder cannot render is the encoder's error, as it
	// was before the body was appended by hand.
	body := trendResponse{Axis: "cache_kb", Backend: "fitted", Scenarios: 1, Series: []trendSeries{{
		Model: "mean", Coefficient: "c1",
		Points: []trendPoint{{X: 128, Scenario: "s", Value: math.Inf(-1)}},
	}}}
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, body)
	if _, err := json.Marshal(body); err == nil || rec.Code != http.StatusInternalServerError || rec.Body.String() != err.Error()+"\n" {
		t.Errorf("status %d, body %q; want 500 and the encoder's error %v", rec.Code, rec.Body, err)
	}
}
