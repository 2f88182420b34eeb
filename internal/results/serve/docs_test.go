package serve

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// docPath locates the API contract relative to this package.
var docPath = filepath.Join("..", "..", "..", "docs", "resultsd-api.md")

// verifyRE matches the machine-checkable example markers in the API
// document: <!-- verify: GET /predict?... status=200 --> followed by a
// fenced JSON block holding the exact response body.
var verifyRE = regexp.MustCompile(`^<!-- verify: (GET|POST) (\S+) status=(\d+) -->$`)

// docExample is one verified request/response pair from the document.
type docExample struct {
	line   int
	method string
	target string
	status int
	body   string
}

// parseDocExamples extracts every verify marker and its JSON fence.
func parseDocExamples(t testing.TB) []docExample {
	t.Helper()
	data, err := os.ReadFile(docPath)
	if err != nil {
		t.Fatalf("API document: %v", err)
	}
	lines := strings.Split(string(data), "\n")
	var out []docExample
	for i := 0; i < len(lines); i++ {
		m := verifyRE.FindStringSubmatch(lines[i])
		if m == nil {
			continue
		}
		status, _ := strconv.Atoi(m[3])
		ex := docExample{line: i + 1, method: m[1], target: m[2], status: status}
		if i+1 >= len(lines) || lines[i+1] != "```json" {
			t.Fatalf("%s:%d: verify marker not followed by a ```json fence", docPath, ex.line)
		}
		j := i + 2
		for ; j < len(lines) && lines[j] != "```"; j++ {
			ex.body += lines[j] + "\n"
		}
		if j == len(lines) {
			t.Fatalf("%s:%d: unterminated ```json fence", docPath, ex.line)
		}
		i = j
		out = append(out, ex)
	}
	if len(out) == 0 {
		t.Fatalf("%s: no verify markers found", docPath)
	}
	return out
}

// TestDocExamplesMatchLiveService replays every example in
// docs/resultsd-api.md against a live handler and requires the exact
// documented status and body bytes — the written contract cannot drift
// from the implementation without failing this test.
func TestDocExamplesMatchLiveService(t *testing.T) {
	s, _ := newTestService(t, 0)
	h := s.Handler()
	for _, ex := range parseDocExamples(t) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(ex.method, ex.target, nil))
		if rec.Code != ex.status {
			t.Errorf("%s:%d: %s %s: status %d, want %d", docPath, ex.line, ex.method, ex.target, rec.Code, ex.status)
			continue
		}
		if got := rec.Body.String(); got != ex.body {
			t.Errorf("%s:%d: %s %s: body drifted from the document\n got: %s\nwant: %s",
				docPath, ex.line, ex.method, ex.target, got, ex.body)
		}
	}
}

// TestDocCoversEveryEndpoint requires the API document to mention every
// route the handler actually serves, and an example for every error
// status the handlers can produce.
func TestDocCoversEveryEndpoint(t *testing.T) {
	data, err := os.ReadFile(docPath)
	if err != nil {
		t.Fatalf("API document: %v", err)
	}
	doc := string(data)
	for _, ep := range []string{"/", "/healthz", "/metrics", "/scenarios", "/scenario", "/predict", "/trend"} {
		if !strings.Contains(doc, "`GET "+ep+"`") {
			t.Errorf("%s: endpoint %q not documented (want a `GET %s` entry)", docPath, ep, ep)
		}
	}
	examples := parseDocExamples(t)
	statuses := map[int]bool{}
	for _, ex := range examples {
		statuses[ex.status] = true
	}
	for _, want := range []int{http.StatusOK, http.StatusBadRequest, http.StatusNotFound,
		http.StatusMethodNotAllowed, http.StatusUnprocessableEntity} {
		if !statuses[want] {
			t.Errorf("%s: no verified example with status %d", docPath, want)
		}
	}
}
