package main

import (
	"bufio"
	"fmt"
	"net"
	"net/http"
	"strings"
	"testing"
)

// status sends one raw GET with an extra header of n bytes to addr and
// returns the reply's status.
func status(t *testing.T, addr string, n int) int {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := fmt.Fprintf(conn, "GET /healthz HTTP/1.1\r\nHost: resultsd\r\nX-Pad: %s\r\nConnection: close\r\n\r\n", strings.Repeat("x", n)); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

func TestServerLimitsHeaderSize(t *testing.T) {
	srv := newServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		<-served
	}()
	if got := status(t, ln.Addr().String(), 1<<10); got != http.StatusOK {
		t.Errorf("1 KiB header: status %d, want 200", got)
	}
	// net/http reads 4 KiB past MaxHeaderBytes before it gives up.
	if got := status(t, ln.Addr().String(), maxHeaderBytes+8<<10); got != http.StatusRequestHeaderFieldsTooLarge {
		t.Errorf("%d-byte header: status %d, want 431", maxHeaderBytes+8<<10, got)
	}
}
