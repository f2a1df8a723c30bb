package main

import (
	"net/http"
	"testing"
)

func TestNewHTTPServerTimeouts(t *testing.T) {
	h := http.NewServeMux()
	hs := newHTTPServer(":0", h)
	if hs.Addr != ":0" || hs.Handler != h {
		t.Fatalf("server addr/handler = %q/%v, want :0/the given mux", hs.Addr, hs.Handler)
	}
	if hs.ReadHeaderTimeout != readHeaderTimeout || hs.ReadHeaderTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout = %v, want %v", hs.ReadHeaderTimeout, readHeaderTimeout)
	}
	if hs.IdleTimeout != idleTimeout || hs.IdleTimeout <= 0 {
		t.Errorf("IdleTimeout = %v, want %v", hs.IdleTimeout, idleTimeout)
	}
	// Key-set bodies stream: no whole-request or whole-response deadline.
	if hs.ReadTimeout != 0 || hs.WriteTimeout != 0 {
		t.Errorf("ReadTimeout/WriteTimeout = %v/%v, want unset", hs.ReadTimeout, hs.WriteTimeout)
	}
}
