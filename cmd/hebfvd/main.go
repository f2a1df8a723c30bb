// Command hebfvd serves the hebfv evaluation plane over HTTP: clients
// keep their secret keys, onboard evaluation-only key sets once, and
// submit ciphertext add/mul/rotate operations against them (the
// HE-as-a-service deployment model — see package repro/hebfv/serve for
// the protocol and error contract).
//
// Usage:
//
//	hebfvd                          # listen on :8443, n=4096 (109-bit), dcrt-native
//	hebfvd -addr :9000 -sec 54      # other presets: 27 (N=1024), 54 (N=2048), 109 (N=4096)
//	hebfvd -backend pim             # evaluate on the modeled-PIM backend
//	hebfvd -toy                     # insecure N=64 parameters, for smoke tests
//	hebfvd -cache-mb 64             # tenant key-set cache budget (LRU past it)
//	hebfvd -window 2ms -max-batch 32            # request coalescing bounds
//	hebfvd -tenant-inflight 4 -total-inflight 64  # admission quotas (429 / 503)
//	hebfvd -pool-mb 32              # per-tenant decode-pool retention (0 = pooling off)
//
// The parameter preset must match the clients': a key-set blob exported
// at one ring degree does not restore at another (onboarding rejects it
// with a corrupt-blob error).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/hebfv"
	"repro/hebfv/serve"
)

// Connection timeouts. A client must finish its request headers within
// readHeaderTimeout, and an idle keep-alive connection is closed after
// idleTimeout, so a client trickling headers or parking connections
// cannot hold them forever. ReadTimeout and WriteTimeout stay unset:
// key-set bodies and responses stream and may legitimately take long.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer returns the daemon's HTTP server for addr and h.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
}

func main() {
	addr := flag.String("addr", ":8443", "listen address")
	sec := flag.Int("sec", 109, "security preset: 27, 54 or 109 bits")
	toy := flag.Bool("toy", false, "insecure N=64 toy parameters (overrides -sec)")
	backend := flag.String("backend", hebfv.DefaultBackend,
		fmt.Sprintf("evaluation backend %v", hebfv.Backends()))
	cacheMB := flag.Int64("cache-mb", 256, "tenant key-set cache budget in MiB (0 = unbounded)")
	window := flag.Duration("window", 2*time.Millisecond, "coalescing window per op batch")
	maxBatch := flag.Int("max-batch", 32, "flush an op batch at this size even inside the window")
	tenantInflight := flag.Int("tenant-inflight", 4, "per-tenant concurrent evaluation quota (429 past it)")
	totalInflight := flag.Int("total-inflight", 64, "global concurrent evaluation quota (503 past it)")
	poolMB := flag.Int64("pool-mb", 32, "per-tenant ciphertext decode-pool retention in MiB (0 = pooling off)")
	flag.Parse()

	ctxOpts := []hebfv.Option{
		hebfv.WithBackend(*backend),
		hebfv.WithPoolRetention(*poolMB << 20),
	}
	if *toy {
		ctxOpts = append(ctxOpts, hebfv.WithInsecureToyParameters())
	} else {
		ctxOpts = append(ctxOpts, hebfv.WithSecurityLevel(*sec))
	}

	srv := serve.NewServer(serve.Options{
		ContextOptions: ctxOpts,
		MaxCacheBytes:  *cacheMB << 20,
		Window:         *window,
		MaxBatch:       *maxBatch,
		TenantInflight: *tenantInflight,
		TotalInflight:  *totalInflight,
	})
	hs := newHTTPServer(*addr, srv.Handler())

	// Graceful shutdown: stop accepting, drain in-flight evaluations.
	done := make(chan struct{})
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		log.Printf("hebfvd: shutting down")
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		hs.Shutdown(ctx)
		close(done)
	}()

	log.Printf("hebfvd: serving on %s (backend=%s, quotas tenant=%d total=%d, window=%v)",
		*addr, *backend, *tenantInflight, *totalInflight, *window)
	if err := hs.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		log.Fatalf("hebfvd: %v", err)
	}
	<-done
}
