package main

import (
	"bytes"
	"context"
	"errors"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	renaming "repro"
	"repro/internal/service"
	"repro/internal/wire"
	"repro/lease"
	"repro/leaseclient"
)

// newGracefulStack builds the server's pieces (namer, manager, HTTP
// server, listener) without going through flag parsing.
func newGracefulStack(t *testing.T, handler http.Handler) (*http.Server, net.Listener, *lease.Manager) {
	t.Helper()
	nm, err := renaming.Open("levelarray?n=64&seed=1")
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := lease.New(nm, lease.Config{TTL: time.Minute, SweepInterval: -1, MaxLive: 64})
	if err != nil {
		t.Fatal(err)
	}
	if handler == nil {
		handler = newServer(mgr, nil)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return &http.Server{Handler: handler}, ln, mgr
}

// TestServeGracefulShutdown: cancelling the signal context must drain the
// server cleanly — serveGraceful returns nil, the listener stops
// accepting, and the manager is shut down, refusing new operations.
func TestServeGracefulShutdown(t *testing.T) {
	srv, ln, mgr := newGracefulStack(t, nil)
	base := "http://" + ln.Addr().String()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out bytes.Buffer
	done := make(chan error, 1)
	go func() { done <- serveGraceful(ctx, srv, ln, mgr, nil, 2*time.Second, &out) }()

	// Prove the server is up and holding a lease before the shutdown.
	acquireOne(t, base, wire.AcquireBatchRequest{Owner: "w"})

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serveGraceful = %v, want clean shutdown", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("serveGraceful did not return after context cancellation")
	}
	if _, err := mgr.AcquireBatch(context.Background(), "late", 1, 0, nil); !errors.Is(err, lease.ErrClosed) {
		t.Fatalf("manager not closed after shutdown: %v", err)
	}
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Fatal("listener still accepting connections after shutdown")
	}
	if !strings.Contains(out.String(), "shutdown complete") {
		t.Fatalf("shutdown log incomplete: %q", out.String())
	}
}

// TestShutdownSnapshotSeesBinaryWire: a server whose renewals all rode
// bin:// must log their p99 in the shutdown snapshot, per transport.
func TestShutdownSnapshotSeesBinaryWire(t *testing.T) {
	srv, ln, mgr := newGracefulStack(t, nil)
	h := srv.Handler.(*server)
	h.binSrv = service.NewBinServer(h.core, service.BinConfig{})
	lnBin, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go h.binSrv.Serve(lnBin)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out bytes.Buffer
	done := make(chan error, 1)
	go func() { done <- serveGraceful(ctx, srv, ln, mgr, nil, 2*time.Second, &out) }()

	tr, err := leaseclient.NewTransport("bin://" + lnBin.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	got, err := tr.AcquireBatch(ctx, &wire.AcquireBatchRequest{Owner: "w", Count: 1})
	if err != nil {
		t.Fatal(err)
	}
	l := got.Leases[0]
	res, err := tr.RenewBatch(ctx, &wire.RenewBatchRequest{Items: []wire.Item{{Name: l.Name, Token: l.Token}}})
	if err != nil || res.Results[0].Code != "" {
		t.Fatalf("renew over bin:// = %+v, %v", res, err)
	}

	cancel()
	if err := <-done; err != nil {
		t.Fatalf("serveGraceful = %v, want clean shutdown", err)
	}
	fields := map[string]string{} // the snapshot line's key=value attrs
	for _, kv := range strings.Fields(out.String()) {
		k, v, _ := strings.Cut(kv, "=")
		fields[k] = v
	}
	if v, ok := fields["renew_p99_us_bin"]; !ok || v == "0" {
		t.Errorf("renew_p99_us_bin = %q, want non-zero after a bin:// renewal", v)
	}
	if v := fields["renew_p99_us_http"]; v != "0" {
		t.Errorf("renew_p99_us_http = %q, want 0 with no HTTP renewal", v)
	}
}

// TestServeGracefulDrainTimeout: a request still in flight when the drain
// window lapses must be cut, not waited on forever; serveGraceful reports
// the drain failure and still closes the manager.
func TestServeGracefulDrainTimeout(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	hung := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		select {
		case <-release:
		case <-r.Context().Done():
		}
	})
	srv, ln, mgr := newGracefulStack(t, hung)
	base := "http://" + ln.Addr().String()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out bytes.Buffer
	done := make(chan error, 1)
	go func() { done <- serveGraceful(ctx, srv, ln, mgr, nil, 50*time.Millisecond, &out) }()

	go http.Get(base + "/hang")
	<-entered // the request is in flight
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("serveGraceful = nil, want drain-timeout error with a hung request")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("serveGraceful hung past its drain timeout")
	}
	if _, err := mgr.AcquireBatch(context.Background(), "late", 1, 0, nil); !errors.Is(err, lease.ErrClosed) {
		t.Fatalf("manager not closed after forced shutdown: %v", err)
	}
}
