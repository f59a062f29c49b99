package main

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	renaming "repro"
	"repro/internal/wire"
	"repro/lease"
	"repro/lease/persist"
	"repro/leaseclient"
)

// bootPersistentServer assembles the server the way run() does with
// -capacity 64 -data-dir: store → manager(observer) → restoreLeases →
// HTTP handler, served on the caller's listener so a "restarted" server
// can reuse the address.
func bootPersistentServer(t *testing.T, dir string, ln net.Listener) (*lease.Manager, *persist.Store, *http.Server) {
	t.Helper()
	st, err := persist.Open(dir, persist.Options{Fsync: persist.FsyncAlways, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	nm, err := renaming.NewLevelArray(64, renaming.WithCounting())
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := lease.New(nm, lease.Config{TTL: 5 * time.Second, SweepInterval: -1, MaxLive: 64, Observer: st})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := restoreLeases(mgr, nm, st); err != nil {
		t.Fatal(err)
	}
	h := newServer(mgr, st)
	srv := &http.Server{Handler: h}
	go srv.Serve(ln)
	return mgr, st, srv
}

// TestServerRestartSessionsSurvive is the end-to-end crash acceptance
// test: a heartbeating leaseclient session rides through a hard server
// "crash" (listener cut, manager abandoned un-Closed, store crashed with
// no snapshot) and restart from the same -data-dir on the same address —
// with ZERO OnLost callbacks, the restored tokens still renewing, and
// post-restart tokens strictly above every pre-crash one.
func TestServerRestartSessionsSurvive(t *testing.T) {
	dir := t.TempDir()
	ln1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln1.Addr().String()
	_, st1, srv1 := bootPersistentServer(t, dir, ln1)

	var lost atomic.Int64
	sess, err := leaseclient.NewSession(leaseclient.Config{
		Target: "http://" + addr,
		Owner:  "restart-test",
		TTL:    5 * time.Second,
		OnLost: func(name int, err error) {
			lost.Add(1)
			t.Logf("OnLost(%d): %v", name, err)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	held, err := sess.AcquireN(context.Background(), 10)
	if err != nil {
		t.Fatal(err)
	}
	var preCrashMax uint64
	for _, l := range held {
		if l.Token > preCrashMax {
			preCrashMax = l.Token
		}
	}

	// Hard crash: cut every connection and the listener, abandon the
	// manager WITHOUT Close (no drain, no releases), crash the store
	// (no flush, no snapshot — the journal alone survives).
	srv1.Close()
	if err := st1.Crash(); err != nil {
		t.Fatal(err)
	}

	// Restart on the same address from the same directory.
	var ln2 net.Listener
	for i := 0; ; i++ {
		ln2, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if i > 50 {
			t.Fatalf("could not rebind %s: %v", addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	mgr2, st2, srv2 := bootPersistentServer(t, dir, ln2)
	defer func() {
		srv2.Close()
		mgr2.Shutdown()
		st2.Close()
	}()

	if got := mgr2.Metrics().Live; got != 10 {
		t.Fatalf("restarted server restored %d live leases, want 10", got)
	}

	// The session must resume renewing the restored tokens: watch its
	// Renewed counter climb past a full post-restart heartbeat round.
	base := sess.Stats().Renewed
	deadline := time.Now().Add(15 * time.Second)
	for sess.Stats().Renewed < base+10 {
		if time.Now().After(deadline) {
			t.Fatalf("session renewed %d leases after restart, want >= %d more", sess.Stats().Renewed-base, 10)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if got := lost.Load(); got != 0 {
		t.Fatalf("%d OnLost callbacks across the restart, want 0", got)
	}
	if got := len(sess.Leases()); got != 10 {
		t.Fatalf("session holds %d leases after restart, want 10", got)
	}

	// Fencing monotonicity across the crash: a fresh post-restart lease
	// outranks every pre-crash token.
	fresh, err := sess.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Token <= preCrashMax {
		t.Fatalf("post-restart token %d not above pre-crash watermark %d", fresh.Token, preCrashMax)
	}
}

// TestServerRestartAfterGrow: resize is not journaled, so a server grown
// online reboots at its original capacity with leases above that
// namespace. Boot must widen the namer to re-seat them: every lease
// restored and renewable, the cap still the flags' (the restored
// population exceeds it by design), and once the operator re-applies the
// resize a fresh token lands above the pre-crash watermark.
func TestServerRestartAfterGrow(t *testing.T) {
	dir := t.TempDir()
	ln1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	mgr1, st1, srv1 := bootPersistentServer(t, dir, ln1)
	url := "http://" + ln1.Addr().String()
	bootNamespace := mgr1.Namer().Namespace()

	if resp, body := postJSON(t, url+"/v1/resize", wire.ResizeRequest{Capacity: 1024}); resp.StatusCode != http.StatusOK {
		t.Fatalf("resize = %d, body %s", resp.StatusCode, body)
	}
	resp, granted := acquireBatch(t, url, wire.AcquireBatchRequest{Owner: "grown", Count: 600, TTLms: 60_000})
	if granted == nil {
		t.Fatalf("acquire_batch = %d", resp.StatusCode)
	}
	var top int
	var watermark uint64
	items := make([]wire.Item, len(granted))
	for i, l := range granted {
		top, watermark = max(top, l.Name), max(watermark, l.Token)
		items[i] = wire.Item{Name: l.Name, Token: l.Token}
	}
	if top < bootNamespace {
		t.Fatalf("highest of 600 names is %d, inside the boot namespace %d: nothing to widen", top, bootNamespace)
	}

	srv1.Close()
	if err := st1.Crash(); err != nil {
		t.Fatal(err)
	}
	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	mgr2, st2, srv2 := bootPersistentServer(t, dir, ln2)
	defer func() {
		srv2.Close()
		mgr2.Shutdown()
		st2.Close()
	}()
	url = "http://" + ln2.Addr().String()

	if got := mgr2.Metrics().Live; got != 600 {
		t.Fatalf("rebooted server restored %d live leases, want 600", got)
	}
	if got := mgr2.MaxLive(); got != 64 {
		t.Fatalf("rebooted cap = %d, want the boot capacity 64", got)
	}
	resp, body := postJSON(t, url+"/v1/renew_batch", wire.RenewBatchRequest{TTLms: 60_000, Items: items})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("renew_batch = %d, body %s", resp.StatusCode, body)
	}
	var renewed wire.BatchResults
	if err := json.Unmarshal(body, &renewed); err != nil {
		t.Fatal(err)
	}
	for i, r := range renewed.Results {
		if r.Code != "" {
			t.Fatalf("restored lease %d not renewable: %s (%s)", items[i].Name, r.Code, r.Error)
		}
	}

	if resp, body := postJSON(t, url+"/v1/resize", wire.ResizeRequest{Capacity: 1024}); resp.StatusCode != http.StatusOK {
		t.Fatalf("re-applied resize = %d, body %s", resp.StatusCode, body)
	}
	fresh := acquireOne(t, url, wire.AcquireBatchRequest{Owner: "fresh"})
	if fresh.Token <= watermark {
		t.Fatalf("post-restart token %d not above pre-crash watermark %d", fresh.Token, watermark)
	}
}

// TestServerRefusesFarRecoveredName: the highest recovered name is read
// off disk, so one journal record at name 1<<40 must not make boot double
// the namer until memory runs out. Widening stops at maxWiden × -capacity
// and boot fails naming the record and the -capacity that would hold it.
func TestServerRefusesFarRecoveredName(t *testing.T) {
	dir := t.TempDir()
	st, err := persist.Open(dir, persist.Options{Fsync: persist.FsyncAlways, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	st.ObserveAcquire(lease.Lease{Name: 1 << 40, Token: 1, Owner: "far", ExpiresAt: time.Now().Add(time.Hour)})
	if err := st.Crash(); err != nil {
		t.Fatal(err)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err = run([]string{"-addr", "127.0.0.1:0", "-capacity", "16", "-data-dir", dir}, io.Discard)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "recovered name 1099511627776") || !strings.Contains(err.Error(), "-capacity 549755813889") {
		t.Fatalf("run = %v, want a refusal naming the name and the -capacity that covers it", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 64<<20 {
		t.Fatalf("refused boot allocated %d MB, want < 64", grew>>20)
	}
}
