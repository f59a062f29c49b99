package main

import (
	"bytes"
	"context"
	"flag"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	renaming "repro"
	"repro/internal/telemetry"
	"repro/internal/wire"
	"repro/lease"
	"repro/lease/persist"
	"repro/leaseclient"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// scrapeMetrics fetches /metrics and fails on transport or status
// problems.
func scrapeMetrics(t *testing.T, base string) []byte {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != telemetry.ContentType {
		t.Fatalf("/metrics content type = %q, want %q", ct, telemetry.ContentType)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestMetricsEndpointGoldenFamilies locks the server's metric SURFACE —
// every # HELP and # TYPE line, in exposition order — against a golden
// file. Values are traffic-dependent, names and types are a contract:
// a renamed or retyped series breaks every dashboard built on it.
// Regenerate with -update after a deliberate change.
func TestMetricsEndpointGoldenFamilies(t *testing.T) {
	// A store-backed server exposes the persistence series too; use one
	// so the golden covers the full surface.
	dir := t.TempDir()
	st, err := persist.Open(dir, persist.Options{Fsync: persist.FsyncAlways, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	nm, err := renaming.Open("levelarray?n=64&seed=1")
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := lease.New(nm, lease.Config{TTL: time.Minute, SweepInterval: -1, MaxLive: 64, Observer: st})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(newServer(mgr, st))
	defer func() {
		srv.Close()
		mgr.Shutdown()
		st.Close()
	}()

	body := scrapeMetrics(t, srv.URL)
	var families bytes.Buffer
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, "# ") {
			families.WriteString(line)
			families.WriteByte('\n')
		}
	}
	golden := filepath.Join("testdata", "metrics_families.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, families.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(families.Bytes(), want) {
		t.Fatalf("metric families drifted from golden.\n--- got ---\n%s\n--- want ---\n%s", families.Bytes(), want)
	}
}

// TestMetricsEndpointLintCleanUnderTraffic drives real traffic (every
// /v1 endpoint, including batch items that fail) and then lints the live
// exposition: cumulative buckets, _total suffixes, HELP/TYPE presence —
// the promlint subset — must hold on real data, not just golden fixtures.
func TestMetricsEndpointLintCleanUnderTraffic(t *testing.T) {
	srv := newTestServer(t, 64, lease.Config{TTL: time.Minute, SweepInterval: -1})

	l := acquireOne(t, srv.URL, wire.AcquireBatchRequest{Owner: "m"})
	renewOne(t, srv.URL, l.Name, l.Token)
	postJSON(t, srv.URL+"/v1/renew_batch", wire.RenewBatchRequest{Items: []wire.Item{
		{Name: l.Name, Token: l.Token},
		{Name: -1, Token: 9}, // unknown_name verdict
	}})
	postJSON(t, srv.URL+"/v1/release_batch", wire.ReleaseBatchRequest{Items: []wire.Item{
		{Name: l.Name, Token: l.Token},
	}})

	exposition := scrapeMetrics(t, srv.URL)
	if problems := telemetry.Lint(exposition); len(problems) != 0 {
		t.Fatalf("lint problems in live exposition: %v", problems)
	}
	for _, series := range []string{
		`renamed_requests_total{transport="http",op="acquire_batch"} 1`,
		// The single /v1/renew above is a renew_batch of one to the core:
		// it counts beside the batch item.
		`renamed_batch_item_verdicts_total{op="renew_batch",code="ok"} 2`,
		`renamed_requests_total{transport="http",op="renew_batch"} 2`,
		`renamed_batch_item_verdicts_total{op="renew_batch",code="unknown_name"} 1`,
		`renamed_batch_item_verdicts_total{op="release_batch",code="ok"} 1`,
		`renamed_lease_acquired_total 1`,
	} {
		if !strings.Contains(string(exposition), series) {
			t.Errorf("exposition missing %q", series)
		}
	}
	// The histogram for an op we exercised carries its observation.
	if !strings.Contains(string(exposition), `renamed_request_duration_seconds_count{transport="http",op="acquire_batch"} 1`) {
		t.Errorf("acquire latency histogram did not record the request")
	}
}

// syncBuffer is a concurrency-safe bytes.Buffer for capturing slog
// output written from handler goroutines.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// ridRecorder captures the request IDs a leaseclient session sends and
// verifies the server echoes each one back on the response.
type ridRecorder struct {
	next http.RoundTripper

	mu     sync.Mutex
	sent   []string
	echoed int
}

func (rt *ridRecorder) RoundTrip(req *http.Request) (*http.Response, error) {
	rid := req.Header.Get(wire.HeaderRequestID)
	resp, err := rt.next.RoundTrip(req)
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.sent = append(rt.sent, rid)
	if err == nil && resp.Header.Get(wire.HeaderRequestID) == rid && rid != "" {
		rt.echoed++
	}
	return resp, err
}

// TestRequestIDRoundTrip is the tracing contract end to end: the
// leaseclient stamps every request with a fresh X-Request-Id, the server
// echoes it on the response, and the server's slow-operation log line
// carries the SAME id — so one slow heartbeat can be joined across the
// client and server logs.
func TestRequestIDRoundTrip(t *testing.T) {
	nm, err := renaming.Open("levelarray?n=64&seed=1")
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := lease.New(nm, lease.Config{TTL: time.Minute, SweepInterval: -1, MaxLive: 64})
	if err != nil {
		t.Fatal(err)
	}
	handler := newServer(mgr, nil)
	// Threshold 1ns: every operation is "slow", so every request logs.
	var logBuf syncBuffer
	handler.slowThreshold = time.Nanosecond
	handler.slowLog = slog.New(slog.NewTextHandler(&logBuf, nil))
	srv := httptest.NewServer(handler)
	defer func() {
		srv.Close()
		mgr.Shutdown()
	}()

	rec := &ridRecorder{next: http.DefaultTransport}
	sess, err := leaseclient.NewSession(leaseclient.Config{
		Target:     srv.URL,
		Owner:      "tracer",
		TTL:        time.Minute,
		HTTPClient: &http.Client{Transport: rec, Timeout: 5 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}

	rec.mu.Lock()
	sent, echoed := append([]string(nil), rec.sent...), rec.echoed
	rec.mu.Unlock()
	if len(sent) == 0 {
		t.Fatal("session sent no requests")
	}
	seen := map[string]bool{}
	for i, rid := range sent {
		if len(rid) != 16 {
			t.Fatalf("request %d carried id %q, want 16 hex digits", i, rid)
		}
		if seen[rid] {
			t.Fatalf("request id %q reused", rid)
		}
		seen[rid] = true
	}
	if echoed != len(sent) {
		t.Fatalf("server echoed %d of %d request ids", echoed, len(sent))
	}
	logs := logBuf.String()
	for _, rid := range sent {
		if !strings.Contains(logs, "request_id="+rid) {
			t.Fatalf("server slow-op log missing request_id=%s:\n%s", rid, logs)
		}
	}
	if !strings.Contains(logs, "msg=\"slow operation\"") {
		t.Fatalf("slow-op log line malformed:\n%s", logs)
	}
}

// TestServerMintsRequestID: a bare caller (curl, no header) still gets
// a well-formed request id echoed back — minted server-side so the
// slow-op log never carries an empty id.
func TestServerMintsRequestID(t *testing.T) {
	srv := newTestServer(t, 64, lease.Config{TTL: time.Minute, SweepInterval: -1})
	resp, _ := acquireBatch(t, srv.URL, wire.AcquireBatchRequest{Owner: "bare", Count: 1})
	rid := resp.Header.Get(wire.HeaderRequestID)
	if len(rid) != 16 {
		t.Fatalf("minted request id = %q, want 16 hex digits", rid)
	}
	for _, c := range rid {
		if !strings.ContainsRune("0123456789abcdef", c) {
			t.Fatalf("minted request id %q is not lowercase hex", rid)
		}
	}
}
