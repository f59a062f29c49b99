package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	renaming "repro"
	"repro/internal/wire"
	"repro/lease"
	"repro/leaseclient"
)

// newTestServer spins a full service stack (LevelArray namer, lease
// manager, HTTP handler) on an httptest listener.
func newTestServer(t *testing.T, capacity int, cfg lease.Config) *httptest.Server {
	t.Helper()
	nm, err := renaming.Open(fmt.Sprintf("levelarray?n=%d&seed=1", capacity))
	if err != nil {
		t.Fatal(err)
	}
	cfg.MaxLive = capacity // mirror run()'s production wiring
	mgr, err := lease.New(nm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(newServer(mgr, nil))
	t.Cleanup(func() {
		srv.Close()
		mgr.Close()
	})
	return srv
}

// postJSON posts body as JSON; a string body is sent as it is.
func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	if raw, ok := body.(string); ok {
		buf = []byte(raw)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}

// acquireBatch posts acquire_batch; the leases are nil unless the
// answer is 200, which must then grant exactly req.Count of them.
func acquireBatch(t *testing.T, base string, req wire.AcquireBatchRequest) (*http.Response, []wire.Lease) {
	t.Helper()
	resp, body := postJSON(t, base+"/v1/acquire_batch", req)
	if resp.StatusCode != http.StatusOK {
		return resp, nil
	}
	var granted wire.Leases
	if err := json.Unmarshal(body, &granted); err != nil || len(granted.Leases) != req.Count {
		t.Fatalf("acquire_batch count %d = %s (%v)", req.Count, body, err)
	}
	return resp, granted.Leases
}

// acquireOne leases one name the way HTTP offers it, acquire_batch with
// "count":1, and fails the test unless it is granted.
func acquireOne(t *testing.T, base string, req wire.AcquireBatchRequest) wire.Lease {
	t.Helper()
	req.Count = 1
	resp, ls := acquireBatch(t, base, req)
	if ls == nil {
		t.Fatalf("acquire_batch count 1 = %d", resp.StatusCode)
	}
	return ls[0]
}

// batchOne posts a one-item batch and returns that item's result: a
// refusal is its per-item code inside a 200, never a status.
func batchOne(t *testing.T, url string, req any) wire.BatchResult {
	t.Helper()
	resp, body := postJSON(t, url, req)
	var rs wire.BatchResults
	if err := json.Unmarshal(body, &rs); err != nil || resp.StatusCode != http.StatusOK || len(rs.Results) != 1 {
		t.Fatalf("POST %s = %d %s (%v), want 200 with one result", url, resp.StatusCode, body, err)
	}
	return rs.Results[0]
}

func renewReq(name int, token uint64) wire.RenewBatchRequest {
	return wire.RenewBatchRequest{Items: []wire.Item{{Name: name, Token: token}}}
}

func releaseReq(name int, token uint64) wire.ReleaseBatchRequest {
	return wire.ReleaseBatchRequest{Items: []wire.Item{{Name: name, Token: token}}}
}

func renewOne(t *testing.T, base string, name int, token uint64) wire.BatchResult {
	t.Helper()
	return batchOne(t, base+"/v1/renew_batch", renewReq(name, token))
}

func releaseOne(t *testing.T, base string, name int, token uint64) wire.BatchResult {
	t.Helper()
	return batchOne(t, base+"/v1/release_batch", releaseReq(name, token))
}

// listLeases reads GET /v1/leases.
func listLeases(t *testing.T, base string) []wire.Lease {
	t.Helper()
	resp, err := http.Get(base + "/v1/leases")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var listing wire.Leases
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	return listing.Leases
}

func TestAcquireRenewReleaseRoundTrip(t *testing.T) {
	srv := newTestServer(t, 64, lease.Config{TTL: time.Minute, SweepInterval: -1})

	l := acquireOne(t, srv.URL, wire.AcquireBatchRequest{Owner: "w1", Meta: map[string]string{"zone": "a"}})
	if l.Owner != "w1" || l.Meta["zone"] != "a" || l.ExpiresAtMs == 0 {
		t.Fatalf("acquire response incomplete: %+v", l)
	}

	renewed := renewOne(t, srv.URL, l.Name, l.Token)
	if renewed.Lease == nil {
		t.Fatalf("renew = %+v, want a lease", renewed)
	}
	if renewed.Lease.ExpiresAtMs < l.ExpiresAtMs {
		t.Fatalf("renewal moved expiry backwards: %d -> %d", l.ExpiresAtMs, renewed.Lease.ExpiresAtMs)
	}

	// The lease shows up in the listing.
	listing := listLeases(t, srv.URL)
	if len(listing) != 1 || listing[0].Name != l.Name {
		t.Fatalf("listing = %+v", listing)
	}
	// Fencing tokens are holder-only capabilities and must never appear in
	// the listing, or any client could hijack any lease.
	if listing[0].Token != 0 {
		t.Fatalf("listing leaked fencing token %d", listing[0].Token)
	}

	if r := releaseOne(t, srv.URL, l.Name, l.Token); r.Code != "" {
		t.Fatalf("release = %+v, want success", r)
	}
	// Releasing again is unknown_name: the lease is gone.
	if r := releaseOne(t, srv.URL, l.Name, l.Token); r.Code != wire.CodeUnknownName {
		t.Fatalf("double release = %+v, want %s", r, wire.CodeUnknownName)
	}
}

// TestErrorStatusMapping walks the three batch routes through every
// outcome one item can have. A refused item is a per-item code inside a
// 200; only a request that could not be processed at all — malformed
// body, no capacity — is a status with an {"error": ...} body. Rows run
// in order against one capacity-3 server; the sweeper is off so a lapsed
// lease stays in the table to answer "expired".
func TestErrorStatusMapping(t *testing.T) {
	srv := newTestServer(t, 3, lease.Config{TTL: time.Minute, SweepInterval: -1})
	acquire := func(ttlMs int64) wire.Lease {
		return acquireOne(t, srv.URL, wire.AcquireBatchRequest{Owner: "w", TTLms: ttlMs})
	}
	held, lapsedA, lapsedB := acquire(0), acquire(1), acquire(1)
	time.Sleep(20 * time.Millisecond) // both 1ms leases lapse

	const malformed = "{nope"
	one := wire.AcquireBatchRequest{Owner: "w", Count: 1}
	cases := []struct {
		name   string
		route  string
		body   any
		status int
		code   string // the one item's code on a 200 from renew/release
	}{
		{"acquire malformed body", "/v1/acquire_batch", malformed, http.StatusBadRequest, ""},
		{"renew ok", "/v1/renew_batch", renewReq(held.Name, held.Token), http.StatusOK, ""},
		{"renew unknown name", "/v1/renew_batch", renewReq(-1, 1), http.StatusOK, wire.CodeUnknownName},
		{"renew wrong token", "/v1/renew_batch", renewReq(held.Name, held.Token+99), http.StatusOK, wire.CodeWrongToken},
		{"renew expired", "/v1/renew_batch", renewReq(lapsedA.Name, lapsedA.Token), http.StatusOK, wire.CodeExpired},
		{"renew malformed body", "/v1/renew_batch", malformed, http.StatusBadRequest, ""},
		{"release unknown name", "/v1/release_batch", releaseReq(-1, 1), http.StatusOK, wire.CodeUnknownName},
		{"release wrong token", "/v1/release_batch", releaseReq(held.Name, held.Token+99), http.StatusOK, wire.CodeWrongToken},
		{"release expired", "/v1/release_batch", releaseReq(lapsedB.Name, lapsedB.Token), http.StatusOK, wire.CodeExpired},
		{"release malformed body", "/v1/release_batch", malformed, http.StatusBadRequest, ""},
		// Both lapsed leases were reclaimed by the refusals above: two slots free.
		{"acquire ok", "/v1/acquire_batch", one, http.StatusOK, ""},
		{"acquire ok to capacity", "/v1/acquire_batch", one, http.StatusOK, ""},
		{"acquire exhausted", "/v1/acquire_batch", one, http.StatusServiceUnavailable, ""},
		{"release ok", "/v1/release_batch", releaseReq(held.Name, held.Token), http.StatusOK, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postJSON(t, srv.URL+tc.route, tc.body)
			if resp.StatusCode != tc.status {
				t.Fatalf("status = %d, want %d (body %s)", resp.StatusCode, tc.status, body)
			}
			switch {
			case tc.status != http.StatusOK:
				var we wire.Error
				if err := json.Unmarshal(body, &we); err != nil || we.Error == "" {
					t.Fatalf("error body is not {\"error\": ...}: %s (%v)", body, err)
				}
			case tc.route == "/v1/acquire_batch":
				var ls wire.Leases
				if err := json.Unmarshal(body, &ls); err != nil || len(ls.Leases) != 1 || ls.Leases[0].Token == 0 {
					t.Fatalf("200 body is not one lease: %s (%v)", body, err)
				}
			default:
				var rs wire.BatchResults
				if err := json.Unmarshal(body, &rs); err != nil || len(rs.Results) != 1 {
					t.Fatalf("200 body is not one result: %s (%v)", body, err)
				}
				r := rs.Results[0]
				if r.Code != tc.code || (r.Code != "") != (r.Error != "") {
					t.Fatalf("result = %+v, want code %q with a message iff refused", r, tc.code)
				}
				if renewed := tc.route == "/v1/renew_batch" && tc.code == ""; renewed != (r.Lease != nil) {
					t.Fatalf("result = %+v, a lease must come back iff a renewal succeeded", r)
				}
			}
		})
	}
}

// TestExpiredLeaseReclaimed is the acceptance flow: a lease that is never
// renewed lapses, the sweeper returns its name to the pool, and a stale
// renewal is rejected.
func TestExpiredLeaseReclaimed(t *testing.T) {
	srv := newTestServer(t, 1, lease.Config{
		TTL:           20 * time.Millisecond,
		SweepInterval: 5 * time.Millisecond,
	})

	l := acquireOne(t, srv.URL, wire.AcquireBatchRequest{Owner: "crasher"})

	// Wait out the TTL plus sweeps. Capacity 1 is fully held by the
	// crashed client, so a fresh acquisition succeeding proves its lease
	// was reclaimed and the capacity slot freed.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, ls := acquireBatch(t, srv.URL, wire.AcquireBatchRequest{Owner: "fresh", Count: 1, TTLms: 60_000})
		if ls != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("expired lease never reclaimed; last acquire = %d", resp.StatusCode)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The crashed holder's token is dead: which refusal depends on whether
	// the sweeper or a re-acquisition of the name got there first.
	r := renewOne(t, srv.URL, l.Name, l.Token)
	if r.Code != wire.CodeUnknownName && r.Code != wire.CodeExpired && r.Code != wire.CodeWrongToken {
		t.Fatalf("stale renew = %+v, want unknown_name/expired/wrong_token", r)
	}
}

// TestHugeTTLCappedNotWrapped sends a ttl_ms that would overflow the
// nanosecond multiplication: the lease must come back capped at MaxTTL,
// not defaulted (negative wrap) or arbitrary.
func TestHugeTTLCappedNotWrapped(t *testing.T) {
	srv := newTestServer(t, 4, lease.Config{TTL: time.Second, SweepInterval: -1})
	l := acquireOne(t, srv.URL, wire.AcquireBatchRequest{
		Owner: "greedy", TTLms: 9_300_000_000_000_000, // ~295k years in ms
	})
	// MaxTTL defaults to 10×TTL = 10s; allow slack for wall-clock skew.
	capAt := time.Now().Add(11 * time.Second).UnixMilli()
	if l.ExpiresAtMs > capAt {
		t.Fatalf("expires_at_ms %d beyond the 10s MaxTTL cap (%d)", l.ExpiresAtMs, capAt)
	}
	if l.ExpiresAtMs < time.Now().Add(5*time.Second).UnixMilli() {
		t.Fatalf("expires_at_ms %d collapsed below the requested cap — overflow wrapped", l.ExpiresAtMs)
	}
}

// TestHealthAndMetrics: /healthz answers, and a request shows in the one
// request family and the lease counters.
func TestHealthAndMetrics(t *testing.T) {
	srv := newTestServer(t, 4, lease.Config{TTL: time.Minute, SweepInterval: -1})
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
	acquireOne(t, srv.URL, wire.AcquireBatchRequest{Owner: "w"})
	exposition := string(scrapeMetrics(t, srv.URL))
	for _, series := range []string{
		`renamed_requests_total{transport="http",op="acquire_batch"} 1`,
		`renamed_lease_acquired_total 1`,
		`renamed_lease_live 1`,
	} {
		if !strings.Contains(exposition, series+"\n") {
			t.Errorf("/metrics missing %q", series)
		}
	}
}

// TestServerFlagSurface pins renamed's flags to the server's twelve: the
// load generator's are gone and fail flag parsing instead of being
// silently ignored.
func TestServerFlagSurface(t *testing.T) {
	var usage bytes.Buffer
	if err := run([]string{"-h"}, &usage); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("run(-h) = %v, want flag.ErrHelp", err)
	}
	var got []string
	for _, line := range strings.Split(usage.String(), "\n") {
		if name, ok := strings.CutPrefix(line, "  -"); ok {
			got = append(got, strings.Fields(name)[0])
		}
	}
	want := []string{"addr", "capacity", "compact-every", "data-dir", "drain", "fsync",
		"listen-bin", "namer", "pprof", "slow-op", "sweep", "ttl"}
	if !slices.Equal(got, want) {
		t.Fatalf("flags = %v, want %v", got, want)
	}
	for _, gone := range []string{"-load", "-target", "-sessions"} {
		err := run([]string{gone, "1"}, io.Discard)
		if want := "flag provided but not defined: " + gone; err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("run(%s) = %v, want %q", gone, err, want)
		}
	}
}

// TestHTTPRouteSurface pins the HTTP surface to the op table: the three
// batch verbs bin:// also carries, plus the admin and observability
// routes. The single-item routes are gone, not aliased.
func TestHTTPRouteSurface(t *testing.T) {
	srv := newTestServer(t, 4, lease.Config{TTL: time.Minute, SweepInterval: -1})
	s := srv.Config.Handler.(*server)
	s.enablePprof()
	want := []string{
		"GET /debug/pprof/", "GET /debug/pprof/cmdline", "GET /debug/pprof/profile",
		"GET /debug/pprof/symbol", "GET /debug/pprof/trace",
		"GET /healthz", "GET /metrics", "GET /v1/leases",
		"POST /v1/acquire_batch", "POST /v1/release_batch", "POST /v1/renew_batch", "POST /v1/resize",
	}
	if got := slices.Sorted(slices.Values(s.patterns)); !slices.Equal(got, want) {
		t.Fatalf("routes = %q, want %q", got, want)
	}
	for _, gone := range []string{"/v1/acquire", "/v1/renew", "/v1/release"} {
		if resp, _ := postJSON(t, srv.URL+gone, wire.Item{}); resp.StatusCode != http.StatusNotFound {
			t.Errorf("POST %s = %d, want 404", gone, resp.StatusCode)
		}
	}
}

func TestBuildNamer(t *testing.T) {
	for _, algo := range []string{"levelarray", "rebatching", "adaptive", "fastadaptive", "uniform"} {
		nm, _, _, err := buildServerNamer(algo+"?n=16", 4096, false)
		if err != nil {
			t.Errorf("-namer %s?n=16: %v", algo, err)
			continue
		}
		if nm.Namespace() < 16 {
			t.Errorf("-namer %s?n=16: namespace %d < capacity", algo, nm.Namespace())
		}
	}
	if _, _, _, err := buildServerNamer("nope?n=16", 4096, false); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

// TestAcquireBatchEndpoint round-trips the batch-acquire endpoint: count
// distinct leases granted in one request, each individually releasable.
func TestAcquireBatchEndpoint(t *testing.T) {
	srv := newTestServer(t, 64, lease.Config{TTL: time.Minute, SweepInterval: -1})

	resp, granted := acquireBatch(t, srv.URL, wire.AcquireBatchRequest{
		Owner: "batcher", Count: 8, Meta: map[string]string{"job": "j1"},
	})
	if granted == nil {
		t.Fatalf("batch acquire status = %d", resp.StatusCode)
	}
	seen := map[int]bool{}
	for _, l := range granted {
		if seen[l.Name] {
			t.Fatalf("duplicate name %d in batch response", l.Name)
		}
		seen[l.Name] = true
		if l.Owner != "batcher" || l.Meta["job"] != "j1" || l.Token == 0 {
			t.Fatalf("batch lease incomplete: %+v", l)
		}
	}
	for _, l := range granted {
		if r := releaseOne(t, srv.URL, l.Name, l.Token); r.Code != "" {
			t.Fatalf("release batch lease %d = %+v", l.Name, r)
		}
	}
}

// TestAcquireBatchEndpointErrors covers the batch-specific error mapping:
// count <= 0 is 400, count beyond capacity is 503 with nothing granted.
func TestAcquireBatchEndpointErrors(t *testing.T) {
	srv := newTestServer(t, 4, lease.Config{TTL: time.Minute, SweepInterval: -1})

	resp, _ := postJSON(t, srv.URL+"/v1/acquire_batch", wire.AcquireBatchRequest{Owner: "w", Count: 0})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("count=0 batch = %d, want 400", resp.StatusCode)
	}

	resp, _ = postJSON(t, srv.URL+"/v1/acquire_batch", wire.AcquireBatchRequest{Owner: "w", Count: 5})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-capacity batch = %d, want 503", resp.StatusCode)
	}

	// All-or-nothing: the failed batch granted nothing, so a full-capacity
	// batch still fits.
	resp, body := postJSON(t, srv.URL+"/v1/acquire_batch", wire.AcquireBatchRequest{Owner: "w", Count: 4})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("full-capacity batch after failed batch = %d, body %s", resp.StatusCode, body)
	}
}

// TestBuildServerNamer covers the -namer DSN path and its MaxLive
// derivation rules.
func TestBuildServerNamer(t *testing.T) {
	// DSN over a long-lived namer: MaxLive defaults to its capacity.
	nm, maxLive, desc, err := buildServerNamer("levelarray?n=128", 4096, false)
	if err != nil {
		t.Fatal(err)
	}
	if maxLive != 128 || desc != "levelarray?n=128" {
		t.Fatalf("maxLive = %d desc = %q, want 128 and the DSN", maxLive, desc)
	}
	if nm.Namespace() < 128 {
		t.Fatalf("namespace %d < capacity", nm.Namespace())
	}

	// Explicit -capacity wins over the namer's own capacity.
	_, maxLive, _, err = buildServerNamer("levelarray?n=128", 32, true)
	if err != nil {
		t.Fatal(err)
	}
	if maxLive != 32 {
		t.Fatalf("maxLive = %d, want explicit 32", maxLive)
	}

	// One-shot namers have no analyzed capacity: uncapped unless -capacity.
	_, maxLive, _, err = buildServerNamer("rebatching?n=64&t0=6", 4096, false)
	if err != nil {
		t.Fatal(err)
	}
	if maxLive != 0 {
		t.Fatalf("maxLive = %d for one-shot DSN, want 0 (uncapped)", maxLive)
	}

	// A bad DSN fails loudly.
	if _, _, _, err := buildServerNamer("levelarray?n=128&eps=2", 0, false); err == nil {
		t.Fatal("DSN with inapplicable eps accepted")
	}
}

// TestRenewBatchEndpoint round-trips the batch heartbeat endpoint with a
// mix of outcomes in one request: renewals succeed per item, and each
// failure carries its machine-readable code so clients learn exactly
// which leases they lost.
func TestRenewBatchEndpoint(t *testing.T) {
	srv := newTestServer(t, 64, lease.Config{TTL: time.Minute, SweepInterval: -1})

	_, ls := acquireBatch(t, srv.URL, wire.AcquireBatchRequest{Owner: "hb", Count: 3, TTLms: 5_000})

	resp, body := postJSON(t, srv.URL+"/v1/renew_batch", wire.RenewBatchRequest{
		TTLms: 30_000,
		Items: []wire.Item{
			{Name: ls[0].Name, Token: ls[0].Token},
			{Name: ls[1].Name, Token: ls[1].Token + 99}, // hijacked token
			{Name: -1, Token: 1},                        // never granted
			{Name: ls[2].Name, Token: ls[2].Token},
		},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("renew_batch status = %d, body %s — per-item failures must not fail the request", resp.StatusCode, body)
	}
	var results wire.BatchResults
	if err := json.Unmarshal(body, &results); err != nil {
		t.Fatal(err)
	}
	if len(results.Results) != 4 {
		t.Fatalf("got %d results, want 4", len(results.Results))
	}
	for _, pair := range [][2]int{{0, 0}, {3, 2}} { // result index -> granted lease index
		r := results.Results[pair[0]]
		if r.Lease == nil || r.Code != "" {
			t.Fatalf("item %d = %+v, want renewed lease", pair[0], r)
		}
		if r.Lease.ExpiresAtMs <= ls[pair[1]].ExpiresAtMs {
			t.Fatalf("item %d renewal did not extend expiry: %d -> %d",
				pair[0], ls[pair[1]].ExpiresAtMs, r.Lease.ExpiresAtMs)
		}
	}
	if got := results.Results[1].Code; got != wire.CodeWrongToken {
		t.Fatalf("hijacked item code = %q, want %q", got, wire.CodeWrongToken)
	}
	if got := results.Results[2].Code; got != wire.CodeUnknownName {
		t.Fatalf("unknown item code = %q, want %q", got, wire.CodeUnknownName)
	}

	// Empty batch: processed, zero results.
	resp, body = postJSON(t, srv.URL+"/v1/renew_batch", wire.RenewBatchRequest{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("empty renew_batch = %d, body %s", resp.StatusCode, body)
	}
}

// TestReleaseBatchEndpoint covers the batched shutdown path: every held
// lease back in one request, already-gone names reported per item.
func TestReleaseBatchEndpoint(t *testing.T) {
	srv := newTestServer(t, 64, lease.Config{TTL: time.Minute, SweepInterval: -1})

	_, granted := acquireBatch(t, srv.URL, wire.AcquireBatchRequest{Owner: "bye", Count: 4})
	items := make([]wire.Item, 0, 5)
	for _, l := range granted {
		items = append(items, wire.Item{Name: l.Name, Token: l.Token})
	}
	items = append(items, wire.Item{Name: -1, Token: 9}) // never granted

	resp, body := postJSON(t, srv.URL+"/v1/release_batch", wire.ReleaseBatchRequest{Items: items})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("release_batch status = %d, body %s", resp.StatusCode, body)
	}
	var results wire.BatchResults
	if err := json.Unmarshal(body, &results); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if results.Results[i].Code != "" || results.Results[i].Error != "" {
			t.Fatalf("release item %d = %+v, want success", i, results.Results[i])
		}
	}
	if got := results.Results[4].Code; got != wire.CodeUnknownName {
		t.Fatalf("unknown release code = %q, want %q", got, wire.CodeUnknownName)
	}

	// Everything is back in the pool: the full capacity fits again.
	resp, _ = postJSON(t, srv.URL+"/v1/acquire_batch", wire.AcquireBatchRequest{Owner: "next", Count: 64})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("full-capacity batch after release_batch = %d", resp.StatusCode)
	}
}

// TestSessionAgainstRealServer is the full-stack integration check: a
// leaseclient.Session heartbeating against the real handler chain
// (HTTP mux -> lease.Manager -> LevelArray) with an aggressive sweeper
// hunting for expired leases. On-time renewals must keep every lease
// alive — OnLost firing means the client and server drifted.
func TestSessionAgainstRealServer(t *testing.T) {
	srv := newTestServer(t, 64, lease.Config{TTL: time.Minute, SweepInterval: 10 * time.Millisecond})

	var lost atomic.Int64
	s, err := leaseclient.NewSession(leaseclient.Config{
		Target: srv.URL,
		Owner:  "integration",
		TTL:    400 * time.Millisecond,
		OnLost: func(int, error) { lost.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	const k = 16
	if _, err := s.AcquireN(context.Background(), k); err != nil {
		t.Fatal(err)
	}

	// Outlive several TTLs under the sweeper's nose.
	deadline := time.Now().Add(10 * time.Second)
	for s.Stats().Renewed < 4*k {
		if time.Now().After(deadline) {
			t.Fatalf("session never reached 4 renewal rounds: %+v", s.Stats())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if lost.Load() != 0 {
		t.Fatalf("lost %d leases with on-time renewals", lost.Load())
	}
	if n := len(listLeases(t, srv.URL)); n != k {
		t.Fatalf("server lists %d live leases mid-session, want %d", n, k)
	}

	if err := s.Close(); err != nil {
		t.Fatalf("session close: %v", err)
	}
	if n := len(listLeases(t, srv.URL)); n != 0 {
		t.Fatalf("server still lists %d leases after session Close", n)
	}
}
