package service

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	renaming "repro"
	"repro/internal/telemetry"
	"repro/internal/wire"
	"repro/lease"
)

func newCore(t *testing.T, capacity int, tel *Telemetry) *Core {
	t.Helper()
	nm, err := renaming.Open("levelarray?n=64&seed=1")
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := lease.New(nm, lease.Config{TTL: time.Minute, SweepInterval: -1, MaxLive: capacity})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mgr.Shutdown() })
	return New(mgr, tel)
}

// acquireOne grants a single lease: the one-item case of AcquireBatch.
func acquireOne(t *testing.T, b *Binding, req *wire.AcquireBatchRequest) wire.Lease {
	t.Helper()
	ls, err := b.AcquireBatch(context.Background(), req)
	if err != nil || len(ls) != 1 {
		t.Fatalf("acquire one = %v, %v", ls, err)
	}
	return ls[0]
}

// TestBindingLifecycle drives every op through one binding and checks
// the verdicts and instrumentation line up with what the manager did.
func TestBindingLifecycle(t *testing.T) {
	reg := telemetry.NewRegistry()
	tel := NewTelemetry(reg)
	core := newCore(t, 64, tel)
	b := core.Bind("bin")
	ctx := context.Background()

	l := acquireOne(t, b, &wire.AcquireBatchRequest{Owner: "w", Count: 1, Meta: map[string]string{"k": "v"}})
	if l.Token == 0 || l.Owner != "w" || l.Meta["k"] != "v" {
		t.Fatalf("acquired lease = %+v", l)
	}
	ls, err := b.AcquireBatch(ctx, &wire.AcquireBatchRequest{Owner: "w", Count: 3})
	if err != nil || len(ls) != 3 {
		t.Fatalf("acquire batch = %v, %v", ls, err)
	}

	items := []lease.RenewItem{
		{Name: ls[0].Name, Token: ls[0].Token},
		{Name: -99, Token: 1}, // unknown name
	}
	verdicts, err := b.RenewBatch(ctx, 0, items, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(verdicts) != 2 || verdicts[0].Code != "" || verdicts[0].Lease.Name != ls[0].Name {
		t.Fatalf("renew verdicts = %+v", verdicts)
	}
	if verdicts[1].Code != wire.CodeUnknownName || verdicts[1].Msg == "" {
		t.Fatalf("verdict for unknown item = %+v", verdicts[1])
	}

	rel := []lease.ReleaseItem{
		{Name: ls[0].Name, Token: ls[0].Token},
		{Name: ls[1].Name, Token: 424242}, // wrong token
	}
	verdicts, err = b.ReleaseBatch(ctx, rel, verdicts)
	if err != nil {
		t.Fatal(err)
	}
	if verdicts[0].Code != "" || verdicts[1].Code != wire.CodeWrongToken {
		t.Fatalf("release verdicts = %+v", verdicts)
	}

	m := core.Manager().Metrics()
	if m.Acquired != 4 || m.Renewed != 1 || m.Released != 1 {
		t.Fatalf("stats = %+v", m)
	}

	// Instrumentation: the bin transport's counters moved, http's did not,
	// and the shared verdict series counted both batch ops.
	var buf strings.Builder
	reg.WritePrometheus(&buf)
	expo := buf.String()
	for _, want := range []string{
		`renamed_requests_total{transport="bin",op="acquire_batch"} 2`,
		`renamed_requests_total{transport="bin",op="renew_batch"} 1`,
		`renamed_requests_total{transport="http",op="renew_batch"} 0`,
		`renamed_batch_item_verdicts_total{op="renew_batch",code="ok"} 1`,
		`renamed_batch_item_verdicts_total{op="renew_batch",code="unknown_name"} 1`,
		`renamed_batch_item_verdicts_total{op="release_batch",code="wrong_token"} 1`,
		`renamed_request_duration_seconds_count{transport="bin",op="acquire_batch"} 2`,
	} {
		if !strings.Contains(expo, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// The retired single-item and stats ops left no children behind.
	for _, gone := range []string{`op="acquire"`, `op="renew"`, `op="release"`, `op="stats"`} {
		if strings.Contains(expo, gone) {
			t.Errorf("exposition still carries a %s series", gone)
		}
	}
	if problems := telemetry.Lint([]byte(expo)); len(problems) != 0 {
		t.Fatalf("lint problems: %v", problems)
	}
}

// TestBindingNilTelemetry: a Core without telemetry runs every op
// uninstrumented but identically.
func TestBindingNilTelemetry(t *testing.T) {
	core := newCore(t, 8, nil)
	b := core.Bind("http")
	l := acquireOne(t, b, &wire.AcquireBatchRequest{Owner: "x", Count: 1})
	verdicts, err := b.RenewBatch(context.Background(), 0,
		[]lease.RenewItem{{Name: l.Name, Token: l.Token}}, nil)
	if err != nil || len(verdicts) != 1 || verdicts[0].Code != "" {
		t.Fatalf("verdicts = %+v, %v", verdicts, err)
	}
	verdicts, err = b.ReleaseBatch(context.Background(),
		[]lease.ReleaseItem{{Name: l.Name, Token: l.Token}}, verdicts)
	if err != nil || len(verdicts) != 1 || verdicts[0].Code != "" {
		t.Fatalf("release verdicts = %+v, %v", verdicts, err)
	}
}

// TestCoreLeasesZerosTokens: fencing tokens are capabilities and must
// not leave the core on the read path, on any transport.
func TestCoreLeasesZerosTokens(t *testing.T) {
	core := newCore(t, 8, nil)
	b := core.Bind("http")
	acquireOne(t, b, &wire.AcquireBatchRequest{Owner: "w", Count: 1})
	ls := core.Leases()
	if len(ls) != 1 {
		t.Fatalf("leases = %+v", ls)
	}
	if ls[0].Token != 0 {
		t.Fatalf("token leaked through Leases: %+v", ls[0])
	}
}

// TestBindingCapacityError: a request-level refusal surfaces as the
// typed error, not a verdict.
func TestBindingCapacityError(t *testing.T) {
	core := newCore(t, 1, nil)
	b := core.Bind("bin")
	acquireOne(t, b, &wire.AcquireBatchRequest{Owner: "a", Count: 1})
	_, err := b.AcquireBatch(context.Background(), &wire.AcquireBatchRequest{Owner: "b", Count: 1})
	if !errors.Is(err, lease.ErrCapacity) {
		t.Fatalf("over-capacity acquire = %v, want ErrCapacity", err)
	}
}
