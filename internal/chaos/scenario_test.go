package chaos

import (
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// buildRenamed compiles the real server binary once per test binary.
func buildRenamed(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	bin := filepath.Join(dir, "renamed")
	cmd := exec.Command("go", "build", "-o", bin, "repro/cmd/renamed")
	cmd.Env = os.Environ()
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build renamed: %v\n%s", err, out)
	}
	return bin
}

// TestScenarioHealthySmoke drives the WHOLE pipeline — real server
// process, proxy, sessions, checker, post-run audit — through a short
// fault-free run on each wire. Every invariant must hold trivially; a
// violation here is a harness bug, not a server bug.
func TestScenarioHealthySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a real server process")
	}
	sc := Scenario{
		Name:        "healthy-smoke",
		Description: "miniature fault-free run",
		Clients:     2, LeasesEach: 4, TTL: time.Second,
		Churn: 0.3,
	}
	binary := buildRenamed(t)
	for _, transport := range []string{"bin", "http"} {
		t.Run(transport, func(t *testing.T) {
			rep, err := Run(context.Background(), sc, Options{
				Seed:      1,
				Duration:  4 * time.Second,
				Transport: transport,
				Binary:    binary,
				WorkDir:   t.TempDir(),
			})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Pass {
				t.Fatalf("healthy run failed: %+v", rep.Violations)
			}
			if rep.Checker.Acquired < 8 {
				t.Fatalf("only %d leases acquired; sessions never got going", rep.Checker.Acquired)
			}
			if rep.Proxy.Chunks == 0 {
				t.Fatal("no traffic flowed through the proxy")
			}
			if rep.AuditTorn != 0 {
				t.Fatalf("graceful shutdown left %d torn journal bytes", rep.AuditTorn)
			}
			if rep.AuditToken < rep.Checker.MaxToken {
				t.Fatalf("audit watermark %d below client-observed max token %d", rep.AuditToken, rep.Checker.MaxToken)
			}
		})
	}
}

// TestScenarioLossySmoke pushes the pipeline through real wire faults:
// drops, delays, resets. Safety must hold even while liveness degrades.
func TestScenarioLossySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a real server process")
	}
	sc := Scenario{
		Name:        "lossy-smoke",
		Description: "miniature lossy run",
		Clients:     3, LeasesEach: 4, TTL: 1500 * time.Millisecond,
		Proxy: Faults{Drop: 0.03, Delay: 0.2, DelayMax: 20 * time.Millisecond, Reset: 0.004},
		Churn: 0.3,
	}
	rep, err := Run(context.Background(), sc, Options{
		Seed:     2,
		Duration: 6 * time.Second,
		Binary:   buildRenamed(t),
		WorkDir:  t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pass {
		t.Fatalf("lossy run reported violations: %+v", rep.Violations)
	}
	if rep.Proxy.Dropped+rep.Proxy.Delayed == 0 {
		t.Fatal("lossy scenario injected no faults at all")
	}
}

// TestScenarioResizeChurnSmoke drives a miniature elastic run: the
// namespace grows and shrinks (including below the live population)
// while sessions churn, and both resize invariants — capacity-bound
// grants and shrink quiescence — must come out clean.
func TestScenarioResizeChurnSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a real server process")
	}
	sc := Scenario{
		Name:        "resize-churn-smoke",
		Description: "miniature grow/shrink run",
		Clients:     2, LeasesEach: 4, TTL: time.Second,
		Churn:  0.5,
		Resize: &ResizePlan{Base: 16, Steps: []int{48, 8, 32}, Every: 500 * time.Millisecond},
	}
	rep, err := Run(context.Background(), sc, Options{
		Seed:     3,
		Duration: 5 * time.Second,
		Binary:   buildRenamed(t),
		WorkDir:  t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pass {
		t.Fatalf("resize run reported violations: %+v", rep.Violations)
	}
	if rep.Resizes < 3 {
		t.Fatalf("only %d resizes applied; the driver never got going", rep.Resizes)
	}
	if rep.Checker.Acquired < 8 {
		t.Fatalf("only %d leases acquired; sessions never got going", rep.Checker.Acquired)
	}
}

// TestScenarioRegistry pins the registry: the named adversaries (and
// the healthy baseline) exist and are self-consistent.
func TestScenarioRegistry(t *testing.T) {
	m := Scenarios()
	for _, name := range []string{"healthy", "lossy", "partition", "crash-storm", "skew", "dup-reorder", "resize-churn", "kitchen-sink"} {
		sc, ok := m[name]
		if !ok {
			t.Fatalf("scenario %q missing from registry", name)
		}
		if sc.Name != name {
			t.Fatalf("scenario %q registered under key %q", sc.Name, name)
		}
		if sc.Clients <= 0 || sc.LeasesEach <= 0 || sc.TTL <= 0 {
			t.Fatalf("scenario %q has degenerate shape: %+v", name, sc)
		}
	}
	if names := ScenarioNames(); len(names) != len(m) {
		t.Fatalf("ScenarioNames lists %d, registry has %d", len(names), len(m))
	}
}
