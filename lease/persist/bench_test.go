package persist

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	renaming "repro"
	"repro/lease"
)

// BenchmarkJournaledChurn measures the journal's tax on one
// acquire+release cycle per fsync policy, against the same manager with
// no observer. The acceptance budget lives on the disabled path (see
// lease's BenchmarkAcquireRelease — a nil observer is one branch); these
// rows price the enabled policies.
func BenchmarkJournaledChurn(b *testing.B) {
	const standing = 1 << 10
	run := func(b *testing.B, store *Store) {
		nm, err := renaming.NewLevelArray(standing + 8)
		if err != nil {
			b.Fatal(err)
		}
		cfg := lease.Config{TTL: time.Hour, SweepInterval: -1}
		if store != nil {
			cfg.Observer = store
		}
		mgr, err := lease.New(nm, cfg)
		if err != nil {
			b.Fatal(err)
		}
		defer mgr.Close()
		for i := 0; i < standing; i++ {
			if _, err := acquire1(mgr, "bench-standing", 0, nil); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			l, err := acquire1(mgr, "bench-churn", 0, nil)
			if err != nil {
				b.Fatal(err)
			}
			if err := release1(mgr, l.Name, l.Token); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("disabled", func(b *testing.B) { run(b, nil) })
	for _, p := range []Policy{FsyncNever, FsyncInterval, FsyncAlways} {
		b.Run(fmt.Sprintf("fsync=%s", p), func(b *testing.B) {
			store, err := Open(b.TempDir(), Options{Fsync: p, CompactEvery: -1})
			if err != nil {
				b.Fatal(err)
			}
			defer store.Close()
			run(b, store)
		})
	}
}

// BenchmarkRecovery measures Open (journal replay, torn-tail check,
// initial compaction) plus Manager.Restore for a journal-only state of
// `n` live leases — the cold-boot cost after a crash with no snapshot.
// Each iteration stages a pristine copy of the crashed journal, because
// Open itself compacts (a second Open of the same dir would load the
// snapshot and replay nothing).
func BenchmarkRecovery(b *testing.B) {
	const n = 1 << 12
	seedDir := b.TempDir()
	s, err := Open(seedDir, Options{Fsync: FsyncAlways, CompactEvery: -1})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		s.ObserveAcquire(lease.Lease{Name: i, Token: uint64(i + 1), Owner: "bench",
			ExpiresAt: time.Now().Add(time.Hour)})
	}
	if err := s.Crash(); err != nil {
		b.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(seedDir, journalName))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir, err := os.MkdirTemp(b.TempDir(), "boot")
		if err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, journalName), raw, 0o644); err != nil {
			b.Fatal(err)
		}
		nm, err := renaming.NewLevelArray(n)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()

		r, err := Open(dir, Options{Fsync: FsyncNever, CompactEvery: -1})
		if err != nil {
			b.Fatal(err)
		}
		mgr, err := lease.New(nm, lease.Config{TTL: time.Hour, SweepInterval: -1})
		if err != nil {
			b.Fatal(err)
		}
		restored, _, err := mgr.Restore(r.State())
		if err != nil {
			b.Fatal(err)
		}
		if restored != n {
			b.Fatalf("restored %d, want %d", restored, n)
		}

		b.StopTimer()
		mgr.Shutdown()
		if err := r.Crash(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}
