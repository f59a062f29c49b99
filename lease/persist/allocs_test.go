package persist

import (
	"testing"
	"time"

	renaming "repro"
	"repro/lease"
)

// TestJournaledChurnAllocs pins the journal's allocation tax at zero: a
// one-item acquire+release cycle through a Store observer at fsync=never
// costs the same 9 allocations as the bare manager
// (lease.TestAcquireReleaseAllocs); the record is encoded into the store's
// reused buffer.
func TestJournaledChurnAllocs(t *testing.T) {
	store, err := Open(t.TempDir(), Options{Fsync: FsyncNever, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	nm, err := renaming.NewLevelArray(64)
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := lease.New(nm, lease.Config{TTL: time.Hour, SweepInterval: -1, Observer: store})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	if got := testing.AllocsPerRun(200, func() {
		l, err := acquire1(mgr, "allocs", 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := release1(mgr, l.Name, l.Token); err != nil {
			t.Fatal(err)
		}
	}); got != 9 {
		t.Fatalf("journaled one-item acquire+release allocates %v times per cycle, want 9", got)
	}
}
