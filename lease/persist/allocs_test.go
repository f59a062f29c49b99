package persist

import (
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
	"time"

	renaming "repro"
	"repro/lease"
)

// TestJournaledChurnAllocs pins the journal's allocation tax at zero: a
// one-item acquire+release cycle through a Store observer at fsync=never
// costs the same 6 allocations as the bare manager
// (lease.TestAcquireReleaseAllocs); the record is encoded into the store's
// reused buffer. The count moves with the namer's: its Acquire costs one
// allocation, the probe environment holding its PRNG stream by value.
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
	defer mgr.Shutdown()
	if got := testing.AllocsPerRun(200, func() {
		l, err := acquire1(mgr, "allocs", 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := release1(mgr, l.Name, l.Token); err != nil {
			t.Fatal(err)
		}
	}); got != 6 {
		t.Fatalf("journaled one-item acquire+release allocates %v times per cycle, want 6", got)
	}
}

// TestDecodeAllocs pins what decoding a record costs: the strings it
// keeps, and the meta map. An acquire's owner is one allocation, or none
// when it repeats the previous acquire's; one meta entry adds the map's
// two (a one-byte key and value are the runtime's static strings). No
// allocation goes to an error label on the path that does not fail.
func TestDecodeAllocs(t *testing.T) {
	const owner = "owner-a"
	acquire := record{op: opAcquire, name: 5, token: 7, expiresAt: 100, owner: owner}
	withMeta := acquire
	withMeta.meta = map[string]string{"k": "v"}
	for _, c := range []struct {
		what      string
		r         record
		lastOwner string
		want      float64
	}{
		{"acquire", acquire, "", 1},
		{"acquire, owner as before", acquire, owner, 0},
		{"acquire with one meta entry", withMeta, "", 3},
		{"renew", record{op: opRenew, name: 5, token: 7, expiresAt: 200}, owner, 0},
	} {
		p := appendPayload(nil, c.r)
		if got := testing.AllocsPerRun(100, func() {
			if _, err := decodePayload(p, c.lastOwner); err != nil {
				t.Fatal(err)
			}
		}); got != c.want {
			t.Errorf("decoding %s allocates %v times, want %v", c.what, got, c.want)
		}
	}
}

// TestRecoveryAllocs pins the boot fold's allocations as a constant:
// Open and State over a journal of one owner's acquires allocate the same
// number of times at 4,096 records as at 8,192. A fold that grew a map,
// copied it out or decoded a string per record would add to the count
// with every record.
func TestRecoveryAllocs(t *testing.T) {
	want := uint64(56)
	if raceBuild() {
		want = 58 // the instrumentation moves two of Open's values to the heap
	}
	for _, n := range []int{1 << 12, 1 << 13} {
		if got := recoveryAllocs(t, n); got != want {
			t.Errorf("Open+State over %d acquire records allocates %d times, want %d", n, got, want)
		}
	}
}

// recoveryAllocs stages a journal of n acquires of scattered names by one
// owner and counts what Open and State allocate over it. The count is
// taken at GOMAXPROCS=1, after an unmeasured Open of the same journal, so
// the store's flush goroutine neither runs inside it nor needs a fresh g;
// it is the least of three, as a goroutine that runs while Open waits on
// an fsync can only add to it.
func recoveryAllocs(t *testing.T, n int) uint64 {
	t.Helper()
	buf := []byte(journalMagic)
	for i, name := range rand.New(rand.NewPCG(uint64(n), 1)).Perm(2 * n)[:n] {
		buf = appendRecord(buf, record{op: opAcquire, name: name, token: uint64(i + 1),
			expiresAt: at(100).UnixNano(), owner: "allocs"})
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	least := uint64(math.MaxUint64)
	for i := range 4 {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, journalName), buf, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, err := Open(dir, Options{Fsync: FsyncNever, CompactEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		st := s.State()
		runtime.ReadMemStats(&after)
		if len(st.Leases) != n {
			t.Fatalf("recovered %d leases, want %d", len(st.Leases), n)
		}
		if err := s.Crash(); err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			least = min(least, after.Mallocs-before.Mallocs)
		}
	}
	return least
}

// raceBuild reports whether the test binary was built with -race.
func raceBuild() bool {
	bi, ok := debug.ReadBuildInfo()
	return ok && slices.Contains(bi.Settings, debug.BuildSetting{Key: "-race", Value: "true"})
}
