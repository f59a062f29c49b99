package persist

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	renaming "repro"
	"repro/lease"
)

// sameLeases compares a recovered table with the manager's own: name,
// token and owner exactly, metadata by size, expiry within slack (the
// table keeps deadlines on its own monotonic scale and Walk converts them
// back).
func sameLeases(got, want []lease.Lease, slack time.Duration) error {
	if len(got) != len(want) {
		return fmt.Errorf("recovered %d leases, the table held %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if d := g.ExpiresAt.Sub(w.ExpiresAt); g.Name != w.Name || g.Token != w.Token || g.Owner != w.Owner ||
			len(g.Meta) != len(w.Meta) || d < -slack || d > slack {
			return fmt.Errorf("lease %d: recovered %+v, the table held %+v", i, g, w)
		}
	}
	return nil
}

// TestFuzzySnapshotUnderChurn is the concurrent crash test of the
// compaction protocol: the real manager, four stripes, every record
// fsynced, four goroutines acquiring, renewing and releasing while a
// fifth compacts in a loop — so every snapshot is read from a table that
// moves under it and sealed against a journal that grows under it. Then
// the process "dies", and what recovery rebuilds from the directory must
// be the manager's table. One seed in three dies inside the last
// compaction instead, between the snapshot's rename and the removal of
// journal.wal.prev, so the rotated journal replays over a snapshot that
// already reflects all of it.
//
// Mutation check: with Manager.Walk skipping one stripe this fails on
// every seed (the recovered table is a quarter short).
func TestFuzzySnapshotUnderChurn(t *testing.T) {
	seeds := 30
	if testing.Short() {
		seeds = 9
	}
	forSeeds(t, seeds, 4, func(seed int) error { return fuzzyChurn(t.TempDir(), uint64(seed), seed%3 == 2) })
}

// forSeeds runs fn for every seed below n, a few at a time: the runs are
// independent and spend most of their time waiting on fsync.
func forSeeds(t *testing.T, n, atOnce int, fn func(seed int) error) {
	t.Helper()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < atOnce; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seed := int(next.Add(1)) - 1; seed < n && !t.Failed(); seed = int(next.Add(1)) - 1 {
				if err := fn(seed); err != nil {
					t.Errorf("seed %d: %v", seed, err)
				}
			}
		}()
	}
	wg.Wait()
}

func fuzzyChurn(dir string, seed uint64, dieInside bool) error {
	const workers, opsEach = 4, 120
	st, err := Open(dir, Options{Fsync: FsyncAlways, CompactEvery: -1})
	if err != nil {
		return err
	}
	defer st.Crash()
	nm, err := renaming.Open(fmt.Sprintf("levelarray?n=256&seed=%d", seed|1))
	if err != nil {
		return err
	}
	mgr, err := lease.New(nm, lease.Config{TTL: time.Hour, SweepInterval: -1, Shards: 4, Observer: st})
	if err != nil {
		return err
	}
	defer mgr.Shutdown()
	if _, _, err := mgr.Restore(st.State()); err != nil {
		return err
	}

	errs := make(chan error, workers+1)
	var compactions atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, uint64(w)))
			owner := fmt.Sprintf("w%d", w)
			var held []lease.Lease
			for i := 0; i < opsEach || compactions.Load() < 2 && len(errs) == 0; i++ {
				pick := rng.IntN(len(held) + 1)
				switch op := rng.IntN(4); {
				case op == 0 || len(held) == 0:
					var meta map[string]string
					if rng.IntN(4) == 0 {
						meta = map[string]string{"i": fmt.Sprint(i)}
					}
					got, err := mgr.AcquireBatch(context.Background(), owner, 1+rng.IntN(6), time.Hour, meta)
					if err != nil && !errors.Is(err, renaming.ErrNamespaceExhausted) {
						errs <- err
						return
					}
					held = append(held, got...)
				case op == 1 && pick < len(held):
					l := held[pick]
					if err := release1(mgr, l.Name, l.Token); err != nil {
						errs <- err
						return
					}
					held[pick] = held[len(held)-1]
					held = held[:len(held)-1]
				case pick < len(held):
					l := held[pick]
					if _, err := renew1(mgr, l.Name, l.Token, time.Duration(1+rng.IntN(59))*time.Minute); err != nil {
						errs <- err
						return
					}
				}
			}
		}()
	}

	// The compactor. kept is a second link to the active journal taken
	// before each compaction: the rotation renames that inode to
	// journal.wal.prev and the compaction's last act removes that name, so
	// afterwards kept is, byte for byte, the prev a crash just before the
	// removal would have left — never an empty one, since an empty journal
	// is not compacted. The churn runs on until two compactions are done.
	journal, kept := filepath.Join(dir, journalName), filepath.Join(dir, "kept")
	var stop atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		for !stop.Load() {
			if fi, err := os.Stat(journal); err == nil && fi.Size() == int64(len(journalMagic)) {
				continue
			}
			if dieInside {
				os.Remove(kept)
				if err := os.Link(journal, kept); err != nil {
					errs <- err
					return
				}
			}
			if err := st.Compact(); err != nil {
				errs <- err
				return
			}
			compactions.Add(1)
		}
	}()
	wg.Wait()
	stop.Store(true)
	<-done
	select {
	case err := <-errs:
		return err
	default:
	}
	if n := compactions.Load(); n < 2 {
		return fmt.Errorf("only %d compactions ran beside the churn", n)
	}

	want := mgr.Leases()
	if err := st.Crash(); err != nil {
		return err
	}
	if dieInside {
		if err := os.Rename(kept, filepath.Join(dir, journalPrevName)); err != nil {
			return err
		}
	}
	audit, err := ReadAudit(dir)
	if err != nil {
		return err
	}
	if len(audit.Regressions) != 0 {
		return fmt.Errorf("audit: %v", audit.Regressions)
	}
	if dieInside && audit.PrevRecords == 0 {
		return errors.New("the rebuilt crash window holds an empty journal.wal.prev")
	}
	re, err := Open(dir, Options{Fsync: FsyncAlways, CompactEvery: -1})
	if err != nil {
		return err
	}
	defer re.Crash()
	return sameLeases(re.State().Leases, want, time.Millisecond)
}

// TestCrashInTheLoop is the seeded single-goroutine crash driver: random
// operations on a journaled manager under a fake clock, with compactions,
// crashes and graceful shutdowns at random steps; after every reboot the
// restored manager's table must equal the dead one's, its fencing tokens
// must keep rising, and the directory must audit clean. Records are made
// durable before each crash (the test is about what compaction and
// recovery do to durable records, not about the fsync window).
func TestCrashInTheLoop(t *testing.T) {
	seeds, steps := 500, 200
	if testing.Short() {
		seeds = 50
	}
	forSeeds(t, seeds, 8, func(seed int) error { return crashLoop(t.TempDir(), uint64(seed), steps) })
}

func crashLoop(dir string, seed uint64, steps int) error {
	rng := rand.New(rand.NewPCG(seed, 0x63726173))
	clk := newFakeClock()
	var (
		st       *Store
		mgr      *lease.Manager
		held     []lease.Lease
		topToken uint64
	)
	boot := func() (restored int, err error) {
		if st, err = Open(dir, Options{Fsync: FsyncNever, FsyncEvery: time.Hour, CompactEvery: -1}); err != nil {
			return 0, err
		}
		nm, err := renaming.Open(fmt.Sprintf("levelarray?n=32&seed=%d", rng.Uint64()|1))
		if err != nil {
			return 0, err
		}
		if mgr, err = lease.New(nm, lease.Config{TTL: 10 * time.Second, SweepInterval: -1, Shards: 2, Observer: st, Now: clk.Now}); err != nil {
			return 0, err
		}
		restored, _, err = mgr.Restore(st.State())
		return restored, err
	}
	if _, err := boot(); err != nil {
		return err
	}
	defer func() { st.Crash() }()

	for step := 0; step < steps; step++ {
		pick := rng.IntN(len(held) + 1)
		switch op := rng.IntN(100); {
		case op < 30:
			got, err := mgr.AcquireBatch(context.Background(), "w", 1+rng.IntN(4), time.Duration(1+rng.IntN(20))*time.Second, nil)
			if err != nil && !errors.Is(err, renaming.ErrNamespaceExhausted) {
				return fmt.Errorf("step %d: %w", step, err)
			}
			held = append(held, got...)
			for _, l := range got {
				if l.Token <= topToken {
					return fmt.Errorf("step %d: token %d granted at or below %d, minted before the last reboot", step, l.Token, topToken)
				}
			}
			if len(got) > 0 {
				topToken = got[len(got)-1].Token
			}
		case op < 55 && pick < len(held):
			// A lapsed lease refuses these; both outcomes are journaled.
			renew1(mgr, held[pick].Name, held[pick].Token, time.Duration(1+rng.IntN(20))*time.Second)
		case op < 75 && pick < len(held):
			release1(mgr, held[pick].Name, held[pick].Token)
			held[pick] = held[len(held)-1]
			held = held[:len(held)-1]
		case op < 85:
			clk.Advance(time.Duration(rng.IntN(4000)) * time.Millisecond)
		case op < 91:
			mgr.SweepOnce()
		case op < 95:
			if err := st.Compact(); err != nil {
				return fmt.Errorf("step %d: Compact: %w", step, err)
			}
		default:
			want := mgr.Leases()
			mgr.Shutdown()
			graceful := op >= 99
			if graceful {
				if err := st.Close(); err != nil {
					return fmt.Errorf("step %d: Close: %w", step, err)
				}
			} else {
				st.seal()
				if err := st.Crash(); err != nil {
					return err
				}
			}
			audit, err := ReadAudit(dir)
			if err != nil {
				return fmt.Errorf("step %d: %w", step, err)
			}
			if len(audit.Regressions) != 0 || (graceful && audit.JournalRecords != 0) {
				return fmt.Errorf("step %d: audit found %v, %d journal records (graceful %v)", step, audit.Regressions, audit.JournalRecords, graceful)
			}
			if rng.IntN(2) == 0 {
				clk.Advance(time.Duration(rng.IntN(3000)) * time.Millisecond) // downtime
				alive := want[:0]
				for _, l := range want {
					if !clk.Now().After(l.ExpiresAt) {
						alive = append(alive, l)
					}
				}
				want = alive
			}
			restored, err := boot()
			if err != nil {
				return fmt.Errorf("step %d: reboot: %w", step, err)
			}
			if err := sameLeases(mgr.Leases(), want, 0); err != nil || restored != len(want) {
				return fmt.Errorf("step %d: restored %d (graceful %v): %v", step, restored, graceful, err)
			}
		}
	}
	return nil
}
