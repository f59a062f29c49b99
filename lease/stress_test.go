package lease

import (
	"errors"
	"sync"
	"testing"
	"time"

	renaming "repro"
)

// TestCapacityBoundaryStress hammers a MaxLive-capped manager with
// concurrent Acquire/Renew/Release/SweepOnce traffic pinned right at the
// capacity boundary (run it with -race). Holders take minute-long leases
// and verify exclusivity — no name may ever be assigned to two concurrent
// holders; abandoners take millisecond leases and walk away, so sweeps
// and capacity-pressure reclaims run constantly. Afterwards every
// invariant must have survived: the live count drains to zero, no namer
// slot leaked (the full capacity is re-acquirable), and no reclaim ever
// failed over the LevelArray.
func TestCapacityBoundaryStress(t *testing.T) {
	const (
		maxLive = 16
		workers = 8
		iters   = 300
	)
	nm, err := renaming.NewLevelArray(64)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(nm, Config{TTL: time.Minute, SweepInterval: -1, MaxLive: maxLive})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	var heldMu sync.Mutex
	held := make(map[int]uint64) // name -> token, for long-TTL holders only

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				switch (id + i) % 4 {
				case 0, 1: // hold exclusively, renew, release
					l, err := acquire1(m, "holder", time.Minute, nil)
					if errors.Is(err, ErrCapacity) {
						continue // legitimately full of live holders
					}
					if err != nil {
						t.Errorf("holder acquire: %v", err)
						return
					}
					heldMu.Lock()
					if tok, dup := held[l.Name]; dup {
						t.Errorf("name %d double-assigned (tokens %d and %d)", l.Name, tok, l.Token)
					}
					held[l.Name] = l.Token
					heldMu.Unlock()
					if _, err := renew1(m, l.Name, l.Token, time.Minute); err != nil {
						t.Errorf("renew held lease: %v", err)
					}
					// Drop the tracking entry before Release: the manager
					// can only re-assign the name after Release returns.
					heldMu.Lock()
					delete(held, l.Name)
					heldMu.Unlock()
					if err := release1(m, l.Name, l.Token); err != nil {
						t.Errorf("release held lease: %v", err)
					}
				case 2: // abandon: a crashed client whose lease must lapse
					l, err := acquire1(m, "abandoner", time.Millisecond, nil)
					if errors.Is(err, ErrCapacity) {
						continue
					}
					if err != nil {
						t.Errorf("abandoner acquire: %v", err)
						return
					}
					_ = l // never renewed, never released
				case 3: // reclaim pressure + read traffic
					m.SweepOnce()
					m.Leases()
				}
			}
		}(w)
	}
	wg.Wait()

	// Drain: abandoned leases expire within milliseconds; sweep until the
	// internal live count matches the holders the storm left behind.
	heldMu.Lock()
	remaining := int64(len(held))
	heldMu.Unlock()
	deadline := time.Now().Add(5 * time.Second)
	for m.live.Load() != remaining {
		if time.Now().After(deadline) {
			t.Fatalf("live count stuck at %d, want %d (leaked reservation or lost reclaim)",
				m.live.Load(), remaining)
		}
		m.SweepOnce()
		time.Sleep(time.Millisecond)
	}

	for name, tok := range held {
		if err := release1(m, name, tok); err != nil {
			t.Errorf("post-storm release of %d: %v", name, err)
		}
	}
	if n := m.live.Load(); n != 0 {
		t.Errorf("live count = %d after full drain, want 0", n)
	}
	if mt := m.Metrics(); mt.Live != 0 || mt.ReclaimFailed != 0 {
		t.Errorf("post-drain metrics = %+v, want Live 0 and no failed reclaims", mt)
	}
	// No namer slot may have leaked: the full capacity is re-acquirable.
	for i := 0; i < maxLive; i++ {
		if _, err := acquire1(m, "final", time.Minute, nil); err != nil {
			t.Fatalf("slot leak: re-acquire %d/%d: %v", i+1, maxLive, err)
		}
	}
}
