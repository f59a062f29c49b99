package persist

import (
	"fmt"
	"maps"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"repro/lease"
)

// refFold is the record fold as a map from name to lease, applied one
// record at a time: the reference TestFoldMatchesReference holds fold to,
// and the mutable table behind tableStore and writeSnapshotFile.
type refFold struct {
	leases   map[int]lease.Lease
	maxToken uint64
}

func newRefFold() refFold { return refFold{leases: map[int]lease.Lease{}} }

// apply folds one record in under the token guards fold.settle states.
func (f *refFold) apply(r record) {
	if r.token > f.maxToken {
		f.maxToken = r.token
	}
	switch r.op {
	case opAcquire:
		if l, ok := f.leases[r.name]; ok && l.Token > r.token {
			return
		}
		f.leases[r.name] = leaseFromRecord(r)
	case opRenew:
		if l, ok := f.leases[r.name]; ok && l.Token == r.token {
			l.ExpiresAt = time.Unix(0, r.expiresAt)
			f.leases[r.name] = l
		}
	case opRelease, opExpire:
		if l, ok := f.leases[r.name]; ok && l.Token == r.token {
			delete(f.leases, r.name)
		}
	}
}

// Walk implements lease.Table, one lease per chunk in map order.
func (f *refFold) Walk(yield func(chunk []lease.Lease) error) error {
	var one [1]lease.Lease
	for _, l := range f.leases {
		one[0] = l
		if err := yield(one[:]); err != nil {
			return err
		}
	}
	return nil
}

// Occupied implements lease.Table.
func (f *refFold) Occupied() int { return len(f.leases) }

// sorted returns the leases ordered by name.
func (f *refFold) sorted() []lease.Lease {
	leases := make([]lease.Lease, 0, len(f.leases))
	for _, l := range f.leases {
		leases = append(leases, l)
	}
	sort.Slice(leases, func(i, j int) bool { return leases[i].Name < leases[j].Name })
	return leases
}

// foldStream draws one history over a few names: a snapshot holding each
// name at most once, then records split between journal.wal.prev and
// journal.wal. Half the acquires mint a fresh token; the rest reuse an
// old one, so stale acquires and duplicates of an earlier acquire (with
// another owner, expiry or meta) are common. Half the renews, releases
// and expires carry the name's current token, the rest any token,
// mostly a wrong one; a release is often followed by a re-acquire.
func foldStream(rng *rand.Rand) (snap []lease.Lease, watermark uint64, prev, active []record) {
	const names = 6
	var minted uint64
	current := map[int]uint64{}
	owners := []string{"a", "b", "owner-c"}
	acquire := func(name int, token uint64) record {
		r := record{op: opAcquire, name: name, token: token,
			expiresAt: at(int64(rng.IntN(1000))).UnixNano(), owner: owners[rng.IntN(len(owners))]}
		if rng.IntN(4) == 0 {
			r.meta = map[string]string{"k": fmt.Sprint(rng.IntN(3))}
		}
		return r
	}
	for _, name := range rng.Perm(names)[:rng.IntN(names+1)] {
		minted += uint64(1 + rng.IntN(3))
		snap = append(snap, leaseFromRecord(acquire(name, minted)))
		current[name] = minted
	}
	watermark = minted + uint64(rng.IntN(3))
	recs := make([]record, rng.IntN(160))
	for i := range recs {
		name := rng.IntN(names)
		token := 1 + uint64(rng.IntN(int(minted)+2))
		if cur, ok := current[name]; ok && rng.IntN(2) == 0 {
			token = cur
		}
		switch k := rng.IntN(8); {
		case k < 4:
			if rng.IntN(2) == 0 {
				minted++
				token = minted
			}
			recs[i] = acquire(name, token)
			current[name] = max(current[name], token)
		case k < 6:
			recs[i] = record{op: opRenew, name: name, token: token, expiresAt: at(int64(rng.IntN(1000))).UnixNano()}
		default:
			recs[i] = record{op: []op{opRelease, opExpire}[k-6], name: name, token: token}
		}
	}
	cut := rng.IntN(len(recs) + 1)
	return snap, watermark, recs[:cut], recs[cut:]
}

// TestFoldMatchesReference replays 2,000 seeded histories through the
// readers of a data directory and through refFold, and requires the same
// name-ordered leases and watermark from all of them. ReadAudit runs on
// every seed, Open on every tenth (it fsyncs its boot compaction).
//
// Mutation check: each fails this test — fold.settle sorting on the name
// alone (an unstable sort, which reorders a name's records), and its
// acquire guard with ">=" for ">" (a duplicate acquire then keeps the
// older record's owner and expiry). No other test in the package catches
// the second.
func TestFoldMatchesReference(t *testing.T) {
	seeds := 2000
	if testing.Short() {
		seeds = 200
	}
	for seed := range seeds {
		rng := rand.New(rand.NewPCG(uint64(seed), 44))
		snap, watermark, prev, active := foldStream(rng)
		ref := newRefFold()
		for _, l := range snap {
			ref.leases[l.Name] = l
		}
		ref.maxToken = watermark
		for _, r := range append(prev[:len(prev):len(prev)], active...) {
			ref.apply(r)
		}
		want := ref.sorted()

		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, snapshotName), snapshotImage(snap, &[2]uint64{watermark, uint64(len(snap))}), 0o644); err != nil {
			t.Fatal(err)
		}
		writeJournalFile(t, filepath.Join(dir, journalPrevName), prev)
		writeJournalFile(t, filepath.Join(dir, journalName), active)
		a, err := ReadAudit(dir)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := sameFold(a.Leases, a.MaxToken, want, ref.maxToken); err != nil {
			t.Fatalf("seed %d: ReadAudit %v\nsnapshot %+v\nprev %+v\nactive %+v", seed, err, snap, prev, active)
		}
		if seed%10 != 0 {
			continue
		}
		s, err := Open(dir, Options{Fsync: FsyncNever, CompactEvery: -1})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		st := s.State()
		s.Crash()
		if err := sameFold(st.Leases, st.Token, want, ref.maxToken); err != nil {
			t.Fatalf("seed %d: Open %v", seed, err)
		}
	}
}

// sameFold compares a fold's result with the reference's, field by field.
func sameFold(got []lease.Lease, gotToken uint64, want []lease.Lease, wantToken uint64) error {
	if gotToken != wantToken || len(got) != len(want) {
		return fmt.Errorf("folded %d leases under watermark %d, reference %d under %d", len(got), gotToken, len(want), wantToken)
	}
	for i, w := range want {
		g := got[i]
		if g.Name != w.Name || g.Token != w.Token || g.Owner != w.Owner || !g.ExpiresAt.Equal(w.ExpiresAt) || !maps.Equal(g.Meta, w.Meta) {
			return fmt.Errorf("lease %d folded to %+v, reference %+v", i, g, w)
		}
	}
	return nil
}
