// audit.go is the read-only inspection half of the durability layer:
// ReadAudit rebuilds the durable state of a data directory — snapshot,
// rotated journal, active journal — WITHOUT opening it for writing,
// truncating torn tails, or compacting, so a verifier (the chaos
// harness's invariant checker, an operator's post-incident shell) can
// examine exactly what a recovery would see while the files stay
// byte-identical. The table it reports comes out of the same fold Open
// uses (recover.go).
//
// Beyond the recovered table, the audit checks the fencing order of the
// record stream — journal.wal.prev, then journal.wal — and reports every
// violation it finds instead of silently tolerating it:
//
//	(i)  within the stream, a name's acquire tokens strictly increase;
//	(ii) the snapshot's token for a name is either below every stream
//	     acquire for that name, or equal to one of them.
//
// (ii) is what a fuzzy snapshot allows. A snapshot is read from the live
// table after the journal was rotated, so it may reflect a LATER acquire
// of a name than the journal's first records for it (acquire T1, release
// T1, acquire T2 in the journal; the snapshot holds T2) — but then that
// acquire is in the stream too, made durable by the compaction's seal
// before the snapshot was renamed into place. A stream acquire below a
// snapshot token the stream never mints means the token counter resumed
// below the watermark after a restart. A healthy server can produce
// neither violation — the token counter is global and strictly
// increasing, and Restore resumes it above the recovered watermark — so a
// non-empty Regressions list is evidence of a fencing bug, not noise.
package persist

import (
	"fmt"
	"path/filepath"
	"sort"

	"repro/lease"
)

// TokenRegression is one fencing-order violation found in the journal
// stream: a record that would move a name's token backwards (or sideways)
// in time.
type TokenRegression struct {
	// Name is the lease name whose token order broke.
	Name int
	// PrevToken is the token already established for the name — by an
	// earlier acquire in the stream (rule i) or by the snapshot (rule ii);
	// Token is the offending acquire's token, which is not above it.
	PrevToken, Token uint64
	// Source is the file the offending record came from
	// ("journal.wal.prev", "journal.wal").
	Source string
}

func (r TokenRegression) String() string {
	return fmt.Sprintf("name %d: acquire token %d after token %d (%s)", r.Name, r.Token, r.PrevToken, r.Source)
}

// Audit is the result of a read-only scan of a persist directory.
type Audit struct {
	// Leases is the live table a recovery from this directory would
	// restore (snapshot + journals folded, expiry not evaluated), sorted
	// by name.
	Leases []lease.Lease
	// MaxToken is the fencing-token watermark: the highest token in the
	// snapshot header or any journal record. A restarted manager mints
	// strictly above it.
	MaxToken uint64
	// SnapshotLeases is how many leases the snapshot alone carried.
	SnapshotLeases int
	// PrevRecords and JournalRecords count valid records in the rotated
	// and active journals.
	PrevRecords, JournalRecords int
	// TornBytes is the length of the active journal's invalid tail — the
	// bytes a recovery would truncate. After a graceful shutdown it must
	// be 0 (the final snapshot empties the journal entirely).
	TornBytes int64
	// Regressions lists every fencing-order violation in the journal
	// stream. Empty on any healthy history.
	Regressions []TokenRegression
}

// ReadAudit scans dir without modifying anything. A missing directory or
// a directory with no durable state yields an empty audit, matching
// what Open would recover from it; a directory Open would refuse (a bad
// snapshot, a foreign or other-format file) is the same error here.
func ReadAudit(dir string) (*Audit, error) {
	st, err := loadSnapshot(dir)
	if err != nil {
		return nil, err
	}
	a := &Audit{SnapshotLeases: len(st.leases)}

	// snap is the snapshot token of every name the stream has not yet been
	// seen to mint it for, top the last acquire token per name within the
	// stream, below the first stream acquire under a still-unminted
	// snapshot token: rule (ii)'s violations, if the stream ends that way.
	snap := make(map[int]uint64, len(st.leases))
	for name, l := range st.leases {
		snap[name] = l.Token
	}
	top := map[int]uint64{}
	below := map[int]TokenRegression{}
	scan := func(file string) (records int, torn int64, err error) {
		body, ok, err := readJournal(filepath.Join(dir, file))
		if err != nil || !ok {
			// A crash can tear the magic itself; then everything is tail.
			return 0, int64(len(body)), err
		}
		valid, n := scanFrames(body, func(r record) {
			if r.op == opAcquire {
				if prev, seen := top[r.name]; seen && r.token <= prev {
					a.Regressions = append(a.Regressions, TokenRegression{
						Name: r.name, PrevToken: prev, Token: r.token, Source: file,
					})
				} else {
					top[r.name] = r.token
				}
				if s, held := snap[r.name]; held && r.token == s {
					delete(snap, r.name)
					delete(below, r.name)
				} else if _, flagged := below[r.name]; held && r.token < s && !flagged {
					below[r.name] = TokenRegression{Name: r.name, PrevToken: s, Token: r.token, Source: file}
				}
			}
			st.apply(r)
		})
		return n, int64(len(body)) - valid, nil
	}

	// Rotated journal first (strictly older records), then the active
	// one — the same order Open replays them in.
	if a.PrevRecords, _, err = scan(journalPrevName); err != nil {
		return nil, err
	}
	if a.JournalRecords, a.TornBytes, err = scan(journalName); err != nil {
		return nil, err
	}
	unminted := make([]TokenRegression, 0, len(below))
	for _, r := range below {
		unminted = append(unminted, r)
	}
	sort.Slice(unminted, func(i, j int) bool { return unminted[i].Name < unminted[j].Name })
	a.Regressions = append(a.Regressions, unminted...)

	a.Leases, a.MaxToken = st.sorted(), st.maxToken
	return a, nil
}
