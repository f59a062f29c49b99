package lease

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	renaming "repro"
	"repro/internal/xrand"
)

// The reference-model test: a deliberately naive lease table — one map,
// one mutex, no stripes, no deadline watermark, full scans everywhere —
// and a seeded driver that applies the same random operation to it and to
// the real Manager, step by step, over the fake clock. After every step
// the two must agree on the verdict, the fencing token, ExpiresAt (to the
// nanosecond), every field of Metrics and the multiset of observer events
// the step produced. The model knows nothing about how the manager lays
// its table out, so the test pins behaviour across layout changes. It is
// the one statement of the single-goroutine contract: capped and uncapped
// tables, namespace exhaustion, cancelled and empty batches, cap shrinks,
// Walk (lapsed leases included, after Shutdown too) and the isolation of
// every Meta map handed in or out.

// refLease is one lease in the reference model.
type refLease struct {
	token uint64
	owner string
	meta  map[string]string
	exp   time.Time
}

// obsEvent is one observer callback, flattened so events compare with ==.
type obsEvent struct {
	kind  byte // 'A'cquire, re'N'ew, 'R'elease, 'E'xpire
	name  int
	token uint64
	exp   int64 // ExpiresAt in UnixNano; 0 for release and expire
	owner string
	meta  string
}

func flatMeta(m map[string]string) string {
	if m == nil {
		return "<nil>"
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%s;", k, m[k])
	}
	return b.String()
}

func acquireEvent(l Lease) obsEvent {
	return obsEvent{kind: 'A', name: l.Name, token: l.Token, exp: l.ExpiresAt.UnixNano(), owner: l.Owner, meta: flatMeta(l.Meta)}
}

// eventLog records the real manager's observer callbacks, and the table
// the last Restore handed over.
type eventLog struct {
	events []obsEvent
	table  Table
}

func (e *eventLog) ObserveTable(t Table) { e.table = t }

func (e *eventLog) ObserveAcquire(l Lease) { e.events = append(e.events, acquireEvent(l)) }
func (e *eventLog) ObserveRenew(name int, token uint64, at time.Time) {
	e.events = append(e.events, obsEvent{kind: 'N', name: name, token: token, exp: at.UnixNano()})
}
func (e *eventLog) ObserveRelease(name int, token uint64) {
	e.events = append(e.events, obsEvent{kind: 'R', name: name, token: token})
}
func (e *eventLog) ObserveExpire(name int, token uint64) {
	e.events = append(e.events, obsEvent{kind: 'E', name: name, token: token})
}

func sortEvents(ev []obsEvent) {
	sort.Slice(ev, func(i, j int) bool {
		a, b := ev[i], ev[j]
		if a.name != b.name {
			return a.name < b.name
		}
		if a.token != b.token {
			return a.token < b.token
		}
		if a.kind != b.kind {
			return a.kind < b.kind
		}
		return a.exp < b.exp
	})
}

// refModel is the oracle.
type refModel struct {
	mu      sync.Mutex
	leases  map[int]refLease
	token   uint64
	maxLive int
	now     func() time.Time

	// The counters Metrics reports, under the rules its doc comment
	// states. ReclaimFailed has no counterpart: the namer never refuses
	// a name the table held, so it must stay 0.
	acquired, renewed, released, expired, rejected int64
	capSweeps, resizes                             int64
	events                                         []obsEvent
}

func (r *refModel) clamp(ttl time.Duration) time.Duration {
	if ttl <= 0 {
		return modelTTL
	}
	return min(ttl, modelMaxTTL)
}

// refuse counts a refusal in Rejected and returns it.
func (r *refModel) refuse(err error) error {
	r.rejected++
	return err
}

// expire drops a lapsed lease. Callers hold r.mu.
func (r *refModel) expire(name int) {
	r.events = append(r.events, obsEvent{kind: 'E', name: name, token: r.leases[name].token})
	delete(r.leases, name)
	r.expired++
}

// sweep expires everything lapsed and reports how many.
func (r *refModel) sweep() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	now, n := r.now(), 0
	for name, l := range r.leases {
		if now.After(l.exp) {
			r.expire(name)
			n++
		}
	}
	return n
}

// admit decides whether a batch of k leases is granted, in the manager's
// order: a size beyond the namespace, then beyond the cap; then the
// reservation, which sweeps under capacity pressure until it fits or a
// sweep reclaims nothing; then the namer, which sees the cancelled
// context before it probes and runs out when the table's names — lapsed
// leases hold theirs until reclaimed — leave fewer than k free. Every
// refusal but a bad size counts once in Rejected.
func (r *refModel) admit(k, namespace int, cancelled bool) error {
	switch {
	case k < 1:
		return renaming.ErrBadConfig
	case k > namespace:
		return r.refuse(renaming.ErrNamespaceExhausted)
	case r.maxLive > 0 && k > r.maxLive:
		return r.refuse(ErrCapacity)
	}
	for r.maxLive > 0 && len(r.leases)+k > r.maxLive {
		r.capSweeps++
		if r.sweep() == 0 {
			return r.refuse(ErrCapacity)
		}
	}
	switch {
	case cancelled:
		return r.refuse(renaming.ErrCancelled)
	case len(r.leases)+k > namespace:
		return r.refuse(renaming.ErrNamespaceExhausted)
	}
	return nil
}

// grant records leases on names (chosen by the real namer — the model
// does not predict names, only that they are free) and returns what the
// manager must have returned.
func (r *refModel) grant(names []int, owner string, ttl time.Duration, meta map[string]string) ([]Lease, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	exp := r.now().Add(r.clamp(ttl))
	out := make([]Lease, len(names))
	for i, name := range names {
		if _, held := r.leases[name]; held {
			return nil, fmt.Errorf("name %d granted while the model still holds it", name)
		}
		r.token++
		r.leases[name] = refLease{token: r.token, owner: owner, meta: meta, exp: exp}
		out[i] = Lease{Name: name, Token: r.token, Owner: owner, ExpiresAt: exp, Meta: meta}
		r.events = append(r.events, acquireEvent(out[i]))
		r.acquired++
	}
	return out, nil
}

func (r *refModel) renew(name int, token uint64, ttl time.Duration) (Lease, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	l, ok := r.leases[name]
	switch now := r.now(); {
	case !ok:
		return Lease{}, r.refuse(ErrUnknownName)
	case l.token != token:
		return Lease{}, r.refuse(ErrWrongToken)
	case now.After(l.exp):
		r.expire(name)
		return Lease{}, r.refuse(ErrExpired)
	default:
		l.exp = now.Add(r.clamp(ttl))
		r.leases[name] = l
		r.events = append(r.events, obsEvent{kind: 'N', name: name, token: token, exp: l.exp.UnixNano()})
		r.renewed++
		return Lease{Name: name, Token: token, Owner: l.owner, ExpiresAt: l.exp, Meta: l.meta}, nil
	}
}

func (r *refModel) release(name int, token uint64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	l, ok := r.leases[name]
	switch {
	case !ok:
		return r.refuse(ErrUnknownName)
	case l.token != token:
		return r.refuse(ErrWrongToken)
	case r.now().After(l.exp):
		r.expire(name)
		return r.refuse(ErrExpired)
	default:
		delete(r.leases, name)
		r.events = append(r.events, obsEvent{kind: 'R', name: name, token: token})
		r.released++
		return nil
	}
}

// liveCount counts the unexpired leases.
func (r *refModel) liveCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	now, n := r.now(), 0
	for _, l := range r.leases {
		if !now.After(l.exp) {
			n++
		}
	}
	return n
}

// table lists the leases by name: the unexpired ones, or with lapsed
// every lease still in the table.
func (r *refModel) table(lapsed bool) []Lease {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := r.now()
	var out []Lease
	for name, l := range r.leases {
		if lapsed || !now.After(l.exp) {
			out = append(out, Lease{Name: name, Token: l.token, Owner: l.owner, ExpiresAt: l.exp, Meta: l.meta})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// restart is what a Shutdown, some downtime and a Restore of snapshot do:
// leases outside the snapshot vanish silently, snapshot leases that
// lapsed by now expire, and the counters start over.
func (r *refModel) restart(snapshot []Lease) (restored, expired int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := r.now()
	r.leases = map[int]refLease{}
	r.acquired, r.renewed, r.released, r.expired, r.rejected = 0, 0, 0, 0, 0
	r.capSweeps, r.resizes = 0, 0
	for _, l := range snapshot {
		if now.After(l.ExpiresAt) {
			r.events = append(r.events, obsEvent{kind: 'E', name: l.Name, token: l.Token})
			r.expired++
			expired++
			continue
		}
		r.leases[l.Name] = refLease{token: l.Token, owner: l.Owner, meta: l.Meta, exp: l.ExpiresAt}
		restored++
	}
	return restored, expired
}

func sameLease(got, want Lease) bool {
	return got.Name == want.Name && got.Token == want.Token && got.Owner == want.Owner &&
		got.ExpiresAt.Equal(want.ExpiresAt) && (got.Meta == nil) == (want.Meta == nil) && maps.Equal(got.Meta, want.Meta)
}

// modelRun drives one seed.
type modelRun struct {
	rng     *xrand.Rand
	clk     *fakeClock
	nm      *renaming.LevelArray
	m       *Manager
	log     *eventLog
	ref     *refModel
	seed    uint64
	shards  int
	handles []RenewItem // every (name, token) ever granted, stale ones included
	reached *modelReach
	trace   []string // step descriptions, when tracing
	tracing bool
}

// modelReach counts outcomes the seeds must reach between them, so a
// change to the driver cannot quietly stop exercising one.
type modelReach struct {
	exhausted       int // AcquireBatch ran the namespace out mid-batch
	overCap         int // ErrCapacity for a batch larger than MaxLive
	cancelled       int // a batch refused for its cancelled context
	empty           int // an empty renew or release batch
	shrinkBelowLive int // SetMaxLive below the live count
	walkLapsed      int // a Walk that yielded a lapsed lease
}

var (
	modelOwners = []string{"ann", "bob", ""}
	// Requested TTLs: the default (0), odd nanosecond counts, short and long
	// so a renewal can land before or after the deadline it replaces, and
	// one above the 10×TTL ceiling.
	modelTTLs = []time.Duration{0, 1, 700*time.Millisecond + 1, 3 * time.Second, 9*time.Second + 7, 40 * time.Second, time.Hour}

	// cancelledCtx is done before any call sees it.
	cancelledCtx = func() context.Context {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		return ctx
	}()

	// errHalt is what a halting Walk's yield returns.
	errHalt = errors.New("halt")
)

const (
	modelTTL    = 5 * time.Second
	modelMaxTTL = 10 * modelTTL
)

func (r *modelRun) cfg() Config {
	return Config{
		TTL: modelTTL, SweepInterval: -1,
		MaxLive: r.ref.maxLive, Shards: r.shards, Observer: r.log, Now: r.clk.Now,
	}
}

func (r *modelRun) newNamer(capacity int) error {
	nm, err := renaming.NewLevelArray(capacity, renaming.WithSeed(r.seed))
	r.nm = nm
	return err
}

func (r *modelRun) note(format string, args ...any) {
	if r.tracing {
		r.trace = append(r.trace, fmt.Sprintf(format, args...))
	}
}

func (r *modelRun) ttl() time.Duration { return modelTTLs[r.rng.Intn(len(modelTTLs))] }

// ctx draws the context of one batch call: one call in twenty gets one
// that is already cancelled.
func (r *modelRun) ctx() (context.Context, bool) {
	if r.rng.Intn(20) == 0 {
		return cancelledCtx, true
	}
	return context.Background(), false
}

// size draws a batch size from 1..max, skewed small: about two in five
// batches are the one-item batch, the commonest size on every seed.
func (r *modelRun) size(max int) int { return 1 + r.rng.Intn(1+r.rng.Intn(max)) }

// acquireSize draws an AcquireBatch size: mostly size(6), and now and
// then 0, a size past the namespace, or the namespace's free names less
// one, all of them or one more — the sizes that fill the namespace or
// overflow it, and that exceed MaxLive on a capped table.
func (r *modelRun) acquireSize() int {
	ns := r.m.Namespace()
	switch r.rng.Intn(24) {
	case 0:
		return 0
	case 1:
		return ns + 1 + r.rng.Intn(2)
	case 2, 3:
		return ns - len(r.ref.leases) - 1 + r.rng.Intn(3)
	}
	return r.size(6)
}

// items draws a renew or release batch's length: size(max), or, one
// batch in twenty, empty.
func (r *modelRun) items(max int) int {
	if r.rng.Intn(20) == 0 {
		return 0
	}
	return r.size(max)
}

func (r *modelRun) meta() map[string]string {
	switch r.rng.Intn(4) {
	case 0:
		return map[string]string{"zone": fmt.Sprint(r.rng.Intn(3)), "k": "v"}
	case 1:
		return map[string]string{}
	}
	return nil
}

// item picks a (name, token) to operate on: mostly a granted handle
// (possibly stale by now), sometimes a wrong token, sometimes a name off
// the table altogether.
func (r *modelRun) item() RenewItem {
	switch p := r.rng.Intn(20); {
	case p == 0 || len(r.handles) == 0:
		names := append(hostileNames(r.m), r.rng.Intn(r.m.Namespace()))
		return RenewItem{Name: names[r.rng.Intn(len(names))], Token: uint64(r.rng.Intn(4))}
	case p == 1:
		h := r.handles[r.rng.Intn(len(r.handles))]
		h.Token += uint64(1 + r.rng.Intn(3))
		return h
	default:
		return r.handles[r.rng.Intn(len(r.handles))]
	}
}

// hostileNames are names no lease can hold; both wires carry client int64s
// straight into the table lookup.
func hostileNames(m *Manager) []int {
	ns := m.Namespace()
	return []int{-1, math.MinInt64, math.MaxInt64, ns, ns + 1<<40}
}

func (r *modelRun) remember(ls []Lease) {
	for _, l := range ls {
		r.handles = append(r.handles, RenewItem{Name: l.Name, Token: l.Token})
	}
	if len(r.handles) > 48 {
		r.handles = r.handles[len(r.handles)-48:]
	}
}

// sameErr reports whether got is the refusal want; a cancellation must
// carry the context's own error too.
func sameErr(got, want error) bool {
	if want == nil {
		return got == nil
	}
	if want == renaming.ErrCancelled && !errors.Is(got, context.Canceled) {
		return false
	}
	return errors.Is(got, want)
}

// scribble writes to a Meta map that crossed the API, either way: the
// caller and the table each own their copy, so no later result may show
// the write.
func scribble(meta map[string]string) {
	if meta != nil {
		meta["scribble"] = "x"
	}
}

// checkGrant compares what the manager granted against the model, then
// scribbles on the returned metadata and on the caller's own map.
func (r *modelRun) checkGrant(got []Lease, owner string, ttl time.Duration, meta map[string]string) error {
	names := make([]int, len(got))
	for i, l := range got {
		names[i] = l.Name
	}
	want, err := r.ref.grant(names, owner, ttl, cloneMeta(meta))
	if err != nil {
		return err
	}
	for i := range got {
		if !sameLease(got[i], want[i]) {
			return fmt.Errorf("granted %+v, model %+v", got[i], want[i])
		}
		scribble(got[i].Meta)
	}
	scribble(meta)
	r.remember(got)
	return nil
}

// checkCall checks the call-level outcome of a renew or release batch of
// n items and reports whether its per-item results are left to check: a
// cancelled context refuses the call, counted once in Rejected, and an
// empty batch is a no-op; neither returns results.
func checkCall[T any](r *modelRun, cancelled bool, n int, got []T, err error) (bool, error) {
	var want error
	switch {
	case cancelled:
		want = r.ref.refuse(renaming.ErrCancelled)
		r.reached.cancelled++
	case n == 0:
		r.reached.empty++
	}
	none := want != nil || n == 0
	if !sameErr(err, want) || (got == nil) != none || (!none && len(got) != n) {
		return false, fmt.Errorf("%d results (nil %v), %v; model %v", len(got), got == nil, err, want)
	}
	return !none, nil
}

// checkLeases compares the manager's listing with the model's, then
// scribbles on the listing's metadata.
func (r *modelRun) checkLeases() error {
	got, want := r.m.Leases(), r.ref.table(false)
	if len(got) != len(want) {
		return fmt.Errorf("Leases: %d leases, model %d", len(got), len(want))
	}
	for i := range got {
		if !sameLease(got[i], want[i]) {
			return fmt.Errorf("Leases[%d]: %+v, model %+v", i, got[i], want[i])
		}
		scribble(got[i].Meta)
	}
	return nil
}

// checkWalk compares a Walk of the manager's table with the model's —
// every occupied slot, lapsed leases included — and Occupied with its
// size, and returns the model's table. A halting walk's yield fails on
// the first chunk: Walk must stop there and return that error.
func (r *modelRun) checkWalk(halt bool) ([]Lease, error) {
	want := r.ref.table(true)
	if n := r.m.Occupied(); n != len(want) {
		return nil, fmt.Errorf("Occupied() = %d, model %d", n, len(want))
	}
	var got []Lease
	chunks := 0
	err := r.m.Walk(func(chunk []Lease) error {
		chunks++
		for _, l := range chunk {
			l.Meta = cloneMeta(l.Meta) // valid only until yield returns
			got = append(got, l)
		}
		if halt {
			return errHalt
		}
		return nil
	})
	if halt && len(want) > 0 {
		if err != errHalt || chunks != 1 {
			return nil, fmt.Errorf("halted Walk ran %d chunks and returned %v", chunks, err)
		}
		return want, nil
	}
	if err != nil || len(got) != len(want) {
		return nil, fmt.Errorf("Walk: %d leases, %v; model %d", len(got), err, len(want))
	}
	sort.Slice(got, func(i, j int) bool { return got[i].Name < got[j].Name })
	lapsed := false
	for i := range got {
		if !sameLease(got[i], want[i]) {
			return nil, fmt.Errorf("Walk: %+v, model %+v", got[i], want[i])
		}
		lapsed = lapsed || r.clk.Now().After(want[i].ExpiresAt)
	}
	if lapsed {
		r.reached.walkLapsed++
	}
	return want, nil
}

func (r *modelRun) step() error {
	switch p := r.rng.Intn(100); {
	case p < 30: // acquire
		ctx, cancelled := r.ctx()
		owner, k, ttl, meta := modelOwners[r.rng.Intn(len(modelOwners))], r.acquireSize(), r.ttl(), r.meta()
		r.note("AcquireBatch(cancelled %v, %q, %d, %v, %v)", cancelled, owner, k, ttl, meta)
		ns, maxLive := r.m.Namespace(), r.ref.maxLive
		want := r.ref.admit(k, ns, cancelled)
		got, err := r.m.AcquireBatch(ctx, owner, k, ttl, meta)
		if !sameErr(err, want) {
			return fmt.Errorf("AcquireBatch: err %v, model %v", err, want)
		}
		switch {
		case want == renaming.ErrNamespaceExhausted && k <= ns:
			r.reached.exhausted++
		case want == ErrCapacity && k > maxLive:
			r.reached.overCap++
		case want == renaming.ErrCancelled:
			r.reached.cancelled++
		}
		if err == nil {
			if len(got) != k {
				return fmt.Errorf("AcquireBatch(%d) granted %d", k, len(got))
			}
			return r.checkGrant(got, owner, ttl, meta)
		}

	case p < 58: // renew
		ctx, cancelled := r.ctx()
		items := make([]RenewItem, r.items(8))
		for i := range items {
			items[i] = r.item()
		}
		ttl := r.ttl()
		r.note("RenewBatch(cancelled %v, %v, %v)", cancelled, items, ttl)
		got, err := r.m.RenewBatch(ctx, items, ttl)
		if more, err := checkCall(r, cancelled, len(items), got, err); !more {
			return err
		}
		for i, it := range items {
			want, werr := r.ref.renew(it.Name, it.Token, ttl)
			if !sameErr(got[i].Err, werr) || (werr == nil && !sameLease(got[i].Lease, want)) {
				return fmt.Errorf("RenewBatch item %d: %+v; model %+v, %v", i, got[i], want, werr)
			}
			scribble(got[i].Lease.Meta)
		}

	case p < 75: // release
		ctx, cancelled := r.ctx()
		items := make([]ReleaseItem, r.items(6))
		for i := range items {
			items[i] = ReleaseItem(r.item())
		}
		r.note("ReleaseBatch(cancelled %v, %v)", cancelled, items)
		got, err := r.m.ReleaseBatch(ctx, items)
		if more, err := checkCall(r, cancelled, len(items), got, err); !more {
			return err
		}
		for i, it := range items {
			if want := r.ref.release(it.Name, it.Token); !sameErr(got[i].Err, want) {
				return fmt.Errorf("ReleaseBatch item %d: %v, model %v", i, got[i].Err, want)
			}
		}

	case p < 90: // time passes
		d := time.Duration(r.rng.Intn(int(4 * time.Second)))
		if it := r.item(); r.rng.Intn(4) == 0 {
			// Land exactly on a lease's deadline, the last instant it is live.
			if left := r.ref.leases[it.Name].exp.Sub(r.clk.Now()); left > 0 {
				d = left
			}
		}
		r.note("Advance(%v)", d)
		r.clk.Advance(d)

	case p < 93: // sweep
		r.note("SweepOnce()")
		if got, want := r.m.SweepOnce(), r.ref.sweep(); got != want {
			return fmt.Errorf("SweepOnce reclaimed %d, model %d", got, want)
		}

	case p < 95: // list
		r.note("Leases()")
		return r.checkLeases()

	case p < 97: // walk, lapsed leases included, one walk in four halted
		halt := r.rng.Intn(4) == 0
		r.note("Walk(halt %v)", halt)
		_, err := r.checkWalk(halt)
		return err

	case p < 98: // lower a cap, below the live count as often as not; 0 uncaps
		if r.ref.maxLive == 0 {
			break
		}
		n := r.rng.Intn(r.ref.maxLive)
		r.note("SetMaxLive(%d)", n)
		if n > 0 && n < r.ref.liveCount() {
			r.reached.shrinkBelowLive++
		}
		if err := r.m.SetMaxLive(n); err != nil {
			return err
		}
		r.ref.maxLive = n
		r.ref.resizes++

	case p < 99: // grow the namespace under a capped table, and the cap with it
		if r.ref.maxLive == 0 {
			break // an uncapped table runs its namespace out instead
		}
		capacity := r.nm.Capacity() * 2
		r.note("Resize(%d)", capacity)
		if err := r.nm.Resize(capacity); err != nil {
			return err
		}
		if err := r.m.SetMaxLive(capacity); err != nil {
			return err
		}
		r.ref.maxLive = capacity
		r.ref.resizes++

	default: // durable restart: Shutdown, the final snapshot's Walk, downtime, Restore
		down := time.Duration(r.rng.Intn(int(3 * time.Second)))
		r.note("Shutdown(); Walk(); Advance(%v); Restore()", down)
		if err := r.m.Shutdown(); err != nil {
			return err
		}
		snapshot, err := r.checkWalk(false)
		if err != nil {
			return fmt.Errorf("after Shutdown: %w", err)
		}
		r.clk.Advance(down)
		if err := r.newNamer(r.nm.Capacity()); err != nil {
			return err
		}
		m, err := New(r.nm, r.cfg())
		if err != nil {
			return err
		}
		r.m = m
		restored, expired, err := m.Restore(RestoreState{Leases: snapshot, Token: r.ref.token})
		wantRestored, wantExpired := r.ref.restart(snapshot)
		if err != nil || restored != wantRestored || expired != wantExpired {
			return fmt.Errorf("Restore: %d restored, %d expired, %v; model %d, %d", restored, expired, err, wantRestored, wantExpired)
		}
		if r.log.table != Table(m) || m.Occupied() != restored {
			return fmt.Errorf("Restore handed over table %v holding %d leases, want the new manager's and %d", r.log.table, m.Occupied(), restored)
		}
	}
	return nil
}

// settle compares what every step must leave equal: every Metrics field
// and the observer events the step produced.
func (r *modelRun) settle() error {
	want := Metrics{
		Acquired:       r.ref.acquired,
		Renewed:        r.ref.renewed,
		Released:       r.ref.released,
		Expired:        r.ref.expired,
		Rejected:       r.ref.rejected,
		CapacitySweeps: r.ref.capSweeps,
		Reserved:       int64(len(r.ref.leases)), // no acquire is in flight
		Live:           r.ref.liveCount(),
		MaxLive:        int64(r.ref.maxLive),
		Resizes:        r.ref.resizes,
	}
	if got := r.m.Metrics(); got != want {
		return fmt.Errorf("Metrics() = %+v, model %+v", got, want)
	}
	got, wantEv := r.log.events, r.ref.events
	sortEvents(got)
	sortEvents(wantEv)
	same := len(got) == len(wantEv)
	for i := 0; same && i < len(got); i++ {
		same = got[i] == wantEv[i]
	}
	if !same {
		return fmt.Errorf("observer events %+v, model %+v", got, wantEv)
	}
	r.log.events, r.ref.events = got[:0], wantEv[:0]
	return nil
}

// runModel drives steps random operations from seed, one seed in four on
// an uncapped table, and returns the first disagreement, with the step
// list when tracing.
func runModel(seed uint64, shards, steps int, reached *modelReach, tracing bool) (trace []string, err error) {
	r := &modelRun{
		rng:     xrand.NewStream(seed, 7),
		clk:     newFakeClock(),
		log:     &eventLog{},
		seed:    seed,
		shards:  shards,
		reached: reached,
		tracing: tracing,
	}
	capacity := 6 + r.rng.Intn(10)
	maxLive := capacity
	if r.rng.Intn(4) == 0 {
		maxLive = 0
	}
	r.ref = &refModel{leases: map[int]refLease{}, maxLive: maxLive, now: r.clk.Now}
	if err := r.newNamer(capacity); err != nil {
		return nil, err
	}
	if r.m, err = New(r.nm, r.cfg()); err != nil {
		return nil, err
	}
	defer func() { r.m.Shutdown() }()
	for i := 0; i < steps; i++ {
		if err := r.step(); err != nil {
			return r.trace, fmt.Errorf("step %d: %w", i, err)
		}
		if err := r.settle(); err != nil {
			return r.trace, fmt.Errorf("after step %d: %w", i, err)
		}
	}
	return nil, nil
}

func TestReferenceModel(t *testing.T) {
	seeds, steps := 2000, 400
	if testing.Short() {
		seeds = 200
	}
	for _, shards := range []int{1, 4} {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			t.Parallel()
			var reached modelReach
			for seed := uint64(1); seed <= uint64(seeds/2); seed++ {
				seed := seed*2 + uint64(shards&1) // disjoint seeds per shard count
				if _, err := runModel(seed, shards, steps, &reached, false); err != nil {
					trace, _ := runModel(seed, shards, steps, &modelReach{}, true)
					t.Fatalf("seed %d, %d shards: %v\nsteps:\n  %s", seed, shards, err, strings.Join(trace, "\n  "))
				}
			}
			for what, n := range map[string]int{
				"namespace exhaustion mid-batch":    reached.exhausted,
				"ErrCapacity for k > MaxLive":       reached.overCap,
				"a cancelled batch":                 reached.cancelled,
				"an empty batch":                    reached.empty,
				"a SetMaxLive below the live count": reached.shrinkBelowLive,
				"a Walk over a lapsed lease":        reached.walkLapsed,
			} {
				if n == 0 {
					t.Errorf("no seed reached %s", what)
				}
			}
		})
	}
}
