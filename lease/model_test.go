package lease

import (
	"context"
	"errors"
	"fmt"
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
// nanosecond), the live count, the operation counters and the multiset of
// observer events the step produced. The model knows nothing about how
// the manager lays its table out, so the test pins behaviour across
// layout changes.

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
	ttl     time.Duration
	maxTTL  time.Duration
	maxLive int
	now     func() time.Time

	acquired, renewed, released, expired int64
	events                               []obsEvent
}

func (r *refModel) clamp(ttl time.Duration) time.Duration {
	if ttl <= 0 {
		return r.ttl
	}
	if ttl > r.maxTTL {
		return r.maxTTL
	}
	return ttl
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

// admit decides whether k more leases fit, sweeping under capacity
// pressure exactly when the manager's reservation would.
func (r *refModel) admit(k int) error {
	if r.maxLive <= 0 {
		return nil
	}
	if k > r.maxLive {
		return ErrCapacity
	}
	if len(r.leases)+k <= r.maxLive {
		return nil
	}
	if r.sweep() == 0 || len(r.leases)+k > r.maxLive {
		return ErrCapacity
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
		return Lease{}, ErrUnknownName
	case l.token != token:
		return Lease{}, ErrWrongToken
	case now.After(l.exp):
		r.expire(name)
		return Lease{}, ErrExpired
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
		return ErrUnknownName
	case l.token != token:
		return ErrWrongToken
	case r.now().After(l.exp):
		r.expire(name)
		return ErrExpired
	default:
		delete(r.leases, name)
		r.events = append(r.events, obsEvent{kind: 'R', name: name, token: token})
		r.released++
		return nil
	}
}

func (r *refModel) get(name int) (Lease, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	l, ok := r.leases[name]
	if !ok {
		return Lease{}, false
	}
	if r.now().After(l.exp) {
		r.expire(name)
		return Lease{}, false
	}
	return Lease{Name: name, Token: l.token, Owner: l.owner, ExpiresAt: l.exp, Meta: l.meta}, true
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

// live lists the unexpired leases by name.
func (r *refModel) live() []Lease {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := r.now()
	var out []Lease
	for name, l := range r.leases {
		if !now.After(l.exp) {
			out = append(out, Lease{Name: name, Token: l.token, Owner: l.owner, ExpiresAt: l.exp, Meta: l.meta})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// restart is what a Shutdown, some downtime and a Restore of snapshot do:
// leases outside the snapshot vanish silently, snapshot leases that
// lapsed during the downtime expire, and the counters start over.
func (r *refModel) restart(snapshot []Lease) (restored, expired int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := r.now()
	r.leases = map[int]refLease{}
	r.acquired, r.renewed, r.released, r.expired = 0, 0, 0, 0
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
		got.ExpiresAt.Equal(want.ExpiresAt) && flatMeta(got.Meta) == flatMeta(want.Meta)
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
	trace   []string    // step descriptions, when tracing
	tracing bool
}

var (
	modelOwners = []string{"ann", "bob", ""}
	// Requested TTLs: the default (0), odd nanosecond counts, short and long
	// so a renewal can land before or after the deadline it replaces, and
	// one above MaxTTL.
	modelTTLs = []time.Duration{0, 1, 700*time.Millisecond + 1, 3 * time.Second, 9*time.Second + 7, 40 * time.Second, time.Hour}
)

const (
	modelTTL    = 5 * time.Second
	modelMaxTTL = 60 * time.Second
)

func (r *modelRun) cfg() Config {
	return Config{
		TTL: modelTTL, MaxTTL: modelMaxTTL, SweepInterval: -1,
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

// size draws a batch size from 1..max, skewed small: about two in five
// batches are the one-item batch, the commonest size on every seed.
func (r *modelRun) size(max int) int { return 1 + r.rng.Intn(1+r.rng.Intn(max)) }

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

func sameErr(got, want error) bool {
	if want == nil {
		return got == nil
	}
	return errors.Is(got, want)
}

// checkGrant compares what the manager granted against the model and then
// scribbles on the returned metadata: a lease handed out must be the
// caller's own copy.
func (r *modelRun) checkGrant(got []Lease, owner string, ttl time.Duration, meta map[string]string) error {
	names := make([]int, len(got))
	for i, l := range got {
		names[i] = l.Name
	}
	want, err := r.ref.grant(names, owner, ttl, meta)
	if err != nil {
		return err
	}
	for i := range got {
		if !sameLease(got[i], want[i]) {
			return fmt.Errorf("granted %+v, model %+v", got[i], want[i])
		}
		if got[i].Meta != nil {
			got[i].Meta["scribble"] = "x"
		}
	}
	r.remember(got)
	return nil
}

// checkLeases compares the manager's listing with the model's and returns
// the model's.
func (r *modelRun) checkLeases() ([]Lease, error) {
	got, want := r.m.Leases(), r.ref.live()
	if len(got) != len(want) {
		return nil, fmt.Errorf("Leases: %d leases, model %d", len(got), len(want))
	}
	for i := range got {
		if !sameLease(got[i], want[i]) {
			return nil, fmt.Errorf("Leases[%d]: %+v, model %+v", i, got[i], want[i])
		}
	}
	return want, nil
}

func (r *modelRun) step() error {
	ctx := context.Background()
	switch p := r.rng.Intn(100); {
	case p < 30: // acquire
		owner, k, ttl, meta := modelOwners[r.rng.Intn(len(modelOwners))], r.size(6), r.ttl(), r.meta()
		r.note("AcquireBatch(%q, %d, %v, %v)", owner, k, ttl, meta)
		want := r.ref.admit(k)
		got, err := r.m.AcquireBatch(ctx, owner, k, ttl, meta)
		if !sameErr(err, want) {
			return fmt.Errorf("AcquireBatch: err %v, model %v", err, want)
		}
		if err == nil {
			if len(got) != k {
				return fmt.Errorf("AcquireBatch(%d) granted %d", k, len(got))
			}
			return r.checkGrant(got, owner, ttl, meta)
		}

	case p < 58: // renew
		items := make([]RenewItem, r.size(8))
		for i := range items {
			items[i] = r.item()
		}
		ttl := r.ttl()
		r.note("RenewBatch(%v, %v)", items, ttl)
		got, err := r.m.RenewBatch(ctx, items, ttl)
		if err != nil || len(got) != len(items) {
			return fmt.Errorf("RenewBatch: %d results, %v", len(got), err)
		}
		for i, it := range items {
			want, werr := r.ref.renew(it.Name, it.Token, ttl)
			if !sameErr(got[i].Err, werr) || (werr == nil && !sameLease(got[i].Lease, want)) {
				return fmt.Errorf("RenewBatch item %d: %+v; model %+v, %v", i, got[i], want, werr)
			}
		}

	case p < 75: // release
		items := make([]ReleaseItem, r.size(6))
		for i := range items {
			items[i] = ReleaseItem(r.item())
		}
		r.note("ReleaseBatch(%v)", items)
		got, err := r.m.ReleaseBatch(ctx, items)
		if err != nil || len(got) != len(items) {
			return fmt.Errorf("ReleaseBatch: %d results, %v", len(got), err)
		}
		for i, it := range items {
			if want := r.ref.release(it.Name, it.Token); !sameErr(got[i].Err, want) {
				return fmt.Errorf("ReleaseBatch item %d: %v, model %v", i, got[i].Err, want)
			}
		}

	case p < 80: // get
		it := r.item()
		r.note("Get(%d)", it.Name)
		want, wok := r.ref.get(it.Name)
		got, ok := r.m.Get(it.Name)
		if ok != wok || (ok && !sameLease(got, want)) {
			return fmt.Errorf("Get: %+v, %v; model %+v, %v", got, ok, want, wok)
		}
		if ok && got.Meta != nil {
			got.Meta["scribble"] = "y"
		}

	case p < 91: // time passes
		d := time.Duration(r.rng.Intn(int(4 * time.Second)))
		if it := r.item(); r.rng.Intn(4) == 0 {
			// Land exactly on a lease's deadline, the last instant it is live.
			if left := r.ref.leases[it.Name].exp.Sub(r.clk.Now()); left > 0 {
				d = left
			}
		}
		r.note("Advance(%v)", d)
		r.clk.Advance(d)

	case p < 95: // sweep
		r.note("SweepOnce()")
		if got, want := r.m.SweepOnce(), r.ref.sweep(); got != want {
			return fmt.Errorf("SweepOnce reclaimed %d, model %d", got, want)
		}

	case p < 97: // list
		r.note("Leases()")
		if _, err := r.checkLeases(); err != nil {
			return err
		}

	case p < 98: // grow the namespace under the live table
		capacity := r.nm.Capacity() * 2
		r.note("Resize(%d)", capacity)
		if err := r.nm.Resize(capacity); err != nil {
			return err
		}
		if err := r.m.SetMaxLive(capacity); err != nil {
			return err
		}
		r.ref.maxLive = capacity

	default: // durable restart: snapshot, Shutdown, downtime, Restore
		down := time.Duration(r.rng.Intn(int(3 * time.Second)))
		r.note("Shutdown(); Advance(%v); Restore()", down)
		snapshot, err := r.checkLeases()
		if err != nil {
			return err
		}
		if err := r.m.Shutdown(); err != nil {
			return err
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

// settle compares what every step must leave equal: the counters, the
// live count and the observer events the step produced.
func (r *modelRun) settle() error {
	mt := r.m.Metrics()
	if want := r.ref.liveCount(); mt.Live != want {
		return fmt.Errorf("Metrics().Live = %d, model %d", mt.Live, want)
	}
	if mt.Acquired != r.ref.acquired || mt.Renewed != r.ref.renewed || mt.Released != r.ref.released || mt.Expired != r.ref.expired {
		return fmt.Errorf("counters acquired/renewed/released/expired = %d/%d/%d/%d, model %d/%d/%d/%d",
			mt.Acquired, mt.Renewed, mt.Released, mt.Expired, r.ref.acquired, r.ref.renewed, r.ref.released, r.ref.expired)
	}
	got, want := r.log.events, r.ref.events
	sortEvents(got)
	sortEvents(want)
	same := len(got) == len(want)
	for i := 0; same && i < len(got); i++ {
		same = got[i] == want[i]
	}
	if !same {
		return fmt.Errorf("observer events %+v, model %+v", got, want)
	}
	r.log.events, r.ref.events = got[:0], want[:0]
	return nil
}

// runModel drives steps random operations from seed and returns the first
// disagreement, with the step list when tracing.
func runModel(seed uint64, shards, steps int, tracing bool) (trace []string, err error) {
	r := &modelRun{
		rng:     xrand.NewStream(seed, 7),
		clk:     newFakeClock(),
		log:     &eventLog{},
		seed:    seed,
		shards:  shards,
		tracing: tracing,
	}
	capacity := 6 + r.rng.Intn(10)
	r.ref = &refModel{leases: map[int]refLease{}, ttl: modelTTL, maxTTL: modelMaxTTL, maxLive: capacity, now: r.clk.Now}
	if err := r.newNamer(capacity); err != nil {
		return nil, err
	}
	if r.m, err = New(r.nm, r.cfg()); err != nil {
		return nil, err
	}
	defer func() { r.m.Close() }()
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
			for seed := uint64(1); seed <= uint64(seeds/2); seed++ {
				seed := seed*2 + uint64(shards&1) // disjoint seeds per shard count
				if _, err := runModel(seed, shards, steps, false); err != nil {
					trace, _ := runModel(seed, shards, steps, true)
					t.Fatalf("seed %d, %d shards: %v\nsteps:\n  %s", seed, shards, err, strings.Join(trace, "\n  "))
				}
			}
		})
	}
}
