// Package service is the transport-neutral core of cmd/renamed: every
// operation the daemon offers — AcquireBatch, RenewBatch, ReleaseBatch,
// Resize — lives here once, and the HTTP/JSON surface and the binary
// protocol (internal/wire/binproto, served by BinServer) are thin
// adapters over the same Core. The lease operations have one shape on
// both wires, the batch: a single acquire, renew or release is a batch
// of one item. Per-item verdicts, verdict counters and per-transport
// telemetry are computed in the core, so the two surfaces cannot drift:
// a renew_batch item that reads "wrong_token" over HTTP reads
// wrong_token over the binary port, and both increment the same
// renamed_batch_item_verdicts_total series.
package service

import (
	"context"
	"fmt"
	"time"

	renaming "repro"
	"repro/internal/wire"
	"repro/lease"
)

// Core owns the lease manager and the shared telemetry. One Core serves
// any number of transport bindings.
type Core struct {
	mgr *lease.Manager
	tel *Telemetry
}

// New wraps mgr. tel may be nil (tests, embedded use): operations run
// uninstrumented but otherwise identically.
func New(mgr *lease.Manager, tel *Telemetry) *Core {
	return &Core{mgr: mgr, tel: tel}
}

// Manager exposes the underlying lease manager for lifecycle calls
// (Restore, Shutdown, Metrics) that are process concerns, not requests.
func (c *Core) Manager() *lease.Manager { return c.mgr }

// Leases lists the live table for read-only inspection. Fencing tokens
// are capabilities — only the holder may renew or release — so they are
// zeroed before the table leaves the core, on every transport.
func (c *Core) Leases() []wire.Lease {
	ls := c.mgr.Leases()
	out := make([]wire.Lease, len(ls))
	for i, l := range ls {
		entry := wire.FromLease(l)
		entry.Token = 0
		out[i] = entry
	}
	return out
}

// Verdict is one item's outcome in a batch operation: Code "" means
// success and Lease carries the extended deadline; otherwise Code is a
// JSON code from wire's code table (wire.CodeUnknownName, ...) and Msg
// the server-rendered error text.
type Verdict struct {
	Code  string
	Msg   string
	Lease wire.Lease
}

// Binding is a Core bound to one transport label ("http", "bin"): the
// same operations with the per-transport request counters and latency
// histograms pre-resolved, so the hot path never touches a CounterVec
// lock. Create one per transport at startup and reuse it.
type Binding struct {
	core *Core
	mgr  *lease.Manager
	ops  [opCount]opHandle
	// verdict counters are shared across transports (the op label is the
	// batch endpoint, not the wire) — kept here pre-resolved.
	renewVerdicts   verdictSet
	releaseVerdicts verdictSet
}

// Bind returns the Core's operations instrumented under the given
// transport label.
func (c *Core) Bind(transport string) *Binding {
	b := &Binding{core: c, mgr: c.mgr}
	if c.tel != nil {
		for op := 0; op < opCount; op++ {
			b.ops[op] = c.tel.handle(transport, opName[op])
		}
		b.renewVerdicts = c.tel.verdicts["renew_batch"]
		b.releaseVerdicts = c.tel.verdicts["release_batch"]
	}
	return b
}

// observe records one operation against the binding's transport; the
// zero opHandle (nil telemetry) is a no-op.
func (b *Binding) observe(op int, start time.Time) {
	h := b.ops[op]
	if h.reqs == nil {
		return
	}
	h.reqs.Inc()
	h.lat.Observe(time.Since(start))
}

// AcquireBatch grants count leases all-or-nothing. The context ties the
// probe sequence to the caller: a client that disconnects mid-acquire
// cancels instead of leaving behind leases nobody will renew.
func (b *Binding) AcquireBatch(ctx context.Context, req *wire.AcquireBatchRequest) ([]wire.Lease, error) {
	start := time.Now()
	defer b.observe(opAcquireBatch, start)
	ls, err := b.mgr.AcquireBatch(ctx, req.Owner, req.Count, wire.TTLFromMs(req.TTLms), req.Meta)
	if err != nil {
		return nil, err
	}
	out := make([]wire.Lease, len(ls))
	for i, l := range ls {
		out[i] = wire.FromLease(l)
	}
	return out, nil
}

// renewStack is the largest renew batch whose per-item results stay on
// the stack: a leaseclient session holding up to 16 leases heartbeats in
// one such frame, and the benchmark's pipelined frames carry 8.
const renewStack = 16

// RenewBatch is the heartbeat hot path: one call renews every lease a
// session holds, one lock visit per involved stripe. Outcomes are
// per-item and index-aligned — the call succeeds even when individual
// items fail, because a session must learn exactly which leases it
// lost; only a request that could not be processed at all (closed
// manager, context done) returns an error. items and out are caller-
// owned and reused across calls: appended into, never retained. The
// manager's results land in an array on this call's stack, so a batch
// of up to renewStack meta-less leases that fits out allocates nothing;
// a larger one pays one results slice.
func (b *Binding) RenewBatch(ctx context.Context, ttl time.Duration, items []lease.RenewItem, out []Verdict) ([]Verdict, error) {
	start := time.Now()
	defer b.observe(opRenewBatch, start)
	var stack [renewStack]lease.RenewResult
	results, err := b.mgr.RenewBatchInto(ctx, items, ttl, stack[:0])
	if err != nil {
		return out[:0], err
	}
	out = out[:0]
	for i := range results {
		rerr := results[i].Err
		code := wire.CodeOf(rerr)
		b.renewVerdicts.inc(code)
		if rerr != nil {
			out = append(out, Verdict{Code: code.String(), Msg: rerr.Error()})
			continue
		}
		out = append(out, Verdict{Lease: wire.FromLease(results[i].Lease)})
	}
	return out, nil
}

// ReleaseBatch ends many leases with per-item outcomes, mirroring
// RenewBatch — a session holding hundreds of names must not shut down
// over hundreds of round trips.
func (b *Binding) ReleaseBatch(ctx context.Context, items []lease.ReleaseItem, out []Verdict) ([]Verdict, error) {
	start := time.Now()
	defer b.observe(opReleaseBatch, start)
	results, err := b.mgr.ReleaseBatch(ctx, items)
	if err != nil {
		return out[:0], err
	}
	out = out[:0]
	for i := range results {
		rerr := results[i].Err
		code := wire.CodeOf(rerr)
		b.releaseVerdicts.inc(code)
		if rerr != nil {
			out = append(out, Verdict{Code: code.String(), Msg: rerr.Error()})
			continue
		}
		out = append(out, Verdict{})
	}
	return out, nil
}

// Capacity reads the namer's instantaneous capacity: one atomic
// geometry load on the elastic path. Kept separate from NamespaceInfo
// because the drain-state read walks the drained tail — a per-scrape
// capacity gauge must not pay for it.
//
//renamed:noalloc
func (c *Core) Capacity() int {
	if ln, ok := c.mgr.Namer().(renaming.LongLivedNamer); ok {
		return ln.Capacity()
	}
	return 0
}

// NamespaceInfo snapshots the namer side of the elastic state: current
// capacity, whether a shrink is still draining held names above its
// bound, and the resize epoch. A namer without the resizable extension
// reports a static capacity with zero drain state.
func (c *Core) NamespaceInfo() (capacity int, draining bool, epoch uint64) {
	nm := c.mgr.Namer()
	if ln, ok := nm.(renaming.LongLivedNamer); ok {
		capacity = ln.Capacity()
	}
	if rn, ok := nm.(renaming.ResizableNamer); ok {
		draining = rn.Draining()
		epoch = rn.ResizeEpoch()
	}
	return capacity, draining, epoch
}

// ResizeStatus is the outcome of one Resize call: the post-resize
// geometry plus per-component errors. The namer and the lease cap are
// retargeted independently — either can fail on its own and the other
// side's change still stands, exactly like batch per-item verdicts.
type ResizeStatus struct {
	Capacity int
	MaxLive  int64
	Epoch    uint64
	Draining bool
	Namer    error // namer capacity retarget outcome
	Lease    error // lease live-cap retarget outcome
}

// Wire renders the status as the JSON /v1/resize response body, each
// component's error classified by wire's code table.
func (s ResizeStatus) Wire() wire.ResizeResponse {
	resp := wire.ResizeResponse{
		Capacity: s.Capacity,
		MaxLive:  s.MaxLive,
		Epoch:    s.Epoch,
		Draining: s.Draining,
	}
	for _, v := range []struct {
		component string
		err       error
	}{{"namer", s.Namer}, {"lease", s.Lease}} {
		r := wire.ResizeResult{Component: v.component}
		if v.err != nil {
			r.Code = wire.CodeOf(v.err).String()
			r.Error = v.err.Error()
		}
		resp.Results = append(resp.Results, r)
	}
	return resp
}

// Resize retargets the elastic namespace to n names: the namer's
// capacity and the lease manager's live cap move together. Ordering
// keeps the cap conservative at every instant — on grow the namer
// widens before the cap rises, on shrink the cap drops before the
// namer narrows — so no reservation is ever admitted against capacity
// that does not (yet, or any longer) exist.
func (b *Binding) Resize(n int) ResizeStatus {
	start := time.Now()
	defer b.observe(opResize, start)

	nm := b.mgr.Namer()
	rn, resizable := nm.(renaming.ResizableNamer)
	var st ResizeStatus
	doNamer := func() {
		if !resizable {
			st.Namer = fmt.Errorf("service: namer %T cannot resize: %w", nm, renaming.ErrBadConfig)
			return
		}
		st.Namer = rn.Resize(n)
	}
	doLease := func() { st.Lease = b.mgr.SetMaxLive(n) }
	if n >= b.core.Capacity() {
		doNamer()
		doLease()
	} else {
		doLease()
		doNamer()
	}
	st.Capacity, st.Draining, st.Epoch = b.core.NamespaceInfo()
	st.MaxLive = int64(b.mgr.MaxLive())
	return st
}
