package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"time"

	renaming "repro"
	"repro/internal/service"
	"repro/internal/telemetry"
	"repro/internal/wire"
	"repro/internal/wire/binproto"
	"repro/lease"
	"repro/lease/persist"
	"repro/leaseclient"
)

// The traced run replays the head of the untraced window's seeded op
// list in-process. Spans are kept in memory, so a replay is a fixed
// number of ops, sized to keep the whole traced run under a quarter of
// the window.
const (
	tracedFrames = capacity / renewBatch / 2 // renew frames per replay: half a pass over the walk
	tracedCycles = 4_000                     // churn cycles (x churnBatch names) per replay
	tracedCalls  = 2_000                     // unpipelined leaseclient round trips
	depthReps    = 2                         // measured rounds per depth, after one warm-up round
	depthChunks  = 20                        // slices a replay is cut into to interleave the depths
)

// stack is the server's lease stack rebuilt in-process from the same
// public constructors cmd/renamed uses, with the benchmark's two timing
// decorators where an interface allows one (namer, observer). Core holds
// Manager by concrete type, so the layers between are separated by
// replaying at increasing depth instead.
type stack struct {
	nm       *tracedNamer
	obs      *tracedObserver
	store    *persist.Store
	mgr      *lease.Manager
	core     *service.Core
	bind     *service.Binding
	restored int // leases Restore re-adopted from the journal
}

// newStack builds the stack; dataDir "" means in-memory, otherwise the
// durable configuration of churn-durable-bin booted from dataDir.
func newStack(dataDir string) (*stack, error) {
	raw, err := renaming.Open(fmt.Sprintf("levelarray?n=%d", capacity))
	if err != nil {
		return nil, err
	}
	s := &stack{nm: &tracedNamer{Namer: raw}}
	// Stripe count follows the server's GOMAXPROCS, not this process's.
	cfg := lease.Config{TTL: time.Hour, SweepInterval: -1, MaxLive: capacity, Shards: serverGOMAXPROCS()}
	if dataDir != "" {
		s.store, err = persist.Open(dataDir, persist.Options{Fsync: persist.FsyncInterval, CompactEvery: 2 * time.Second})
		if err != nil {
			return nil, err
		}
		s.obs = &tracedObserver{Observer: s.store}
		cfg.Observer = s.obs
	}
	if s.mgr, err = lease.New(s.nm, cfg); err != nil {
		return nil, err
	}
	if s.store != nil {
		if s.restored, _, err = s.mgr.Restore(s.store.State()); err != nil {
			return nil, err
		}
	}
	// With its request counters and latency histograms, as renamed wires it.
	s.core = service.New(s.mgr, service.NewTelemetry(telemetry.NewRegistry()))
	s.bind = s.core.Bind("bin")
	return s, nil
}

// trace points both decorators at rec (nil = untraced).
func (s *stack) trace(rec *recorder) {
	s.nm.rec = rec
	if s.obs != nil {
		s.obs.rec = rec
	}
}

func (s *stack) close() {
	s.mgr.Shutdown()
	if s.store != nil {
		s.store.Crash()
	}
}

// replay runs requests [lo, hi) of an op list at one depth, recording
// spans into r when it is non-nil, and returns the time spent on the
// server's side of the calls. The replays are single-goroutine and never
// block, so elapsed time is CPU time.
type replay func(r *recorder, lo, hi int) time.Duration

// measureDepths times the untraced replays of n requests carrying
// opsPerRequest ops each. Neighbouring depths differ by tens of
// nanoseconds per op out of hundreds, far less than this machine drifts
// between one pass and the next, so the depths are interleaved: the list
// is cut into slices and in every time slot each depth replays one
// slice, which puts a slow stretch of the machine on all of them alike.
// Within a slot the depths take different slices (a depth that replayed
// the slice another had just finished would find its leases already in
// cache) and over a round every depth covers every slice once. One
// warm-up round, then depthReps measured rounds. Each depth's figure is
// its median slice, in nanoseconds per op: a slice that a journal
// compaction, a collection or a neighbour landed on does not move it.
func measureDepths(n, opsPerRequest int, depths ...replay) []float64 {
	perSlice := make([][]float64, len(depths))
	chunk := (n + depthChunks - 1) / depthChunks
	for rep := -1; rep < depthReps; rep++ {
		for slot := 0; slot < depthChunks; slot++ {
			for d, pass := range depths {
				lo := min((slot+d*depthChunks/len(depths))%depthChunks*chunk, n)
				hi := min(lo+chunk, n)
				if ns := pass(nil, lo, hi); rep >= 0 && hi > lo {
					perSlice[d] = append(perSlice[d], float64(ns)/float64((hi-lo)*opsPerRequest))
				}
			}
		}
	}
	out := make([]float64, len(depths))
	for d := range out {
		out[d] = median(perSlice[d])
	}
	return out
}

// closeLedger writes the rows that tie the replays to the untraced
// window. The rows of a workload are the depths' own costs — lease,
// service, codec, socket = loopback depth - codec depth — so they add up
// to the loopback depth, and the residual is how far that sum is from what
// the real renamed cost per op in the untraced window: the benchmark's
// rebuild of the server from its public constructors, measured layer by
// layer, against the server itself. The overhead is the codec depth
// replayed with spans on — one more depth of the same interleaved rounds —
// against the same depth without.
func closeLedger(rows map[string]float64, w *window, codecNs, tracedNs, loopbackNs float64) {
	serverNs := w.windowCPUUsPerOp * 1e3
	rows["ledger.residual_pct"] = math.Abs(serverNs-loopbackNs) / serverNs * 100
	rows["trace.overhead_pct"] = (tracedNs - codecNs) / codecNs * 100
}

// withSpans is a depth replayed with its spans recorded into rec.
func withSpans(depth replay, rec *recorder) replay {
	return func(_ *recorder, lo, hi int) time.Duration { return depth(rec, lo, hi) }
}

// codecSplit divides the codec depth's own cost between decoding and
// encoding in the proportion the traced replay's median request shows.
func codecSplit(codecSelfNs float64, traced []span, decode, encode spanKind, cal clockCost) (dec, enc float64) {
	m := opMedians(traced, cal)
	return codecSelfNs * m[decode] / (m[decode] + m[encode]), codecSelfNs * m[encode] / (m[decode] + m[encode])
}

// traceRenew is the traced run of renew-bin-pipelined and
// heartbeat-http-open: both renew the same standing population, one
// through binproto and one through JSON.
func traceRenew(name string, seed uint64, srv *serverProc, walk []wire.Item, w *window, rows map[string]float64, spansOut *[]span) error {
	overHTTP := name == wlHeartbeatHTTP
	ctx := context.Background()
	cal := calibrate(100_000)

	// Unpipelined round trips against the live server, through the stock
	// client: what one polite heartbeat pays.
	target, callRow := "bin://"+srv.binAddr, "leaseclient.bin_call_us"
	if overHTTP {
		target, callRow = "http://"+srv.httpAddr, "leaseclient.http_call_us"
	}
	tr, err := leaseclient.NewTransport(target)
	if err != nil {
		return err
	}
	defer tr.Close()
	recCalls := newRecorder(tracedCalls)
	for i := 0; i < tracedCalls; i++ {
		req := wire.RenewBatchRequest{TTLms: leaseTTLms, Items: walk[i*renewBatch : (i+1)*renewBatch]}
		id := recCalls.begin(spCall)
		_, err := tr.RenewBatch(ctx, &req)
		recCalls.end(id)
		recCalls.nextOp()
		if err != nil {
			return fmt.Errorf("unpipelined renew: %w", err)
		}
	}
	rows[callRow] = opMedians(recCalls.spans, cal)[spCall] / 1e3

	// The in-process stack with the same population size and the same
	// seeded walk over it.
	st, err := newStack("")
	if err != nil {
		return err
	}
	defer st.close()
	var local []wire.Item
	for len(local) < capacity {
		ls, err := st.mgr.AcquireBatch(ctx, ownerName, preloadBatch, time.Hour, nil)
		if err != nil {
			return err
		}
		for _, l := range ls {
			local = append(local, wire.Item{Name: l.Name, Token: l.Token})
		}
	}
	local = permute(local, seed)
	frames := renewFrames(local)
	nf := len(frames)
	items := make([][]lease.RenewItem, nf)
	bodies := make([][]byte, nf)
	for f := range items {
		chunk := local[f*renewBatch : (f+1)*renewBatch]
		for _, it := range chunk {
			items[f] = append(items[f], lease.RenewItem{Name: it.Name, Token: it.Token})
		}
		if overHTTP {
			bodies[f], _ = json.Marshal(wire.RenewBatchRequest{TTLms: leaseTTLms, Items: chunk})
		}
	}
	ttl := wire.TTLFromMs(leaseTTLms)
	var verdicts []service.Verdict
	var decoded []lease.RenewItem
	var resp []byte
	var body bytes.Buffer

	leaseDepth := func(r *recorder, lo, hi int) time.Duration {
		t0 := time.Now()
		for f := lo; f < hi; f++ {
			id := r.begin(spLease)
			st.mgr.RenewBatch(ctx, items[f], ttl)
			r.end(id)
			r.nextOp()
		}
		return time.Since(t0)
	}
	serviceDepth := func(r *recorder, lo, hi int) time.Duration {
		t0 := time.Now()
		for f := lo; f < hi; f++ {
			id := r.begin(spService)
			verdicts, _ = st.bind.RenewBatch(ctx, ttl, items[f], verdicts)
			r.end(id)
			r.nextOp()
		}
		return time.Since(t0)
	}
	// The codec depth does, call for call, what the server's adapter does
	// around the service core: service.BinServer's dispatch for the binary
	// wire, cmd/renamed's handleRenewBatch for JSON.
	binCodecDepth := func(r *recorder, lo, hi int) time.Duration {
		t0 := time.Now()
		for f := lo; f < hi; f++ {
			frame := frames[f]
			id := r.begin(spDecode)
			h, _ := binproto.ParseHeader(frame[:binproto.HeaderLen])
			payload := frame[binproto.HeaderLen:]
			binproto.VerifyPayload(h, payload)
			var ttlMs int64
			ttlMs, decoded, _ = binproto.DecodeRenewBatchReq(payload, decoded)
			r.end(id)
			id = r.begin(spService)
			verdicts, _ = st.bind.RenewBatch(ctx, wire.TTLFromMs(ttlMs), decoded, verdicts)
			r.end(id)
			id = r.begin(spEncode)
			var start int
			resp, start = binproto.BeginFrame(resp[:0], binproto.TRenewBatch|binproto.RespBit, h.ID)
			resp = binproto.AppendBatchRespHeader(resp, len(verdicts))
			for i := range verdicts {
				v := &verdicts[i]
				resp = binproto.AppendRenewResult(resp, binproto.CodeByte(v.Code), int64(v.Lease.Name), v.Lease.Token, v.Lease.ExpiresAtMs)
			}
			resp = binproto.EndFrame(resp, start)
			r.end(id)
			r.nextOp()
		}
		return time.Since(t0)
	}
	jsonCodecDepth := func(r *recorder, lo, hi int) time.Duration {
		t0 := time.Now()
		for f := lo; f < hi; f++ {
			body.Reset()
			renewJSON(r, ctx, st.bind, bytes.NewReader(bodies[f]), &body)
			r.nextOp()
		}
		return time.Since(t0)
	}
	codecDepth := binCodecDepth
	if overHTTP {
		codecDepth = jsonCodecDepth
	}

	const spansPerFrame = 3 // decode, service, encode
	// A JSON request costs ten binary ones: an eighth of a pass over the
	// walk keeps the traced run inside its quarter of the window.
	n := tracedFrames
	if overHTTP {
		n /= 4
	}
	rec := newRecorder((depthReps + 1) * n * spansPerFrame)
	depth := measureDepths(n, renewBatch, leaseDepth, serviceDepth, codecDepth, withSpans(codecDepth, rec))
	loopback, err := loopbackRenew(overHTTP, seed)
	if err != nil {
		return err
	}
	self := stackSelf(append(depth[:3:3], loopback))
	rows["lease.renew_ns"] = self[0]
	rows["service.renew_ns"] = self[1]
	closeLedger(rows, w, depth[2], depth[3], loopback)
	if overHTTP {
		rows["wire.json_decode_ns"], rows["wire.json_encode_ns"] = codecSplit(self[2], rec.spans, spJSONDecode, spJSONEncode, cal)
		rows["socket.http_us"] = self[3] / 1e3
	} else {
		rows["binproto.decode_ns"], rows["binproto.encode_ns"] = codecSplit(self[2], rec.spans, spDecode, spEncode, cal)
		rows["binproto.bytes_per_op"] = float64(len(frames[0])+len(resp)) / renewBatch
		rows["socket.bin_ns"] = self[3]
	}
	if spansOut != nil {
		*spansOut = append(append(*spansOut, recCalls.spans...), rec.spans...)
	}
	return nil
}

// loopbackRenew is the deepest depth of the two renew workloads: the
// loopback server preloaded like the real one and driven by the same
// generator code on the same seeded walk. It returns the loopback server's
// CPU per renewal in nanoseconds.
func loopbackRenew(overHTTP bool, seed uint64) (float64, error) {
	srv, err := startLoopback("")
	if err != nil {
		return 0, err
	}
	defer srv.stop()
	items, err := preload(srv.binAddr, capacity)
	if err != nil {
		return 0, err
	}
	walk := permute(items, seed)
	lw := &window{}
	var ns float64
	if overHTTP {
		ns, err = loopbackCPU(srv, func() (loadResult, error) {
			return openLoop(srv.httpAddr, walk, httpRate*loopbackWindowS, lw)
		})
	} else {
		c, derr := dialBin(srv.binAddr)
		if derr != nil {
			return 0, derr
		}
		defer c.conn.Close()
		ns, err = loopbackCPU(srv, func() (loadResult, error) {
			return renewLoop(c, renewFrames(walk), walk, loopbackWindowS*time.Second, lw)
		})
	}
	if err == nil && lw.failed > 0 {
		err = fmt.Errorf("loopback depth: %d wrong outputs: %v", lw.failed, lw.violations)
	}
	return ns, err
}

// traceChurn is the traced run of churn-durable-bin: the durable stack,
// booted from a copy of the same generated journal, replaying acquire /
// release cycles at each depth.
func traceChurn(j *journal, w *window, rows map[string]float64, spansOut *[]span) error {
	ctx := context.Background()
	cal := calibrate(100_000)

	// Recovery alone: Open on a fresh copy of the journal.
	recDir := filepath.Join(j.work, "trace-recovery")
	if err := copyDir(j.dir, recDir); err != nil {
		return err
	}
	rs, err := persist.Open(recDir, persist.Options{CompactEvery: -1})
	if err != nil {
		return err
	}
	rows["persist.recovery_ms"] = float64(rs.Stats().RecoveryDuration) / float64(time.Millisecond)
	rs.Crash()

	dir := filepath.Join(j.work, "trace-stack")
	if err := copyDir(j.dir, dir); err != nil {
		return err
	}
	st, err := newStack(dir)
	if err != nil {
		return err
	}
	defer st.close()
	passStart := time.Now()
	stats0, met0 := st.store.Stats(), st.mgr.Metrics()

	release := make([]lease.ReleaseItem, 0, churnBatch)
	wireItems := make([]wire.Item, 0, churnBatch)
	var verdicts []service.Verdict
	// A refused acquire cannot happen (capacity is twice the population)
	// and would make every later number meaningless: stop the replays.
	var failed error
	leaseDepth := func(r *recorder, lo, hi int) time.Duration {
		t0 := time.Now()
		for c := lo; c < hi && failed == nil; c++ {
			id := r.begin(spLeaseAcquire)
			ls, err := st.mgr.AcquireBatch(ctx, ownerName, churnBatch, time.Hour, nil)
			r.end(id)
			if err != nil {
				failed = err
				break
			}
			release = release[:0]
			for _, l := range ls {
				release = append(release, lease.ReleaseItem{Name: l.Name, Token: l.Token})
			}
			id = r.begin(spLeaseRelease)
			st.mgr.ReleaseBatch(ctx, release)
			r.end(id)
			r.nextOp()
		}
		return time.Since(t0)
	}
	acqReq := &wire.AcquireBatchRequest{Owner: ownerName, Count: churnBatch, TTLms: leaseTTLms}
	serviceDepth := func(r *recorder, lo, hi int) time.Duration {
		t0 := time.Now()
		for c := lo; c < hi && failed == nil; c++ {
			id := r.begin(spService)
			ls, err := st.bind.AcquireBatch(ctx, acqReq)
			r.end(id)
			if err != nil {
				failed = err
				break
			}
			release = release[:0]
			for _, l := range ls {
				release = append(release, lease.ReleaseItem{Name: l.Name, Token: l.Token})
			}
			id = r.begin(spService)
			verdicts, _ = st.bind.ReleaseBatch(ctx, release, verdicts)
			r.end(id)
			r.nextOp()
		}
		return time.Since(t0)
	}
	// Codec depth: the server side of both frames of a cycle, as
	// service.BinServer's dispatch performs it. Building the release
	// request is the client's work and stays outside the clock.
	acqFrame, s0 := binproto.BeginFrame(nil, binproto.TAcquireBatch, 0)
	acqFrame = binproto.EndFrame(binproto.AppendAcquireBatchReq(acqFrame, ownerName, churnBatch, leaseTTLms, nil), s0)
	var resp, relFrame []byte
	cycleBytes := 0 // both requests and both responses of the last cycle
	codecDepth := func(r *recorder, lo, hi int) time.Duration {
		var server time.Duration
		for c := lo; c < hi && failed == nil; c++ {
			t0 := time.Now()
			id := r.begin(spDecode)
			h, _ := binproto.ParseHeader(acqFrame[:binproto.HeaderLen])
			payload := acqFrame[binproto.HeaderLen:]
			binproto.VerifyPayload(h, payload)
			owner, count, ttlMs, meta, _ := binproto.DecodeAcquireBatchReq(payload)
			r.end(id)
			id = r.begin(spService)
			ls, err := st.bind.AcquireBatch(ctx, &wire.AcquireBatchRequest{Owner: owner, Count: count, TTLms: ttlMs, Meta: meta})
			r.end(id)
			if err != nil {
				failed = err
				break
			}
			id = r.begin(spEncode)
			var start int
			resp, start = binproto.BeginFrame(resp[:0], binproto.TAcquireBatch|binproto.RespBit, h.ID)
			resp = binproto.AppendLeasesRespHeader(resp, len(ls))
			for _, l := range ls {
				resp = binproto.AppendLease(resp, int64(l.Name), l.Token, l.ExpiresAtMs)
			}
			resp = binproto.EndFrame(resp, start)
			r.end(id)
			server += time.Since(t0)
			cycleBytes = len(acqFrame) + len(resp)

			wireItems = wireItems[:0]
			for _, l := range ls {
				wireItems = append(wireItems, wire.Item{Name: l.Name, Token: l.Token})
			}
			relFrame, start = binproto.BeginFrame(relFrame[:0], binproto.TReleaseBatch, 0)
			relFrame = binproto.EndFrame(binproto.AppendReleaseBatchReq(relFrame, wireItems), start)

			t0 = time.Now()
			id = r.begin(spDecode)
			h, _ = binproto.ParseHeader(relFrame[:binproto.HeaderLen])
			payload = relFrame[binproto.HeaderLen:]
			binproto.VerifyPayload(h, payload)
			release, _ = binproto.DecodeReleaseBatchReq(payload, release)
			r.end(id)
			id = r.begin(spService)
			verdicts, _ = st.bind.ReleaseBatch(ctx, release, verdicts)
			r.end(id)
			id = r.begin(spEncode)
			resp, start = binproto.BeginFrame(resp[:0], binproto.TReleaseBatch|binproto.RespBit, h.ID)
			resp = binproto.AppendBatchRespHeader(resp, len(verdicts))
			for i := range verdicts {
				resp = append(resp, binproto.CodeByte(verdicts[i].Code))
			}
			resp = binproto.EndFrame(resp, start)
			r.end(id)
			server += time.Since(t0)
			cycleBytes += len(relFrame) + len(resp)
			r.nextOp()
		}
		return server
	}

	const spansPerCycle = 6 // decode, service, encode for each of the two frames
	recCodec := newRecorder((depthReps + 1) * tracedCycles * spansPerCycle)
	depth := measureDepths(tracedCycles, churnBatch, leaseDepth, serviceDepth, codecDepth, withSpans(codecDepth, recCodec))
	// Loopback depth: the durable stack booted from one more copy of the
	// journal, behind BinServer, under the untraced window's own loop.
	loopDir := filepath.Join(j.work, "trace-loopback")
	if err := copyDir(j.dir, loopDir); err != nil {
		return err
	}
	loopback, err := loopbackChurn(loopDir, j)
	if err != nil {
		return err
	}
	self := stackSelf(append(depth[:3:3], loopback))
	// One more lease-depth replay with the decorators on yields the namer
	// / journal / lease split.
	recLease := newRecorder(tracedCycles * (3 + 3*churnBatch))
	st.trace(recLease)
	leaseDepth(recLease, 0, tracedCycles)
	st.trace(nil)
	if failed != nil {
		return fmt.Errorf("traced replay: %w", failed)
	}
	tl := opMedians(recLease.spans, cal) // per cycle of churnBatch names
	rows["levelarray.acquire_ns"] = tl[spNamerAcquire] / churnBatch
	rows["levelarray.release_ns"] = tl[spNamerRelease] / churnBatch
	rows["persist.append_ns"] = tl[spObserve] / (2 * churnBatch) // an acquire and a release record per name
	rows["lease.acquire_ns"] = tl[spLeaseAcquire] / churnBatch
	rows["lease.release_ns"] = tl[spLeaseRelease] / churnBatch
	rows["service.churn_ns"] = self[1]
	rows["binproto.decode_ns"], rows["binproto.encode_ns"] = codecSplit(self[2], recCodec.spans, spDecode, spEncode, cal)
	rows["binproto.bytes_per_op"] = float64(cycleBytes) / churnBatch
	rows["socket.bin_ns"] = self[3]
	closeLedger(rows, w, depth[2], depth[3], loopback)

	elapsed := time.Since(passStart).Seconds()
	stats1, met1 := st.store.Stats(), st.mgr.Metrics()
	if stats1.Err != nil {
		return fmt.Errorf("traced store: %w", stats1.Err)
	}
	released := float64(met1.Released - met0.Released)
	rows["persist.bytes_per_op"] = float64(stats1.JournalBytes-stats0.JournalBytes) / released
	rows["persist.fsyncs_per_s"] = float64(stats1.Syncs-stats0.Syncs) / elapsed
	rows["persist.compactions"] = float64(stats1.Compactions - stats0.Compactions)
	rejected := float64(met1.Rejected - met0.Rejected)
	rows["lease.rejected_ratio"] = rejected / (float64(met1.Acquired-met0.Acquired) + released + rejected)

	if rows["levelarray.probes_per_acquire"], err = levelArrayProbes(); err != nil {
		return err
	}
	if spansOut != nil {
		*spansOut = append(append(*spansOut, recLease.spans...), recCodec.spans...)
	}
	return nil
}

// loopbackChurn is churn-durable-bin's deepest depth: the loopback
// server booted from dir, a copy of the generated journal. It returns the
// server's CPU per name acquired and released, in nanoseconds.
func loopbackChurn(dir string, j *journal) (float64, error) {
	srv, err := startLoopback(dir)
	if err != nil {
		return 0, err
	}
	defer srv.stop()
	if srv.recovered != standing {
		return 0, fmt.Errorf("loopback server recovered %d leases, want %d", srv.recovered, standing)
	}
	c, err := dialBin(srv.binAddr)
	if err != nil {
		return 0, err
	}
	defer c.conn.Close()
	held := &heldSet{lastToken: j.maxToken}
	for _, it := range j.held {
		held.set(it.Name)
	}
	lw := &window{}
	ns, err := loopbackCPU(srv, func() (loadResult, error) {
		return churnLoop(c, held, loopbackWindowS*time.Second, lw)
	})
	if err == nil && lw.failed > 0 {
		err = fmt.Errorf("loopback depth: %d wrong outputs: %v", lw.failed, lw.violations)
	}
	return ns, err
}

// levelArrayProbes counts TAS probes per acquired name on a counting
// LevelArray churning at the workload's occupancy, directly on the
// namer: the number the ICDCS'14 analysis bounds. Counting shares two
// atomic counters, so no timing is taken here.
func levelArrayProbes() (float64, error) {
	nm, err := renaming.Open(fmt.Sprintf("levelarray?n=%d&counting=true", capacity))
	if err != nil {
		return 0, err
	}
	ctx := context.Background()
	if _, err := nm.AcquireN(ctx, standing); err != nil {
		return 0, err
	}
	counter := nm.(interface {
		Probes() (ops, wins int64, ok bool)
	})
	before, _, _ := counter.Probes()
	for c := 0; c < tracedCycles; c++ {
		names, err := nm.AcquireN(ctx, churnBatch)
		if err != nil {
			return 0, err
		}
		for _, n := range names {
			if err := nm.Release(n); err != nil {
				return 0, err
			}
		}
	}
	after, _, _ := counter.Probes()
	return float64(after-before) / float64(tracedCycles*churnBatch), nil
}
