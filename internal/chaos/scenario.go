package chaos

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wire"
	"repro/lease/persist"
	"repro/leaseclient"
)

// Scenario is one named, composed adversary: which faults run, how many
// sessions push against them, and for how sharp a TTL.
type Scenario struct {
	Name        string
	Description string

	// Clients is how many concurrent sessions run; LeasesEach is the
	// standing lease population per session.
	Clients    int
	LeasesEach int
	// TTL is the lease TTL requested by every session (and configured as
	// the server default). Heartbeats run at TTL/3.
	TTL time.Duration

	// Proxy is the wire-level fault mix; Transport the call-level one.
	Proxy     Faults
	Transport TransportFaults
	// Crash, when set, runs the kill/restart scheduler.
	Crash *CrashSchedule
	// Skews are per-client clock offsets, assigned round-robin. Empty
	// means every client keeps real time.
	Skews []time.Duration
	// PartitionEvery/PartitionFor generate black-hole windows across the
	// fault phase, alternating client groups; zero disables.
	PartitionEvery, PartitionFor time.Duration
	// Churn is the per-tick probability (per client, ~4 ticks/sec) of
	// releasing one lease and acquiring a fresh one.
	Churn float64
	// Resize, when set, plays an operator retargeting the namespace
	// online while sessions churn against it: the server starts at
	// Resize.Base (-capacity), cycles through Resize.Steps during the
	// fault phase, and returns to Base when the heal phase begins. Every
	// applied retarget feeds the checker's capacity timeline (invariant 6).
	Resize *ResizePlan
}

// ResizePlan shapes the resize adversary.
type ResizePlan struct {
	// Base is the capacity the server boots with and returns to for the
	// heal phase.
	Base int
	// Steps are the target capacities cycled through, in order, during
	// the fault phase. Steps below the standing lease population force
	// shrink-below-live: holders drain out while fresh acquires bounce
	// off the cap.
	Steps []int
	// Every is the nominal interval between retargets; each wait adds
	// seeded jitter of up to a quarter interval.
	Every time.Duration
}

// Options configures one run of a scenario.
type Options struct {
	// Seed parameterizes every random stream in the run. The same seed
	// reproduces the same fault schedule.
	Seed uint64
	// Duration is the whole run, heal phase included.
	Duration time.Duration
	// Binary is the renamed binary to run.
	Binary string
	// WorkDir holds the data directory; it must exist. A temp dir.
	WorkDir string
	// Transport selects the wire under test: "bin" (default) or "http".
	Transport string
	// Inject re-introduces a known-fixed bug so the harness can prove it
	// still catches it. Known values:
	//   no-call-timeout — sessions run with CallTimeout disabled, the
	//     pre-fix behavior where a black-holed call wedges forever.
	Inject string
	// Log receives progress lines; nil discards them.
	Log io.Writer
}

// Report is the machine-readable outcome of one run.
type Report struct {
	Scenario    string         `json:"scenario"`
	Description string         `json:"description"`
	Seed        uint64         `json:"seed"`
	Transport   string         `json:"transport"`
	Inject      string         `json:"inject,omitempty"`
	Start       time.Time      `json:"start"`
	Duration    time.Duration  `json:"duration_ns"`
	Clients     int            `json:"clients"`
	Checker     CheckerStats   `json:"checker"`
	Proxy       ProxyStats     `json:"proxy"`
	CallFaults  TransportStats `json:"call_faults"`
	// TransportErrors aggregates every session's failed round trips —
	// the evidence that injected corruption was DETECTED, not absorbed.
	TransportErrors int64       `json:"transport_errors"`
	Crashes         int64       `json:"crashes"`
	Resizes         int64       `json:"resizes,omitempty"`
	Violations      []Violation `json:"violations"`
	AuditLive       int         `json:"audit_live_leases"`
	AuditToken      uint64      `json:"audit_max_token"`
	AuditTorn       int64       `json:"audit_torn_bytes"`
	// ServerMetrics is the server's /metrics text exposition at teardown.
	ServerMetrics string `json:"server_metrics,omitempty"`
	Pass          bool   `json:"pass"`
}

// Print renders the human summary.
func (r *Report) Print(w io.Writer) {
	status := "PASS"
	if !r.Pass {
		status = "FAIL"
	}
	fmt.Fprintf(w, "chaos %s: %s (seed %d, %s, %v, %d clients)\n",
		r.Scenario, status, r.Seed, r.Transport, r.Duration.Round(time.Millisecond), r.Clients)
	fmt.Fprintf(w, "  leases: %d acquired, %d released, %d lost, %d names, max token %d\n",
		r.Checker.Acquired, r.Checker.Released, r.Checker.Lost, r.Checker.Names, r.Checker.MaxToken)
	fmt.Fprintf(w, "  proxy: %d conns, %d chunks, %d dropped, %d delayed, %d reordered, %d resets, %d corrupted, %d blackholed\n",
		r.Proxy.Conns, r.Proxy.Chunks, r.Proxy.Dropped, r.Proxy.Delayed, r.Proxy.Reordered, r.Proxy.Resets, r.Proxy.Corrupted, r.Proxy.Blackholed)
	if r.Proxy.Corrupted > 0 {
		fmt.Fprintf(w, "  corruption: %d chunks damaged, %d transport errors observed\n",
			r.Proxy.Corrupted, r.TransportErrors)
	}
	fmt.Fprintf(w, "  calls: %d dup renews, %d dup releases, %d deferred; crashes: %d\n",
		r.CallFaults.DupRenews, r.CallFaults.DupReleases, r.CallFaults.Deferred, r.Crashes)
	if r.Resizes > 0 {
		fmt.Fprintf(w, "  resizes: %d capacity retargets applied\n", r.Resizes)
	}
	fmt.Fprintf(w, "  audit: %d live leases, watermark %d, %d torn bytes\n",
		r.AuditLive, r.AuditToken, r.AuditTorn)
	if len(r.Violations) == 0 {
		fmt.Fprintf(w, "  invariants: all clean\n")
		return
	}
	fmt.Fprintf(w, "  VIOLATIONS (%d):\n", len(r.Violations))
	for _, v := range r.Violations {
		fmt.Fprintf(w, "    [%s] %s\n", v.Invariant, v.Detail)
	}
}

// Scenarios is the named-adversary registry, keyed by name.
func Scenarios() map[string]Scenario {
	list := []Scenario{
		{
			Name:        "healthy",
			Description: "no faults at all — the baseline every invariant must trivially pass",
			Clients:     4, LeasesEach: 8, TTL: 3 * time.Second,
			Churn: 0.3,
		},
		{
			Name:        "lossy",
			Description: "dropped and delayed chunks with occasional mid-frame resets",
			Clients:     5, LeasesEach: 10, TTL: 3 * time.Second,
			Proxy: Faults{Drop: 0.03, Delay: 0.25, DelayMax: 40 * time.Millisecond, Reset: 0.004},
			Churn: 0.3,
		},
		{
			Name:        "corrupt",
			Description: "bytes flipped in flight — framing intact, content damaged; every corruption must be caught by the payload CRC, never accepted as data",
			Clients:     5, LeasesEach: 10, TTL: 3 * time.Second,
			Proxy: Faults{Corrupt: 0.04, Delay: 0.15, DelayMax: 25 * time.Millisecond},
			Churn: 0.3,
		},
		{
			Name:        "partition",
			Description: "alternating client groups black-holed for windows shorter than the TTL",
			Clients:     6, LeasesEach: 8, TTL: 4 * time.Second,
			Proxy:          Faults{Groups: 2},
			PartitionEvery: 4 * time.Second, PartitionFor: 1500 * time.Millisecond,
			Churn: 0.2,
		},
		{
			Name:        "crash-storm",
			Description: "SIGKILL and restart against the same data dir, fsync always",
			Clients:     4, LeasesEach: 8, TTL: 5 * time.Second,
			Crash: &CrashSchedule{MinUp: 1500 * time.Millisecond, MaxUp: 3 * time.Second,
				MinDown: 200 * time.Millisecond, MaxDown: 700 * time.Millisecond},
			Churn: 0.2,
		},
		{
			Name:        "skew",
			Description: "client clocks offset both directions; schedules shift, safety must not",
			Clients:     5, LeasesEach: 8, TTL: 6 * time.Second,
			Skews: []time.Duration{-2 * time.Second, -time.Second, 0, time.Second, 2 * time.Second},
			Churn: 0.3,
		},
		{
			Name:        "dup-reorder",
			Description: "duplicated renew/release calls over a delaying, reordering wire",
			Clients:     5, LeasesEach: 10, TTL: 3 * time.Second,
			Proxy:     Faults{Delay: 0.3, DelayMax: 30 * time.Millisecond, Reorder: 0.05},
			Transport: TransportFaults{DupRenew: 0.2, DupRelease: 0.2, Defer: 0.2, DeferMax: 40 * time.Millisecond},
			Churn:     0.4,
		},
		{
			Name:        "resize-churn",
			Description: "online grow/shrink retargets racing lease churn over a delaying wire — no grant may exceed the instantaneous capacity, and every shrink must eventually quiesce",
			Clients:     5, LeasesEach: 8, TTL: 3 * time.Second,
			Proxy:  Faults{Delay: 0.2, DelayMax: 25 * time.Millisecond},
			Churn:  0.5,
			Resize: &ResizePlan{Base: 64, Steps: []int{192, 48, 256, 32, 128}, Every: 2 * time.Second},
		},
		{
			Name:        "kitchen-sink",
			Description: "everything at once: loss, partitions, crashes, skew, duplication",
			Clients:     6, LeasesEach: 8, TTL: 5 * time.Second,
			Proxy:          Faults{Drop: 0.015, Delay: 0.2, DelayMax: 30 * time.Millisecond, Reset: 0.002, Groups: 2},
			Transport:      TransportFaults{DupRenew: 0.1, DupRelease: 0.1, Defer: 0.1, DeferMax: 30 * time.Millisecond},
			Crash:          &CrashSchedule{MinUp: 4 * time.Second, MaxUp: 8 * time.Second, MinDown: 200 * time.Millisecond, MaxDown: 600 * time.Millisecond},
			Skews:          []time.Duration{-time.Second, 0, time.Second},
			PartitionEvery: 6 * time.Second, PartitionFor: 1200 * time.Millisecond,
			Churn: 0.25,
		},
	}
	m := make(map[string]Scenario, len(list))
	for _, s := range list {
		m[s.Name] = s
	}
	return m
}

// ScenarioNames lists the registry in stable order.
func ScenarioNames() []string {
	return slices.Sorted(maps.Keys(Scenarios()))
}

// freePorts reserves two distinct ephemeral ports and releases them for
// the server to bind: the addresses stay stable across crash restarts.
func freePorts() (httpAddr, binAddr string, err error) {
	var addrs [2]string
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return "", "", err
		}
		defer ln.Close()
		addrs[i] = ln.Addr().String()
	}
	return addrs[0], addrs[1], nil
}

// plan is a run's schedule, a pure function of the scenario and options.
type plan struct {
	sc Scenario
	// opts has Duration raised to the 4x TTL floor and Transport
	// defaulted: the proxy fronts that listener, sessions dial that scheme.
	opts        Options
	faultPhase  time.Duration // the rest of the run is the heal phase
	faults      Faults        // the scenario's wire faults plus this seed's partitions
	excused     []excuse      // crash windows register as they happen
	callTimeout time.Duration
}

// excuse is a fault window the checker excuses, [from, to) after start.
type excuse struct {
	from, to time.Duration
	kind     string
}

func (p *plan) logf(format string, args ...any) {
	if p.opts.Log != nil {
		fmt.Fprintf(p.opts.Log, "chaos: "+format+"\n", args...)
	}
}

// run is one scenario from boot to verdict.
type run struct {
	*plan
	httpAddr, dataDir string
	srv               *Server
	proxy             *Proxy
	active            atomic.Bool // the fault gate the proxy and call wrappers share
	start             time.Time
	checker           *Checker
	clients           []*clientRun
	resizes           atomic.Int64
}

type clientRun struct {
	sess  *leaseclient.Session
	hooks *Client
	ft    *FaultTransport
}

// Run executes one scenario end to end: real server process, fault
// proxy, real sessions, invariant checker, post-run journal audit.
// Nothing starts until the schedule is valid.
func Run(ctx context.Context, sc Scenario, opts Options) (*Report, error) {
	p, err := schedule(sc, opts)
	if err != nil {
		return nil, err
	}
	if p.opts.Duration != opts.Duration {
		p.logf("duration raised to %v (4x TTL %v)", p.opts.Duration, sc.TTL)
	}
	r := &run{plan: p}
	defer r.teardown()
	if err := r.boot(); err != nil {
		return nil, err
	}
	if err := r.drive(ctx); err != nil {
		return nil, err
	}
	return r.judge()
}

// schedule checks the options and fixes the heal boundary, the
// partition windows, the windows the checker excuses and the call bound.
func schedule(sc Scenario, opts Options) (*plan, error) {
	switch opts.Transport {
	case "":
		opts.Transport = "bin"
	case "bin", "http":
	default:
		return nil, fmt.Errorf("chaos: transport %q (want bin or http)", opts.Transport)
	}
	p := &plan{sc: sc, opts: opts, faults: sc.Proxy, callTimeout: sc.TTL / 4}
	switch opts.Inject {
	case "":
	case "no-call-timeout":
		p.callTimeout = -1 // the pre-fix unbounded client
	default:
		return nil, fmt.Errorf("chaos: unknown injection %q", opts.Inject)
	}
	if rp := sc.Resize; rp != nil && (rp.Base <= 0 || len(rp.Steps) == 0 || rp.Every <= 0) {
		return nil, fmt.Errorf("chaos: degenerate resize plan %+v", *rp)
	}
	if p.opts.Duration < 4*sc.TTL {
		// The heal phase alone needs ~2 TTLs for sessions to recover and
		// prove invariant 5 fairly.
		p.opts.Duration = 4 * sc.TTL
	}

	// The run's last quarter (at least 2 TTLs) is the heal phase: every
	// fault goes quiet so sessions must demonstrably recover.
	p.faultPhase = p.opts.Duration * 3 / 4
	if p.opts.Duration-p.faultPhase < 2*sc.TTL {
		p.faultPhase = p.opts.Duration - 2*sc.TTL
	}
	// Probabilistic faults cover the whole fault phase.
	if sc.Proxy.Drop > 0 || sc.Proxy.Delay > 0 || sc.Proxy.Reorder > 0 ||
		sc.Proxy.Reset > 0 || sc.Proxy.Corrupt > 0 ||
		sc.Transport.DupRenew > 0 || sc.Transport.DupRelease > 0 || sc.Transport.Defer > 0 {
		p.excused = append(p.excused, excuse{0, p.faultPhase + sc.TTL, "probabilistic"})
	}
	if sc.PartitionEvery > 0 {
		if p.faults.Groups < 2 {
			p.faults.Groups = 2
		}
		r := rng(opts.Seed, "partitions")
		group := 0
		for at := sc.PartitionEvery; at+sc.PartitionFor < p.faultPhase; at += sc.PartitionEvery + durBetween(r, 0, sc.PartitionEvery/2) {
			p.faults.Partitions = append(p.faults.Partitions, Window{At: at, For: sc.PartitionFor, Group: group})
			// A partition can starve heartbeats into the next TTL; pad the
			// window by one TTL so recovery-phase losses stay excused.
			p.excused = append(p.excused, excuse{at, at + sc.PartitionFor + sc.TTL, "partition"})
			group = (group + 1) % p.faults.Groups
		}
	}
	if slices.ContainsFunc(sc.Skews, func(d time.Duration) bool { return d != 0 }) {
		// A skewed clock shifts schedules for the whole run.
		p.excused = append(p.excused, excuse{0, p.opts.Duration, "skew"})
	}
	return p, nil
}

// boot reserves the server's ports, makes the data dir, and starts the
// server and the proxy in front of the listener under test.
func (r *run) boot() error {
	httpAddr, binAddr, err := freePorts()
	if err != nil {
		return err
	}
	r.httpAddr = httpAddr
	r.dataDir = filepath.Join(r.opts.WorkDir, "data")
	if err := os.MkdirAll(r.dataDir, 0o755); err != nil {
		return err
	}
	srvCfg := ServerConfig{
		Binary:   r.opts.Binary,
		DataDir:  r.dataDir,
		HTTPAddr: r.httpAddr,
		BinAddr:  binAddr,
		TTL:      r.sc.TTL,
		Stdout:   r.opts.Log,
	}
	if r.sc.Resize != nil {
		srvCfg.Capacity = r.sc.Resize.Base
	}
	if r.srv, err = StartServer(srvCfg); err != nil {
		return err
	}
	r.start = clock()
	upstream := binAddr
	if r.opts.Transport == "http" {
		upstream = r.httpAddr
	}
	r.active.Store(true)
	if r.proxy, err = NewProxy(upstream, r.opts.Seed, r.faults, &r.active); err != nil {
		return err
	}
	r.logf("server on %s (http) / %s (bin), proxy on %s -> %s, %d partition windows",
		r.httpAddr, binAddr, r.proxy.Addr(), upstream, len(r.faults.Partitions))
	return nil
}

// teardown is the run's one unwind: it stops whatever boot started.
func (r *run) teardown() {
	if r.proxy != nil {
		r.proxy.Close()
	}
	if r.srv != nil {
		r.srv.Stop(10 * time.Second)
	}
}

// drive opens and seeds the sessions, runs the crash, churn, resize and
// sampler drivers through the fault phase, and heals until time is up.
func (r *run) drive(ctx context.Context) error {
	r.checker = NewChecker(r.sc.TTL)
	if r.sc.Resize != nil {
		// Seed the capacity timeline before any grant can be judged
		// against it.
		r.checker.CapacityChanged(r.start, r.sc.Resize.Base)
	}
	for _, e := range r.excused {
		r.checker.Fault(r.start.Add(e.from), r.start.Add(e.to), e.kind)
	}

	// Sessions dial through the proxy, each with its own seeded jitter
	// and (possibly skewed) clock.
	target := r.opts.Transport + "://" + r.proxy.Addr()
	r.clients = make([]*clientRun, r.sc.Clients)
	for i := range r.clients {
		hooks := r.checker.Client(i)
		var skew time.Duration
		if len(r.sc.Skews) > 0 {
			skew = r.sc.Skews[i%len(r.sc.Skews)]
		}
		inner, err := leaseclient.NewTransportTimeout(target, r.callTimeout)
		if err != nil {
			return err
		}
		ft := WrapTransport(inner, r.opts.Seed, fmt.Sprintf("client/%d", i), r.sc.Transport, &r.active)
		sess, err := leaseclient.NewSession(leaseclient.Config{
			Transport:   ft,
			Owner:       fmt.Sprintf("chaos-%d", i),
			TTL:         r.sc.TTL,
			CallTimeout: r.callTimeout,
			Now:         SkewedClock(skew),
			Rand:        rng(r.opts.Seed, fmt.Sprintf("session/%d", i)).Float64,
			OnLost:      hooks.LostFunc(),
		})
		if err != nil {
			return err
		}
		r.clients[i] = &clientRun{sess: sess, hooks: hooks, ft: ft}
	}

	// Seed the lease population. The server may be mid-crash already in
	// pathological schedules, so acquire with patience.
	for i, cr := range r.clients {
		ls, err := cr.sess.AcquireN(ctx, r.sc.LeasesEach)
		for attempt := 1; err != nil && attempt < 10; attempt++ {
			time.Sleep(200 * time.Millisecond)
			ls, err = cr.sess.AcquireN(ctx, r.sc.LeasesEach)
		}
		if err != nil {
			r.logf("client %d failed to seed its leases", i)
			continue
		}
		cr.hooks.Acquired(ls...)
	}

	runCtx, cancelRun := context.WithDeadline(ctx, r.start.Add(r.opts.Duration))
	defer cancelRun()
	faultCtx, cancelFaults := context.WithDeadline(ctx, r.start.Add(r.faultPhase))
	defer cancelFaults()

	var wg sync.WaitGroup
	spawn := func(f func()) {
		wg.Add(1)
		go func() { defer wg.Done(); f() }()
	}
	var crashErr error
	if r.sc.Crash != nil {
		spawn(func() {
			crashErr = r.srv.CrashLoop(faultCtx, r.opts.Seed, *r.sc.Crash,
				func(t time.Time) {
					// Downtime plus a TTL of recovery grace is an excused
					// window; the next onUp only narrows it.
					r.checker.Fault(t, t.Add(r.sc.TTL*2), "crash")
					r.logf("server killed")
				},
				func(time.Time) { r.logf("server restarted") })
		})
	}
	for i, cr := range r.clients {
		spawn(func() { r.churn(faultCtx, runCtx, i, cr) })
	}
	if r.sc.Resize != nil {
		spawn(func() { r.resize(faultCtx) })
	}
	// Sampler: refresh belief expiries from every session.
	spawn(func() {
		ticker := time.NewTicker(25 * time.Millisecond)
		defer ticker.Stop()
		for {
			select {
			case <-runCtx.Done():
				return
			case <-ticker.C:
				r.observe()
			}
		}
	})

	<-faultCtx.Done()
	r.active.Store(false)
	r.logf("fault phase over (%v); healing from proxy %+v", r.faultPhase.Round(time.Millisecond), r.proxy.Stats())
	<-runCtx.Done()
	// Churn, crash and resize stopped with the fault phase, so only a
	// wedged round trip (the injected-bug case) can still be in flight:
	// severing releases it and the run ends on its clock. Sessions redial
	// through the still-open proxy.
	r.proxy.SeverConns()
	wg.Wait()
	if crashErr != nil {
		return fmt.Errorf("chaos: crash scheduler: %w", crashErr)
	}
	return nil
}

// observe hands every session's held leases to the checker, each sample
// stamped before it is read (arguments are evaluated left to right).
func (r *run) observe() {
	for _, cr := range r.clients {
		cr.hooks.Observe(clock(), cr.sess.Leases())
	}
}

// churn is client i's driver: each ~4 Hz tick of the fault phase, with
// the scenario's probability, it swaps one held lease for a fresh one.
func (r *run) churn(faultCtx, runCtx context.Context, i int, cr *clientRun) {
	rnd := rng(r.opts.Seed, fmt.Sprintf("churn/%d", i))
	ticker := time.NewTicker(250 * time.Millisecond)
	defer ticker.Stop()
	for {
		select {
		case <-faultCtx.Done():
			return
		case <-ticker.C:
		}
		if rnd.Float64() >= r.sc.Churn {
			continue
		}
		held := cr.sess.Leases()
		if len(held) == 0 {
			continue
		}
		victim := held[rnd.IntN(len(held))]
		cr.hooks.ReleaseSent(victim.Name, victim.Token)
		// A failed release is interesting, not an error: either the
		// server refused (already gone) or the transport dropped it and
		// the session re-adopted the lease, whose belief then resumes.
		if err := cr.sess.Release(runCtx, victim.Name); err != nil {
			if slices.ContainsFunc(cr.sess.Leases(), func(l leaseclient.Lease) bool {
				return l.Name == victim.Name && l.Token == victim.Token
			}) {
				cr.hooks.readopted(victim.Name, victim.Token)
			}
			continue
		}
		if ls, err := cr.sess.AcquireN(runCtx, 1); err == nil {
			cr.hooks.Acquired(ls...)
		}
	}
}

// resize retargets the namespace through the fault phase on a seeded
// cadence, then returns it to base for the heal phase. The admin calls
// go DIRECTLY to the server, not through the proxy — resize is operator
// traffic, not the wire under test, and judging invariant 6 against a
// capacity report the proxy delayed or dropped would test the harness,
// not the server.
func (r *run) resize(faultCtx context.Context) {
	plan := r.sc.Resize
	rnd := rng(r.opts.Seed, "resize")
	for step := 0; ; step++ {
		wait := plan.Every + durBetween(rnd, 0, plan.Every/4)
		select {
		case <-faultCtx.Done():
			// Heal: the recovery phase runs against the base geometry,
			// with whatever drain the last shrink left.
			if st, err := postResize(r.httpAddr, plan.Base); err == nil {
				r.checker.CapacityChanged(clock(), st.Capacity)
				r.resizes.Add(1)
			}
			return
		case <-time.After(wait):
		}
		target := plan.Steps[step%len(plan.Steps)]
		st, err := postResize(r.httpAddr, target)
		if err != nil {
			r.logf("resize to %d failed: %v", target, err)
			continue
		}
		r.checker.CapacityChanged(clock(), st.Capacity)
		r.resizes.Add(1)
		r.logf("resized to %d (epoch %d, draining %v)", st.Capacity, st.Epoch, st.Draining)
	}
}

// judge closes the sessions, stops the server gracefully, audits its
// journal, and checks the invariants.
func (r *run) judge() (*Report, error) {
	// Final observation sweep, then freeze the run clock for invariants.
	r.observe()
	end := clock()

	for _, cr := range r.clients {
		for _, l := range cr.sess.Leases() {
			cr.hooks.ReleaseSent(l.Name, l.Token)
		}
		cr.hooks.Closed()
		cr.sess.Close()
	}
	quiesce := r.quiesce()

	// Server metrics snapshot, then the graceful stop and the read-only
	// audit of what the disk says happened.
	serverMetrics := scrapeMetrics(r.httpAddr)
	crashes := r.srv.Kills()
	if err := r.srv.Stop(10 * time.Second); err != nil {
		r.logf("graceful stop: %v", err)
	}
	audit, err := persist.ReadAudit(r.dataDir)
	if err != nil {
		return nil, fmt.Errorf("chaos: post-run audit: %w", err)
	}

	violations := append(r.checker.Finish(end, audit), quiesce...)

	// Corruption-detection expectation: the CRC gate must convert every
	// damaged chunk into an observable error. If the proxy flipped bytes
	// and NO session ever saw a round trip fail, damaged frames were
	// accepted as data — a fail-open checksum, and a violation in its
	// own right even when the lease invariants happen to hold.
	var transportErrs int64
	var calls TransportStats
	for _, cr := range r.clients {
		transportErrs += cr.sess.Stats().TransportErrors
		st := cr.ft.Stats()
		calls.DupRenews += st.DupRenews
		calls.DupReleases += st.DupReleases
		calls.Deferred += st.Deferred
	}
	if ps := r.proxy.Stats(); ps.Corrupted > 0 && transportErrs == 0 {
		violations = append(violations, Violation{
			Invariant: "corruption-detected",
			Detail: fmt.Sprintf("proxy corrupted %d chunks but no session observed a transport error — damaged frames were accepted silently",
				ps.Corrupted),
			Time: end,
		})
	}

	return &Report{
		Scenario:        r.sc.Name,
		Description:     r.sc.Description,
		Seed:            r.opts.Seed,
		Transport:       r.opts.Transport,
		Inject:          r.opts.Inject,
		Start:           r.start,
		Duration:        clock().Sub(r.start),
		Clients:         r.sc.Clients,
		Checker:         r.checker.Stats(),
		Proxy:           r.proxy.Stats(),
		CallFaults:      calls,
		Crashes:         crashes,
		Resizes:         r.resizes.Load(),
		Violations:      violations,
		AuditLive:       len(audit.Leases),
		AuditToken:      audit.MaxToken,
		AuditTorn:       audit.TornBytes,
		ServerMetrics:   serverMetrics,
		TransportErrors: transportErrs,
		Pass:            len(violations) == 0,
	}, nil
}

// quiesce is the shrink-quiesce check (resize runs only): with every
// session closed, a name still draining above the base bound is an
// expired straggler the sweeper must reclaim within a couple of TTLs; a
// drain that never clears means the shrink wedged. The probe is an
// idempotent same-capacity resize, whose response reports the drain.
func (r *run) quiesce() []Violation {
	if r.sc.Resize == nil {
		return nil
	}
	deadline := clock().Add(2*r.sc.TTL + 2*time.Second)
	for {
		st, err := postResize(r.httpAddr, r.sc.Resize.Base)
		if err == nil && !st.Draining {
			return nil
		}
		if clock().After(deadline) {
			detail := "shrink never quiesced: drain state still set after every session released and expiries passed"
			if err != nil {
				detail = fmt.Sprintf("shrink-quiesce probe failed: %v", err)
			}
			r.logf("shrink-quiesce: %s", detail)
			return []Violation{{Invariant: "shrink-quiesces", Detail: detail, Time: clock()}}
		}
		time.Sleep(200 * time.Millisecond)
	}
}

// postResize drives one capacity retarget through the server's admin
// endpoint. The endpoint answers 200 with per-component verdicts even
// when a component refused (the batch per-item contract); a verdict
// failure is surfaced as an error here because the chaos driver only
// ever asks for retargets the elastic server must accept.
func postResize(httpAddr string, n int) (wire.ResizeResponse, error) {
	var out wire.ResizeResponse
	body, err := json.Marshal(wire.ResizeRequest{Capacity: n})
	if err != nil {
		return out, err
	}
	client := &http.Client{Timeout: 2 * time.Second}
	resp, err := client.Post("http://"+httpAddr+"/v1/resize", "application/json", bytes.NewReader(body))
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("resize to %d: HTTP %d", n, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return out, err
	}
	for _, r := range out.Results {
		if r.Code != "" {
			return out, fmt.Errorf("resize to %d: %s refused: %s (%s)", n, r.Component, r.Error, r.Code)
		}
	}
	return out, nil
}

// scrapeMetrics fetches the server's /metrics exposition directly (not
// through the proxy) for the report; best-effort.
func scrapeMetrics(httpAddr string) string {
	client := &http.Client{Timeout: 2 * time.Second}
	resp, err := client.Get("http://" + httpAddr + "/metrics")
	if err != nil {
		return ""
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil || resp.StatusCode != http.StatusOK {
		return ""
	}
	return string(body)
}
