package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	renaming "repro"
	"repro/internal/core"
	"repro/internal/sim"
)

// oneshotPlan sizes one of the two in-process workloads. Work is fixed
// per second of window — a round count, not a deadline — so two runs of
// the same code do the same work and differ only in how long it took.
type oneshotPlan struct {
	algs            []string // DSN drivers, one per round, cycling
	n               int      // DSN n
	acquires        int      // names drawn per round
	roundsPerSecond int      // sized to today's per-acquire cost
	// warmupRounds run before the window and count as set-up: they fault
	// the heap in and fill the caches, and they make set-up at least 0.3 s
	// of fixed seeded work beside which process start (~10 ms) is noise.
	warmupRounds int
}

var oneshotPlans = map[string]oneshotPlan{
	// ~160 ns/acquire: 95 rounds x 65,536 acquires is about one second.
	wlOneshotRebatching: {algs: []string{"rebatching"}, n: 65536, acquires: 65536, roundsPerSecond: 95, warmupRounds: 32},
	// ~4 us/acquire on both: 60 rounds x 4,096 acquires is about one second.
	wlOneshotAdaptive: {algs: []string{"adaptive", "fastadaptive"}, n: 16384, acquires: 4096, roundsPerSecond: 60, warmupRounds: 20},
}

// blockLen is how many consecutive acquires share one clock read: at
// ~160 ns per acquire a per-op time.Now would be a quarter of the cost.
const blockLen = 64

func (p oneshotPlan) dsn(round int, seed uint64, counting bool) (alg, dsn string) {
	alg = p.algs[round%len(p.algs)]
	// Every round gets its own probe-randomness stream derived from the
	// run seed; |1 keeps clear of 0, which selects the library default.
	s := (seed+1)*0x9E3779B97F4A7C15 ^ uint64(round)*0xBF58476D1CE4E5B9 | 1
	dsn = fmt.Sprintf("%s?n=%d&seed=%d", alg, p.n, s)
	if counting {
		dsn += "&counting=true"
	}
	return alg, dsn
}

// oneshotSamples is the drawer's preallocated sample storage.
type oneshotSamples struct {
	names   []int32 // this round's names
	endNs   []int64 // block completion instants, ns since window start
	blockNs []int64 // block durations
	failed  int64
}

// confineToOneCPU puts the one-shot pair on a single CPU: one P, every
// thread pinned to the first of the CPUs the server gets in the service
// workloads, and the names drawn by the one goroutine that also opens
// and checks. On this host the time a cache line takes from one virtual
// CPU to the other moves by a quarter with what the neighbours do (a
// two-thread ping-pong reads 60-100 ns one way, minute by minute), and
// with nproc goroutines drawing from one namer that transfer was two
// fifths of every acquire and more: fourteen interleaved runs read op_p50_us +-21%
// between the quartiles with nproc drawers, +-10% with one drawer and two
// Ps, +-4% on one CPU - which was also the fastest of the three in names
// per second. What a second drawer measured was the host's interconnect.
func confineToOneCPU() int {
	cpu := serverCPUs()[:1]
	runtime.GOMAXPROCS(1)
	pinProcess(os.Getpid(), cpu)
	return cpu[0]
}

// runOneshot is the untraced window of oneshot-rebatching and
// oneshot-adaptive: every round opens a fresh namer through the root API
// and draws the round's names from it with Acquire, on one CPU.
// setup_s is process start to the first measured round — the warm-up
// rounds included — plus what Open cost over all measured rounds: a
// one-shot namer is paid per use.
func runOneshot(name string, seed uint64, windowS int) (*window, error) {
	cpu := confineToOneCPU()
	p := oneshotPlans[name]
	rounds := p.roundsPerSecond * windowS
	blocksPerRound := (p.acquires + blockLen - 1) / blockLen
	sm := &oneshotSamples{
		names:   make([]int32, p.acquires),
		endNs:   make([]int64, 0, rounds*blocksPerRound),
		blockNs: make([]int64, 0, rounds*blocksPerRound),
	}
	var seen []uint32 // seen[name] == round+1 marks a name taken this round
	w := &window{}
	openUs := map[string][]float64{} // per algorithm, one Open time per measured round

	// round runs round r (negative = warm-up) with sample clocks relative
	// to origin and checks its names: every one inside the namespace and
	// distinct.
	round := func(r int, origin time.Time) error {
		alg, dsn := p.dsn(r+p.warmupRounds, seed, false)
		t0 := time.Now()
		nm, err := renaming.Open(dsn)
		if r >= 0 {
			openUs[alg] = append(openUs[alg], float64(time.Since(t0))/1e3)
		}
		if err != nil {
			return err
		}
		sm.draw(nm, origin)
		ns := nm.Namespace()
		if len(seen) < ns {
			seen = append(seen, make([]uint32, ns-len(seen))...)
		}
		mark := uint32(r + p.warmupRounds + 1)
		for _, v := range sm.names {
			switch {
			case v < 0: // Acquire failed; already counted by draw
			case int(v) >= ns:
				w.fail(1, "round %d: name %d outside namespace %d", r, v, ns)
			case seen[v] == mark:
				w.fail(1, "round %d: name %d granted twice", r, v)
			default:
				seen[v] = mark
			}
		}
		return nil
	}

	for r := -p.warmupRounds; r < 0; r++ {
		if err := round(r, processStart); err != nil {
			return nil, err
		}
	}
	sm.endNs, sm.blockNs = sm.endNs[:0], sm.blockNs[:0]
	before := selfUsage()
	steal0, total0 := hostSteal()
	sampler := sampleCPU(os.Getpid())
	start := time.Now()
	preWindow := start.Sub(processStart)
	for r := 0; r < rounds; r++ {
		if err := round(r, start); err != nil {
			sampler.finish(start)
			return nil, err
		}
	}
	elapsed := time.Since(start)
	cpuPoints := sampler.finish(start)
	after := selfUsage()

	weights := make([]int32, len(sm.endNs))
	latUs := make([]float64, len(sm.endNs))
	for i := range sm.endNs {
		// The last block of a round may be short; its weight is its size.
		n := blockLen
		if rem := p.acquires % blockLen; rem != 0 && (i%blocksPerRound) == blocksPerRound-1 {
			n = rem
		}
		weights[i] = int32(n)
		latUs[i] = float64(sm.blockNs[i]) / float64(n) / 1e3
	}
	// Open's cost has a heavy tail — most calls reuse freed memory, a few
	// fault in fresh pages or meet the collector — and a plain sum is
	// mostly tail: it moved 40% between identical runs. The summed cost is
	// therefore rounds x the trimmed mean Open of each algorithm.
	var openTotalS float64
	for _, us := range openUs {
		openTotalS += trimmedMean(us, openTrim) * float64(len(us)) / 1e6
	}
	w.failed += sm.failed
	w.attempted = int64(rounds+p.warmupRounds) * int64(p.acquires)
	w.setupS = preWindow.Seconds() + openTotalS
	// Only whole seconds count: the fixed work rarely ends on a boundary.
	w.setSamples(sm.endNs, weights, latUs, max(1, int(elapsed/time.Second)), cpuPoints, after.cpuS()-before.cpuS())
	w.clientCPUUsPerOp = w.windowCPUUsPerOp
	w.rssMB = after.hwmMB
	w.note("warmup_rounds=%d rounds=%d acquires_per_round=%d goroutines=1 gomaxprocs=1 cpu=%d elapsed=%.2fs before_first_round=%.4fs opens=%.4fs host_steal_pct=%.2f",
		p.warmupRounds, rounds, p.acquires, cpu, elapsed.Seconds(), preWindow.Seconds(), openTotalS, stealPct(steal0, total0))
	return w, nil
}

// openTrim is the share of each algorithm's Open times dropped at either
// end before averaging.
const openTrim = 0.1

// draw takes one round's names.
func (sm *oneshotSamples) draw(nm renaming.Namer, origin time.Time) {
	ctx := context.Background()
	last := time.Now()
	for i := range sm.names {
		v, err := nm.Acquire(ctx)
		if err != nil {
			v = -1
			sm.failed++
		}
		sm.names[i] = int32(v)
		if (i+1)%blockLen == 0 || i == len(sm.names)-1 {
			now := time.Now()
			sm.endNs = append(sm.endNs, int64(now.Sub(origin)))
			sm.blockNs = append(sm.blockNs, int64(now.Sub(last)))
			last = now
		}
	}
}

// tracedOneshotSpans bounds the traced replay: one span per Acquire is
// kept in memory, so the replay covers a fixed handful of rounds.
const tracedOneshotSpans = 1 << 17

// countedRounds is how many rounds per algorithm are replayed on a
// counting namer: probes per acquire barely varies between rounds, and a
// counting round costs several plain ones.
const countedRounds = 4

// replayRound opens dsn and draws n names, recording a span around Open
// (openRec) and around every Acquire (rec) when those are non-nil. It
// returns the namer, the largest name granted and the time per acquire.
func replayRound(dsn string, n int, openRec, rec *recorder) (renaming.Namer, int, float64, error) {
	id := openRec.begin(spOpen)
	nm, err := renaming.Open(dsn)
	openRec.end(id)
	if err != nil {
		return nil, 0, 0, err
	}
	ctx := context.Background()
	maxName := 0
	t0 := time.Now()
	for i := 0; i < n; i++ {
		id := rec.begin(spAcquire)
		v, err := nm.Acquire(ctx)
		rec.end(id)
		rec.nextOp()
		if err == nil && v > maxName {
			maxName = v
		}
	}
	return nm, maxName, float64(time.Since(t0)) / float64(n), nil
}

// traceOneshot replays the head of the same seeded round list three
// ways: plain (the untraced reference), with a span around Open and
// around every Acquire, and on counting namers for the exact probe count
// per acquire — counting adds two atomic counters to every probe and
// would distort any timing taken with it. Each algorithm also runs
// once under the lock-step simulator for the paper's step measure.
func traceOneshot(name string, seed uint64, w *window, rows map[string]float64, spansOut *[]span) error {
	p := oneshotPlans[name]
	rounds := max(len(p.algs), tracedOneshotSpans/p.acquires)
	cal := calibrate(100_000)
	type algAgg struct {
		spans            [spanKinds]kindTotals
		probes, acquires int64
		maxName          int
		plainNs, traced  float64
	}
	aggs := map[string]*algAgg{}
	for r := 0; r < rounds; r++ {
		alg, dsn := p.dsn(r, seed, false)
		a := aggs[alg]
		if a == nil {
			a = &algAgg{}
			aggs[alg] = a
		}
		_, _, plain, err := replayRound(dsn, p.acquires, nil, nil)
		if err != nil {
			return err
		}
		a.plainNs += plain

		openRec, rec := newRecorder(1), newRecorder(p.acquires)
		_, maxName, traced, err := replayRound(dsn, p.acquires, openRec, rec)
		if err != nil {
			return err
		}
		a.traced += traced
		a.maxName = max(a.maxName, maxName)
		for _, rec := range []*recorder{rec, openRec} {
			t := selfTimes(rec.spans, cal)
			for k := range t {
				a.spans[k].count += t[k].count
				a.spans[k].selfNs += t[k].selfNs
			}
			if spansOut != nil {
				*spansOut = append(*spansOut, rec.spans...)
			}
		}

		if a.acquires >= int64(countedRounds*p.acquires) {
			continue
		}
		_, dsn = p.dsn(r, seed, true)
		nm, _, _, err := replayRound(dsn, p.acquires, nil, nil)
		if err != nil {
			return err
		}
		ops, _, ok := nm.(interface {
			Probes() (ops, wins int64, ok bool)
		}).Probes()
		if !ok {
			return fmt.Errorf("%s: counting namer reports no probes", dsn)
		}
		a.probes += ops
		a.acquires += int64(p.acquires)
	}
	var tracedNs, plainNs, ledgerNs float64
	for alg, a := range aggs {
		acq := a.spans[spAcquire].selfNs / float64(a.spans[spAcquire].count)
		open := a.spans[spOpen].selfNs / float64(a.spans[spOpen].count)
		rows["renaming."+alg+".acquire_ns"] = acq
		rows["renaming."+alg+".open_us"] = open / 1e3
		rows["renaming."+alg+".probes_per_acquire"] = float64(a.probes) / float64(a.acquires)
		rows["renaming."+alg+".max_name_ratio"] = float64(a.maxName) / float64(p.acquires)
		tracedNs += a.traced
		plainNs += a.plainNs
		ledgerNs += (acq + open/float64(p.acquires)) / float64(len(aggs))
		if err := simSteps(alg, rows); err != nil {
			return err
		}
	}
	rows["trace.overhead_pct"] = (tracedNs - plainNs) / plainNs * 100
	cpuNs := w.windowCPUUsPerOp * 1e3
	rows["ledger.residual_pct"] = math.Abs(cpuNs-ledgerNs) / cpuNs * 100
	return nil
}

// simN and simSeed pin the simulated execution: N processes under the
// uniform (oblivious) adversary with one fixed seed, so the step counts
// are exact and repeat bit for bit on every machine.
const (
	simN    = 4096
	simSeed = 20130722 // PODC 2013
)

// simSteps runs alg once under internal/sim and reports the paper's
// complexity measure: shared-memory steps per process.
func simSteps(alg string, rows map[string]float64) error {
	var a core.Algorithm
	var err error
	switch alg {
	case "rebatching":
		a, err = core.NewReBatching(core.ReBatchingConfig{N: simN, Epsilon: 1})
	case "adaptive":
		a, err = core.NewAdaptive(core.AdaptiveConfig{Epsilon: 1, MaxLevel: core.MaxLevelFor(simN)})
	case "fastadaptive":
		a, err = core.NewFastAdaptive(core.FastAdaptiveConfig{MaxLevel: core.MaxLevelFor(simN)})
	}
	if err != nil {
		return err
	}
	res, err := sim.Run(sim.Config{N: simN, Algorithm: a, Seed: simSeed})
	if err != nil {
		return err
	}
	if err := res.UniqueNames(); err != nil {
		return fmt.Errorf("sim %s: %w", alg, err)
	}
	total := 0
	for _, s := range res.Steps {
		total += s
	}
	rows["sim."+alg+".steps_mean"] = float64(total) / float64(simN)
	rows["sim."+alg+".steps_max"] = float64(res.MaxSteps())
	return nil
}
