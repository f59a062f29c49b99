package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	renaming "repro"
	"repro/internal/wire"
	"repro/lease"
	"repro/lease/persist"
)

// setupReps is how many times a service workload is set up from nothing
// in one run; setup_s is the median, so one slow process spawn does not
// move it. The measured window runs against the last server.
const setupReps = 5

// env is what the workloads share: where the server binary is and where
// scratch data may go.
type env struct {
	root    string // repository checkout
	server  string // built cmd/renamed
	dataDir string // parent of every -data-dir
	dataOn  string // "memory (/dev/shm)" or "checkout (.bench_build)"
}

// ensureServer, on first use, builds the server, picks the data
// directory and does one untimed throw-away server start so the binary
// is in the page cache before any setup clock runs. The in-process
// workloads never call it.
func (e *env) ensureServer() error {
	if e.server != "" {
		return nil
	}
	server, err := buildServer(e.root)
	if err != nil {
		return err
	}
	// The durable workload's journal goes to a memory-backed directory
	// when one is writable: fsync on a shared disk was the noise that
	// sank the first attempt at this benchmark. The choice is recorded.
	if dir, err := os.MkdirTemp("/dev/shm", "renamed-bench-"); err == nil {
		e.dataDir, e.dataOn = dir, "memory (/dev/shm)"
	} else {
		dir = filepath.Join(e.root, buildDir, "data-"+strconv.Itoa(os.Getpid()))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		e.dataDir, e.dataOn = dir, "checkout ("+buildDir+")"
	}
	live.Lock()
	live.dirs = append(live.dirs, e.dataDir)
	live.Unlock()
	warm, err := startServer(server, "-capacity", "16")
	if err != nil {
		return fmt.Errorf("warm-up server start: %w", err)
	}
	warm.stop()
	e.server = server
	return nil
}

// memoryFlags is the server of workloads 3 and 5.
var memoryFlags = []string{"-capacity", strconv.Itoa(capacity), "-ttl", "1h"}

// setUpPreloaded is the setup of workloads 3 and 5, repeated: spawn,
// listen banners, preload every lease over bin://. It returns the last
// server, its leases and the median setup time.
func setUpPreloaded(e *env) (*serverProc, []wire.Item, float64, error) {
	var srv *serverProc
	var items []wire.Item
	var times []float64
	for rep := 0; rep < setupReps; rep++ {
		if srv != nil {
			srv.stop()
		}
		t0 := time.Now()
		var err error
		if srv, err = startServer(e.server, memoryFlags...); err != nil {
			return nil, nil, 0, err
		}
		if items, err = preload(srv.binAddr, capacity); err != nil {
			return nil, nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return srv, items, median(times), nil
}

// measure runs load against srv between two samples of the server's
// and this process's resource usage and folds the samples and the
// deltas into w. It returns the share of host CPU time stolen meanwhile,
// for the run's note line.
func measure(w *window, srv *serverProc, opsPerSample, windowS int, load func() (loadResult, error)) (hostStealPct float64, err error) {
	pid := srv.cmd.Process.Pid
	srvBefore, err := readProcUsage(pid)
	if err != nil {
		return 0, err
	}
	selfBefore := selfUsage()
	steal0, total0 := hostSteal()
	sampler := sampleCPU(pid)
	res, err := load()
	cpu := sampler.finish(res.start)
	if err != nil {
		return 0, err
	}
	hostStealPct = stealPct(steal0, total0)
	selfAfter := selfUsage()
	srvAfter, err := readProcUsage(pid)
	if err != nil {
		return 0, err
	}
	weights := make([]int32, len(res.endNs))
	for i := range weights {
		weights[i] = int32(opsPerSample)
	}
	w.ops = res.ops
	w.setSamples(res.endNs, weights, toUs(res.latNs), windowS, cpu, srvAfter.cpuS()-srvBefore.cpuS())
	w.serverDelta(srvBefore, srvAfter)
	w.clientCPUUsPerOp = (selfAfter.cpuS() - selfBefore.cpuS()) * 1e6 / float64(res.ops)
	return hostStealPct, nil
}

// runRenewBin is the untraced window of renew-bin-pipelined. It leaves
// the server running for the traced pass's unpipelined call timing.
func runRenewBin(e *env, seed uint64, windowS int) (*window, *serverProc, []wire.Item, error) {
	srv, items, setupS, err := setUpPreloaded(e)
	if err != nil {
		return nil, nil, nil, err
	}
	walk := permute(items, seed)
	frames := renewFrames(walk)
	c, err := dialBin(srv.binAddr)
	if err != nil {
		return nil, nil, nil, err
	}
	defer c.conn.Close()
	w := &window{setupS: setupS}
	stolen, err := measure(w, srv, renewBatch, windowS, func() (loadResult, error) {
		return renewLoop(c, frames, walk, time.Duration(windowS)*time.Second, w)
	})
	if err != nil {
		return nil, nil, nil, err
	}
	w.note("leases=%d frames_in_flight=%d renew_batch=%d connections=1 sender_goroutines=1 host_steal_pct=%.2f",
		len(items), renewDepth, renewBatch, stolen)
	return w, srv, walk, nil
}

// journal is the generated durable state churn-durable-bin boots from.
type journal struct {
	work     string      // this run's scratch directory; dir and every copy live in it
	dir      string      // the generated data directory
	held     []wire.Item // the standing leases the journal describes
	maxToken uint64
}

// generateJournal writes, untimed and in-process, a data directory whose
// journal holds `standing` acquisitions and no snapshot, so that booting
// a server from a copy of it costs a full replay and Restore. The store
// is abandoned the way kill -9 would leave it, after its records have
// been flushed: a graceful Close would fold the journal into a snapshot
// and there would be nothing to replay.
func generateJournal(work string, seed uint64) (*journal, error) {
	const flushEvery = 5 * time.Millisecond
	dir := filepath.Join(work, "journal")
	store, err := persist.Open(dir, persist.Options{Fsync: persist.FsyncNever, FsyncEvery: flushEvery, CompactEvery: -1})
	if err != nil {
		return nil, err
	}
	nm, err := renaming.Open(fmt.Sprintf("levelarray?n=%d&seed=%d", capacity, seed|1))
	if err != nil {
		return nil, err
	}
	mgr, err := lease.New(nm, lease.Config{TTL: time.Hour, SweepInterval: -1, MaxLive: capacity, Observer: store})
	if err != nil {
		return nil, err
	}
	j := &journal{work: work, dir: dir}
	for len(j.held) < standing {
		ls, err := mgr.AcquireBatch(context.Background(), ownerName, preloadBatch, time.Hour, nil)
		if err != nil {
			return nil, err
		}
		for _, l := range ls {
			j.held = append(j.held, wire.Item{Name: l.Name, Token: l.Token})
			j.maxToken = max(j.maxToken, l.Token)
		}
	}
	mgr.Shutdown()
	// The flush loop pushes the buffered tail to the file on its next
	// tick; wait until every record has left user space, then abandon.
	deadline := time.Now().Add(5 * time.Second)
	for {
		audit, err := persist.ReadAudit(dir)
		if err != nil {
			return nil, err
		}
		if len(audit.Leases) == standing {
			break
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("generated journal holds %d of %d leases after 5s", len(audit.Leases), standing)
		}
		time.Sleep(flushEvery)
	}
	return j, store.Crash()
}

// copyDir copies the flat data directory src to a fresh dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, ent := range entries {
		b, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, ent.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// durableFlags is the server of churn-durable-bin over dir.
func durableFlags(dir string) []string {
	return []string{"-capacity", strconv.Itoa(capacity), "-ttl", "1h",
		"-data-dir", dir, "-fsync", "interval", "-compact-every", "2s"}
}

// runChurnDurable is the untraced window of churn-durable-bin. setup_s
// is the recovery figure: boot, journal replay, Restore, listen.
func runChurnDurable(e *env, seed uint64, windowS int) (*window, *journal, error) {
	work, err := os.MkdirTemp(e.dataDir, "churn-")
	if err != nil {
		return nil, nil, err
	}
	j, err := generateJournal(work, seed)
	if err != nil {
		return nil, nil, fmt.Errorf("generating journal: %w", err)
	}
	var srv *serverProc
	var times []float64
	for rep := 0; rep < setupReps; rep++ {
		if srv != nil {
			srv.stop()
		}
		dir := filepath.Join(work, "boot-"+strconv.Itoa(rep))
		if err := copyDir(j.dir, dir); err != nil {
			return nil, nil, err
		}
		t0 := time.Now()
		if srv, err = startServer(e.server, durableFlags(dir)...); err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		if srv.recovered != standing {
			return nil, nil, fmt.Errorf("server recovered %d leases from the generated journal, want %d", srv.recovered, standing)
		}
	}
	defer srv.stop()
	c, err := dialBin(srv.binAddr)
	if err != nil {
		return nil, nil, err
	}
	defer c.conn.Close()
	held := &heldSet{lastToken: j.maxToken}
	for _, it := range j.held {
		held.set(it.Name)
	}
	w := &window{setupS: median(times)}
	stolen, err := measure(w, srv, churnBatch, windowS, func() (loadResult, error) {
		return churnLoop(c, held, time.Duration(windowS)*time.Second, w)
	})
	if err != nil {
		return nil, nil, err
	}
	w.note("data_dir=%s standing=%d capacity=%d cycles_in_flight=%d cycle_batch=%d connections=1 sender_goroutines=1 host_steal_pct=%.2f",
		e.dataOn, standing, capacity, churnDepth, churnBatch, stolen)
	return w, j, nil
}
