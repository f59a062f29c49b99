package main

import (
	"context"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"repro/internal/wire"
	"repro/leaseclient"
)

// The open loop's fixed schedule: httpRate requests per second in total,
// dealt round-robin to httpConns keep-alive connections, each request a
// renew_batch of renewBatch items. 20,000 renewals/s is about a quarter
// of what the HTTP surface sustains closed-loop, so the server idles
// between requests and latency, not throughput, is what can move.
const (
	httpRate  = 2500
	httpConns = 2
)

// sleepUntil blocks until due after start. It sleeps in the kernel
// (nanosleep, a high-resolution timer) rather than through time.Sleep:
// an otherwise idle Go process parks in epoll_wait, whose timeout counts
// whole milliseconds, so time.Sleep overshoots a sub-millisecond wait by
// most of a millisecond — more than the latency being measured.
func sleepUntil(start time.Time, due time.Duration) {
	for {
		wait := due - time.Since(start)
		if wait <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(wait))
		syscall.Nanosleep(&ts, nil)
	}
}

// runHeartbeatHTTP is the untraced window of heartbeat-http-open. Every
// request is due at a fixed instant; its latency is timed from that
// instant whether or not the generator sent it on time, and how late
// the generator ran is reported beside it.
func runHeartbeatHTTP(e *env, seed uint64, windowS int) (*window, *serverProc, []wire.Item, error) {
	srv, items, setupS, err := setUpPreloaded(e)
	if err != nil {
		return nil, nil, nil, err
	}
	walk := permute(items, seed)
	w := &window{setupS: setupS}
	// A sender parked in nanosleep holds its P until sysmon takes it back;
	// with one P to spare per sender the HTTP transport's own goroutines
	// never wait for one.
	runtime.GOMAXPROCS(runtime.NumCPU() + httpConns)
	stolen, err := measure(w, srv, renewBatch, windowS, func() (loadResult, error) {
		return openLoop(srv.httpAddr, walk, httpRate*windowS, w)
	})
	if err != nil {
		return nil, nil, nil, err
	}
	w.note("leases=%d open_loop rate=%d req/s x %d items connections=%d sender_goroutines=%d generator_late_p50_us=%.1f generator_late_p99_us=%.1f generator_cpu_us_per_op=%.2f host_steal_pct=%.2f",
		len(items), httpRate, renewBatch, httpConns, httpConns, percentile(w.lateUs, 50), percentile(w.lateUs, 99), w.clientCPUUsPerOp, stolen)
	return w, srv, walk, nil
}

// openLoop sends total requests on the fixed grid, request i on
// connection i mod httpConns, each connection driven by one goroutine
// through the stock client. It checks every verdict against the item
// sent and leaves the generator's lateness in w.
func openLoop(httpAddr string, walk []wire.Item, total int, w *window) (loadResult, error) {
	interval := time.Second / httpRate
	type conn struct {
		window               // this connection's failures
		endNs, latNs, lateNs []int64
		err                  error
	}
	conns := make([]conn, httpConns)
	start := time.Now()
	var wg sync.WaitGroup
	for g := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := &conns[g]
			tr, err := leaseclient.NewTransport("http://" + httpAddr)
			if err != nil {
				c.err = err
				return
			}
			defer tr.Close()
			req := wire.RenewBatchRequest{TTLms: leaseTTLms}
			for i := g; i < total; i += httpConns {
				due := time.Duration(i) * interval
				sleepUntil(start, due)
				pos := (i * renewBatch) % (len(walk) - renewBatch + 1)
				req.Items = walk[pos : pos+renewBatch]
				sent := time.Since(start)
				resp, err := tr.RenewBatch(context.Background(), &req)
				done := time.Since(start)
				lat, late := dueLatencyNs(int64(due), int64(sent), int64(done))
				c.endNs = append(c.endNs, int64(done))
				c.latNs = append(c.latNs, lat)
				c.lateNs = append(c.lateNs, late)
				if err != nil || len(resp.Results) != renewBatch {
					c.fail(renewBatch, "request %d: %d results: %v", i, len(resp.Results), err)
					continue
				}
				for k, res := range resp.Results {
					if res.Code != "" || res.Lease == nil || res.Lease.Name != req.Items[k].Name || res.Lease.Token != req.Items[k].Token {
						c.fail(1, "request %d item %d: code %q lease %+v, want name %d token %d",
							i, k, res.Code, res.Lease, req.Items[k].Name, req.Items[k].Token)
					}
				}
			}
		}()
	}
	wg.Wait()
	res := loadResult{start: start, ops: int64(total) * renewBatch}
	var lateNs []int64
	for i := range conns {
		c := &conns[i]
		if c.err != nil {
			return res, c.err
		}
		res.endNs = append(res.endNs, c.endNs...)
		res.latNs = append(res.latNs, c.latNs...)
		lateNs = append(lateNs, c.lateNs...)
		w.failed += c.failed
		w.violations = append(w.violations, c.violations...)
	}
	w.attempted = res.ops
	w.lateUs = toUs(lateNs)
	sort.Float64s(w.lateUs)
	return res, nil
}
