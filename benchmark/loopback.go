package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"

	"repro/internal/service"
	"repro/internal/wire"
	"repro/lease"
)

// The loopback depth is the deepest of the traced run's stacked replays:
// the benchmark's own rebuild of the server — the same stack the lease,
// service and codec depths replay in-process — put behind
// service.BinServer (and, for JSON, net/http) on real loopback sockets, in
// a process of its own so that its CPU can be read from /proc like the
// real server's. It is this same program, started again with loopbackEnv
// set. What it costs per op beyond the codec depth is the socket layer's
// share; whether the whole of it matches what the real renamed cost in the
// untraced window is the ledger's residual.

// loopbackEnv, when set, turns the program into the loopback server. Its
// value is the data directory to boot the durable stack from, or empty for
// the in-memory stack.
const loopbackEnv = "BENCHMARK_LOOPBACK_DATA_DIR"

// serveLoopback is the child's main: build the stack, listen on two
// ephemeral loopback ports, print renamed's banners (startServer parses
// them) and serve until killed.
func serveLoopback(dataDir string) error {
	st, err := newStack(dataDir)
	if err != nil {
		return err
	}
	lnHTTP, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	lnBin, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	if dataDir != "" {
		fmt.Printf("renamed: recovered %d leases from %s\n", st.restored, dataDir)
	}
	fmt.Printf("renamed: serving loopback stack on %s\n", lnHTTP.Addr())
	fmt.Printf("renamed: serving binary protocol (bin://) on %s\n", lnBin.Addr())
	go service.NewBinServer(st.core, service.BinConfig{}).Serve(lnBin)
	bind := st.core.Bind("http")
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/renew_batch", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		renewJSON(nil, r.Context(), bind, r.Body, w)
	})
	return http.Serve(lnHTTP, mux)
}

// startLoopback starts this program as the loopback server over dataDir
// ("" = in memory).
func startLoopback(dataDir string) (*serverProc, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self)
	cmd.Env = append(os.Environ(), loopbackEnv+"="+dataDir)
	return startProc(cmd)
}

// renewJSON does, call for call, what cmd/renamed's handleRenewBatch does
// around the service core: decode the request, renew, encode the per-item
// results. The loopback server's handler and the in-process JSON codec
// depth both run it.
func renewJSON(r *recorder, ctx context.Context, bind *service.Binding, in io.Reader, out io.Writer) {
	id := r.begin(spJSONDecode)
	var req wire.RenewBatchRequest
	json.NewDecoder(io.LimitReader(in, 1<<20)).Decode(&req)
	items := make([]lease.RenewItem, len(req.Items))
	for i, it := range req.Items {
		items[i] = lease.RenewItem{Name: it.Name, Token: it.Token}
	}
	r.end(id)
	id = r.begin(spService)
	vs, _ := bind.RenewBatch(ctx, wire.TTLFromMs(req.TTLms), items, nil)
	r.end(id)
	id = r.begin(spJSONEncode)
	res := wire.BatchResults{Results: make([]wire.BatchResult, len(vs))}
	for i, v := range vs {
		if v.Code != "" {
			res.Results[i] = wire.BatchResult{Error: v.Msg, Code: v.Code}
			continue
		}
		l := v.Lease
		res.Results[i].Lease = &l
	}
	json.NewEncoder(out).Encode(res)
	r.end(id)
}

// loopbackWindow is how long the loopback depth is driven: long enough
// for a few hundred ticks of /proc CPU time, short enough that the whole
// traced run stays inside a quarter of the untraced window.
const loopbackWindowS = 2

// loopbackCPU drives srv with load for the loopback window and returns
// the server process's CPU per op, in nanoseconds.
func loopbackCPU(srv *serverProc, load func() (loadResult, error)) (float64, error) {
	before, err := readProcUsage(srv.cmd.Process.Pid)
	if err != nil {
		return 0, err
	}
	res, err := load()
	if err != nil {
		return 0, fmt.Errorf("loopback depth: %w", err)
	}
	after, err := readProcUsage(srv.cmd.Process.Pid)
	if err != nil {
		return 0, err
	}
	if res.ops == 0 {
		return 0, fmt.Errorf("loopback depth: no op completed")
	}
	return (after.cpuS() - before.cpuS()) * 1e9 / float64(res.ops), nil
}
