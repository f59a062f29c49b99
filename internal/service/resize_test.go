package service

import (
	"bufio"
	"errors"
	"net"
	"testing"
	"time"

	renaming "repro"
	"repro/internal/wire/binproto"
	"repro/lease"
)

// TestBindingResize drives grow and shrink through the service op and
// checks both components retarget together.
func TestBindingResize(t *testing.T) {
	core := newCore(t, 64, nil)
	b := core.Bind("http")

	st := b.Resize(128)
	if st.Namer != nil || st.Lease != nil {
		t.Fatalf("grow verdicts: namer=%v lease=%v", st.Namer, st.Lease)
	}
	if st.Capacity != 128 || st.MaxLive != 128 || st.Draining {
		t.Fatalf("grow status = %+v", st)
	}
	if st.Epoch == 0 {
		t.Fatal("grow did not advance the resize epoch")
	}

	st2 := b.Resize(32)
	if st2.Namer != nil || st2.Lease != nil || st2.Capacity != 32 || st2.MaxLive != 32 {
		t.Fatalf("shrink status = %+v", st2)
	}
	if st2.Epoch <= st.Epoch {
		t.Fatalf("epoch %d after shrink, want > %d", st2.Epoch, st.Epoch)
	}

	resp := st2.Wire()
	if len(resp.Results) != 2 || resp.Results[0].Component != "namer" || resp.Results[1].Component != "lease" {
		t.Fatalf("wire results = %+v", resp.Results)
	}
	for _, r := range resp.Results {
		if r.Code != "" || r.Error != "" {
			t.Fatalf("clean resize rendered failure verdict %+v", r)
		}
	}
}

// TestBindingResizeNonResizable: against a one-shot namer the namer
// verdict fails with bad_request while the lease cap still retargets —
// per-component independence, the batch per-item contract applied to
// admin ops.
func TestBindingResizeNonResizable(t *testing.T) {
	nm, err := renaming.Open("rebatching?n=64&seed=1")
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := lease.New(nm, lease.Config{TTL: time.Minute, SweepInterval: -1, MaxLive: 64})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mgr.Shutdown() })
	b := New(mgr, nil).Bind("http")
	st := b.Resize(128)
	if st.Namer == nil || !errors.Is(st.Namer, renaming.ErrBadConfig) {
		t.Fatalf("namer verdict = %v, want ErrBadConfig", st.Namer)
	}
	if st.Lease != nil {
		t.Fatalf("lease verdict = %v", st.Lease)
	}
	if st.Capacity != 0 || st.MaxLive != 128 {
		t.Fatalf("status = %+v, want no namer capacity with moved cap", st)
	}
	resp := st.Wire()
	if resp.Results[0].Code != "bad_request" || resp.Results[0].Error == "" {
		t.Fatalf("namer wire verdict = %+v", resp.Results[0])
	}
	if resp.Results[1].Code != "" {
		t.Fatalf("lease wire verdict = %+v", resp.Results[1])
	}
}

// TestBinServerResize: a resize applied through the service op (HTTP is
// its only wire entrance) reaches a live binary connection: an
// acquire_batch past the old capacity is granted, and the core reports
// the new geometry.
func TestBinServerResize(t *testing.T) {
	addr, core := startBinServer(t, 64, BinConfig{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	st := core.Bind("http").Resize(256)
	if st.Namer != nil || st.Lease != nil || st.Capacity != 256 || st.MaxLive != 256 || st.Draining {
		t.Fatalf("resize status = %+v (namer=%v lease=%v)", st, st.Namer, st.Lease)
	}

	buf, start := binproto.BeginFrame(nil, binproto.TAcquireBatch, 2)
	buf = binproto.EndFrame(binproto.AppendAcquireBatchReq(buf, "wide", 200, 60_000, nil), start)
	if _, err := conn.Write(buf); err != nil {
		t.Fatal(err)
	}
	h, p := readFrame(t, bufio.NewReader(conn))
	if h.Type != binproto.TAcquireBatch|binproto.RespBit {
		t.Fatalf("acquire_batch response header = %+v", h)
	}
	if ls, err := binproto.DecodeLeasesResp(p, nil); err != nil || len(ls) != 200 {
		t.Fatalf("acquire_batch past the old capacity = %d leases, %v", len(ls), err)
	}
	capacity, draining, epoch := core.NamespaceInfo()
	if capacity != 256 || draining || epoch != st.Epoch || core.Manager().Metrics().Resizes != 1 {
		t.Fatalf("namespace = (%d, %v, %d), resizes %d", capacity, draining, epoch, core.Manager().Metrics().Resizes)
	}
}
