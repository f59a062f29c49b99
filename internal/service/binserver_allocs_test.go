package service

import (
	"context"
	"fmt"
	"io"
	"net"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/wire"
	"repro/internal/wire/binproto"
)

// TestBinServerRenewFrameAllocs pins the heartbeat path end to end: a real
// BinServer, with telemetry, serves pipelined 8-item renew frames over
// loopback at depths 1 and 8 with no heap allocation per frame once its
// connection buffers have grown, and answers each burst with one socket
// write. Allocations are counted process-wide, so the client side is
// allocation-free too: prebuilt request bytes, one response buffer.
func TestBinServerRenewFrameAllocs(t *testing.T) {
	core := newCore(t, 64, NewTelemetry(telemetry.NewRegistry()))
	const perFrame = 8
	ls, err := core.Bind("test").AcquireBatch(context.Background(),
		&wire.AcquireBatchRequest{Owner: "hb", Count: perFrame, TTLms: 60_000})
	if err != nil {
		t.Fatal(err)
	}
	items := make([]wire.Item, len(ls))
	for i, l := range ls {
		items[i] = wire.Item{Name: l.Name, Token: l.Token}
	}

	srv := NewBinServer(core, BinConfig{})
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	served, done := make(chan *countingConn, 1), make(chan struct{})
	go func() {
		defer close(done)
		conn, err := ln.Accept()
		if err != nil {
			close(served)
			return
		}
		cc := &countingConn{Conn: conn}
		served <- cc
		srv.serveConn(cc)
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { conn.Close(); <-done }()
	cc, ok := <-served
	if !ok {
		t.Fatal("accept failed")
	}

	for _, depth := range []int{1, 8} {
		t.Run(fmt.Sprintf("depth=%d", depth), func(t *testing.T) {
			var burst []byte
			for id := 1; id <= depth; id++ {
				var start int
				burst, start = binproto.BeginFrame(burst, binproto.TRenewBatch, uint64(id))
				burst = binproto.EndFrame(binproto.AppendRenewBatchReq(burst, 60_000, items), start)
			}
			// Every response frame has the same length: 8 results, all OK.
			frameLen := len(binproto.AppendRenewResult(nil, 0, 0, 0, 0))*perFrame +
				len(binproto.AppendBatchRespHeader(nil, perFrame)) + binproto.HeaderLen
			resp := make([]byte, depth*frameLen)
			roundTrip := func() {
				if _, err := conn.Write(burst); err != nil {
					t.Fatal(err)
				}
				if _, err := io.ReadFull(conn, resp); err != nil {
					t.Fatal(err)
				}
			}
			// Warm up: the connection's payload, response, item and
			// verdict buffers reach their steady size.
			for range 4 {
				roundTrip()
			}
			for i := 0; i < depth; i++ {
				frame := resp[i*frameLen : (i+1)*frameLen]
				h, err := binproto.ParseHeader(frame[:binproto.HeaderLen])
				if err != nil || h.Type != binproto.TRenewBatch|binproto.RespBit || h.ID != uint64(i+1) {
					t.Fatalf("response %d = %+v, %v", i, h, err)
				}
				rs, err := binproto.DecodeRenewBatchResp(frame[binproto.HeaderLen:], nil)
				if err != nil || len(rs) != perFrame {
					t.Fatalf("response %d results = %+v, %v", i, rs, err)
				}
				for j, r := range rs {
					if r.Code != binproto.CodeOK || r.Name != int64(items[j].Name) {
						t.Fatalf("response %d item %d = %+v", i, j, r)
					}
				}
			}

			const runs = 200
			before := cc.writes.Load()
			allocs := testing.AllocsPerRun(runs, roundTrip) // one more round trip warms up
			if allocs != 0 {
				t.Errorf("%v heap allocations per burst of %d renew frames (%v per frame), want 0",
					allocs, depth, allocs/float64(depth))
			}
			if writes := cc.writes.Load() - before; writes != runs+1 {
				t.Errorf("%d socket writes for %d bursts of %d frames, want one per burst", writes, runs+1, depth)
			}
		})
	}
}
