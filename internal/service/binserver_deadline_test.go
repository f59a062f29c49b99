package service

import (
	"bufio"
	"io"
	"math"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/wire"
	"repro/internal/wire/binproto"
)

// appendEmptyRenew appends a zero-item TRenewBatch request: a whole frame
// that touches no lease.
func appendEmptyRenew(buf []byte, id uint64) []byte {
	buf, start := binproto.BeginFrame(buf, binproto.TRenewBatch, id)
	return binproto.EndFrame(binproto.AppendRenewBatchReq(buf, 0, nil), start)
}

// expectIdleDrop waits for the server to close conn on its own and fails
// if it does not within IdleTimeout's order of magnitude.
func expectIdleDrop(t *testing.T, conn net.Conn, what string) {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("%s: read = %v, want EOF from the idle disconnect", what, err)
	}
}

// TestBinServerIdleAfterFrameIdlesOut: the idle deadline is armed only
// for reads that reach the socket, and the read that waits for the NEXT
// frame after one was served is such a read — a connection that goes
// quiet between frames is still dropped after IdleTimeout.
func TestBinServerIdleAfterFrameIdlesOut(t *testing.T) {
	addr, _ := startBinServer(t, 16, BinConfig{IdleTimeout: 150 * time.Millisecond})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(appendEmptyRenew(nil, 1)); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	if h, _ := readFrame(t, br); h.ID != 1 {
		t.Fatalf("renew response = %+v", h)
	}
	expectIdleDrop(t, conn, "idle after a served frame")
}

// TestBinServerBufferedHeaderStallIdlesOut: a header that arrives whole in
// the same segment as the frame before it is parsed from the buffer with
// no deadline armed for it; the payload read behind it reaches the socket
// and must arm one, or a peer that stalls there pins the goroutine.
func TestBinServerBufferedHeaderStallIdlesOut(t *testing.T) {
	addr, _ := startBinServer(t, 16, BinConfig{IdleTimeout: 150 * time.Millisecond})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	buf := appendEmptyRenew(nil, 1)
	whole := len(buf)
	buf = appendAcquire(buf, 2, "stall")
	if _, err := conn.Write(buf[:whole+binproto.HeaderLen]); err != nil {
		t.Fatal(err)
	}
	// No response to wait for first: write coalescing holds the renew
	// answer back while a later frame is partly buffered, and the drop
	// discards it.
	expectIdleDrop(t, conn, "header then stall")
}

// countingConn counts the reads and writes that reach the socket and the
// read deadlines armed on it.
type countingConn struct {
	net.Conn
	reads, writes, deadlines atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	c.reads.Add(1)
	return c.Conn.Read(p)
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

func (c *countingConn) SetReadDeadline(t time.Time) error {
	c.deadlines.Add(1)
	return c.Conn.SetReadDeadline(t)
}

// TestBinServerPipelinedBurstArmsPerSocketRead: 32 pipelined frames that
// arrive together are served from the read buffer; the idle timer is
// re-armed at most once per read that reached the socket, not per frame.
func TestBinServerPipelinedBurstArmsPerSocketRead(t *testing.T) {
	srv := NewBinServer(newCore(t, 16, nil), BinConfig{})
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	served := make(chan *countingConn, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			close(served)
			return
		}
		cc := &countingConn{Conn: conn}
		srv.serveConn(cc)
		served <- cc
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	const frames = 32
	var burst []byte
	for id := uint64(1); id <= frames; id++ {
		burst = appendEmptyRenew(burst, id)
	}
	if _, err := conn.Write(burst); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	for id := uint64(1); id <= frames; id++ {
		if h, _ := readFrame(t, br); h.ID != id {
			t.Fatalf("response %d = %+v", id, h)
		}
	}
	conn.Close()
	cc, ok := <-served
	if !ok {
		t.Fatal("accept failed")
	}
	reads, deadlines := cc.reads.Load(), cc.deadlines.Load()
	if deadlines > reads {
		t.Fatalf("%d read deadlines armed over %d socket reads for %d frames; want at most one per read", deadlines, reads, frames)
	}
	if reads >= frames {
		t.Fatalf("%d socket reads for a %d-frame burst: the burst was not pipelined and the test shows nothing", reads, frames)
	}
}

// TestBinServerHostileNames: names no lease can hold — negative, past the
// namespace, at the edges of int64 — come back as per-item unknown_name
// verdicts on both batch frames, and the connection survives them.
func TestBinServerHostileNames(t *testing.T) {
	addr, core := startBinServer(t, 16, BinConfig{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)

	ns := core.Manager().Namespace()
	names := []int{-1, math.MinInt64, math.MaxInt64, ns, ns + 1<<40}
	items := make([]wire.Item, len(names))
	for i, name := range names {
		items[i] = wire.Item{Name: name, Token: 1}
	}
	unknown := binproto.CodeByte(wire.CodeUnknownName)

	buf, start := binproto.BeginFrame(nil, binproto.TRenewBatch, 1)
	buf = binproto.EndFrame(binproto.AppendRenewBatchReq(buf, 1000, items), start)
	buf, start = binproto.BeginFrame(buf, binproto.TReleaseBatch, 2)
	buf = binproto.EndFrame(binproto.AppendReleaseBatchReq(buf, items), start)
	buf = appendAcquire(buf, 3, "after")
	if _, err := conn.Write(buf); err != nil {
		t.Fatal(err)
	}

	h, p := readFrame(t, br)
	if h.Type != binproto.TRenewBatch|binproto.RespBit || h.ID != 1 {
		t.Fatalf("renew_batch response = %+v", h)
	}
	renewed, err := binproto.DecodeRenewBatchResp(p, nil)
	if err != nil || len(renewed) != len(names) {
		t.Fatalf("renew_batch results = %+v, %v", renewed, err)
	}
	for i, r := range renewed {
		if r.Code != unknown {
			t.Errorf("renew_batch item %d (name %d) = code %d, want unknown_name", i, names[i], r.Code)
		}
	}

	h, p = readFrame(t, br)
	if h.Type != binproto.TReleaseBatch|binproto.RespBit || h.ID != 2 {
		t.Fatalf("release_batch response = %+v", h)
	}
	released, err := binproto.DecodeReleaseBatchResp(p, nil)
	if err != nil || len(released) != len(names) {
		t.Fatalf("release_batch results = %v, %v", released, err)
	}
	for i, code := range released {
		if code != unknown {
			t.Errorf("release_batch item %d (name %d) = code %d, want unknown_name", i, names[i], code)
		}
	}

	// The link is intact: the acquire pipelined behind them is served.
	h, p = readFrame(t, br)
	if h.Type != binproto.TAcquireBatch|binproto.RespBit || h.ID != 3 {
		t.Fatalf("acquire after hostile names = %+v", h)
	}
	decodeOneLease(t, p)
}
