package service

import (
	"bufio"
	"bytes"
	"io"
	"log/slog"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/wire"
	"repro/internal/wire/binproto"
)

// startBinServer serves a fresh core on a loopback listener.
func startBinServer(t *testing.T, capacity int, cfg BinConfig) (addr string, core *Core) {
	t.Helper()
	core = newCore(t, capacity, nil)
	srv := NewBinServer(core, cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Close()
		if err := <-done; err != nil {
			t.Errorf("Serve returned %v", err)
		}
	})
	return ln.Addr().String(), core
}

// readFrame reads one response frame.
func readFrame(t *testing.T, br *bufio.Reader) (binproto.Header, []byte) {
	t.Helper()
	var hdr [binproto.HeaderLen]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		t.Fatalf("read header: %v", err)
	}
	h, err := binproto.ParseHeader(hdr[:])
	if err != nil {
		t.Fatalf("parse header: %v", err)
	}
	p := make([]byte, h.Len)
	if _, err := io.ReadFull(br, p); err != nil {
		t.Fatalf("read payload: %v", err)
	}
	return h, p
}

// appendAcquire appends a well-formed one-lease TAcquireBatch request.
func appendAcquire(buf []byte, id uint64, owner string) []byte {
	buf, start := binproto.BeginFrame(buf, binproto.TAcquireBatch, id)
	buf = binproto.AppendAcquireBatchReq(buf, owner, 1, 60_000, nil)
	return binproto.EndFrame(buf, start)
}

// decodeOneLease decodes a TAcquireBatch response that granted one lease.
func decodeOneLease(t *testing.T, p []byte) binproto.Lease {
	t.Helper()
	ls, err := binproto.DecodeLeasesResp(p, nil)
	if err != nil || len(ls) != 1 || ls[0].Token == 0 {
		t.Fatalf("acquire leases = %+v, %v", ls, err)
	}
	return ls[0]
}

// TestBinServerRoundTrip exercises the full op set over one connection.
func TestBinServerRoundTrip(t *testing.T) {
	addr, core := startBinServer(t, 64, BinConfig{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)

	send := func(typ binproto.Type, id uint64, encode func([]byte) []byte) {
		t.Helper()
		buf, start := binproto.BeginFrame(nil, typ, id)
		buf = encode(buf)
		buf = binproto.EndFrame(buf, start)
		if _, err := conn.Write(buf); err != nil {
			t.Fatal(err)
		}
	}

	// Acquire with meta.
	send(binproto.TAcquireBatch, 1, func(b []byte) []byte {
		return binproto.AppendAcquireBatchReq(b, "bin-worker", 1, 60_000, map[string]string{"az": "c"})
	})
	h, p := readFrame(t, br)
	if h.Type != binproto.TAcquireBatch|binproto.RespBit || h.ID != 1 {
		t.Fatalf("acquire response header = %+v", h)
	}
	l := decodeOneLease(t, p)

	// Renew batch: the held lease plus a bogus one — per-item verdicts.
	send(binproto.TRenewBatch, 3, func(b []byte) []byte {
		return binproto.AppendRenewBatchReq(b, 60_000, []wire.Item{
			{Name: int(l.Name), Token: l.Token},
			{Name: 9999, Token: 7},
		})
	})
	h, p = readFrame(t, br)
	if h.Type != binproto.TRenewBatch|binproto.RespBit || h.ID != 3 {
		t.Fatalf("renew_batch response header = %+v", h)
	}
	results, err := binproto.DecodeRenewBatchResp(p, nil)
	if err != nil || len(results) != 2 {
		t.Fatalf("renew_batch results = %+v, %v", results, err)
	}
	if results[0].Code != binproto.CodeOK || results[0].Token != l.Token {
		t.Fatalf("result 0 = %+v", results[0])
	}
	if binproto.CodeString(results[1].Code) != wire.CodeUnknownName {
		t.Fatalf("result 1 = %+v", results[1])
	}

	// The table saw the traffic.
	if m := core.Manager().Metrics(); m.Acquired != 1 || m.Renewed != 1 || m.Live != 1 {
		t.Fatalf("metrics = %+v", m)
	}

	// Release it, then again: the frame succeeds both times and the
	// item's verdict carries the outcome.
	for i, want := range []string{"", wire.CodeUnknownName} {
		id := uint64(5 + i)
		send(binproto.TReleaseBatch, id, func(b []byte) []byte {
			return binproto.AppendReleaseBatchReq(b, []wire.Item{{Name: int(l.Name), Token: l.Token}})
		})
		h, p = readFrame(t, br)
		if h.Type != binproto.TReleaseBatch|binproto.RespBit || h.ID != id {
			t.Fatalf("release %d response header = %+v", id, h)
		}
		codes, err := binproto.DecodeReleaseBatchResp(p, nil)
		if err != nil || len(codes) != 1 || binproto.CodeString(codes[0]) != want {
			t.Fatalf("release %d codes = %v, %v; want %q", id, codes, err, want)
		}
	}

	// A whole-request failure is a typed error frame: count 0 is refused.
	send(binproto.TAcquireBatch, 7, func(b []byte) []byte {
		return binproto.AppendAcquireBatchReq(b, "bin-worker", 0, 60_000, nil)
	})
	h, p = readFrame(t, br)
	if h.Type != binproto.TError || h.ID != 7 {
		t.Fatalf("count-0 acquire header = %+v", h)
	}
	code, msg, err := binproto.DecodeErrorResp(p)
	if err != nil || code != binproto.CodeBadRequest || msg == "" {
		t.Fatalf("count-0 acquire error = (%d, %q, %v)", code, msg, err)
	}
}

// TestBinServerPipelining writes a burst of back-to-back frames without
// reading, then expects every response in request order with echoed
// IDs — the pipelining contract.
func TestBinServerPipelining(t *testing.T) {
	addr, _ := startBinServer(t, 64, BinConfig{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// One acquire first to have a lease to renew.
	buf := appendAcquire(nil, 100, "pipeliner")
	if _, err := conn.Write(buf); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	_, p := readFrame(t, br)
	l := decodeOneLease(t, p)

	// 10 pipelined renew_batch frames in ONE write.
	const depth = 10
	buf = buf[:0]
	for i := 0; i < depth; i++ {
		var start int
		buf, start = binproto.BeginFrame(buf, binproto.TRenewBatch, uint64(200+i))
		buf = binproto.AppendRenewBatchReq(buf, 60_000, []wire.Item{{Name: int(l.Name), Token: l.Token}})
		buf = binproto.EndFrame(buf, start)
	}
	if _, err := conn.Write(buf); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < depth; i++ {
		h, p := readFrame(t, br)
		if h.ID != uint64(200+i) {
			t.Fatalf("response %d carried id %d, want %d (pipelined order broken)", i, h.ID, 200+i)
		}
		if h.Type != binproto.TRenewBatch|binproto.RespBit {
			t.Fatalf("response %d type = %#x", i, byte(h.Type))
		}
		results, err := binproto.DecodeRenewBatchResp(p, nil)
		if err != nil || len(results) != 1 || results[0].Code != binproto.CodeOK {
			t.Fatalf("response %d results = %+v, %v", i, results, err)
		}
	}
}

// TestBinServerBadHeaderDropsConn: garbage where a header should be is
// answered with one error frame, then the connection closes — frame
// boundaries are unrecoverable.
func TestBinServerBadHeaderDropsConn(t *testing.T) {
	addr, _ := startBinServer(t, 8, BinConfig{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(bytes.Repeat([]byte{0xAB}, binproto.HeaderLen)); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	h, p := readFrame(t, br)
	if h.Type != binproto.TError {
		t.Fatalf("bad header answered with %+v", h)
	}
	code, _, err := binproto.DecodeErrorResp(p)
	if err != nil || code != binproto.CodeBadRequest {
		t.Fatalf("bad header error = (%d, %v)", code, err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := br.ReadByte(); err != io.EOF {
		t.Fatalf("connection stayed open after desync: %v", err)
	}
}

// TestBinServerMalformedPayloadKeepsConn: a well-framed request whose
// payload won't decode gets a typed error and the link SURVIVES —
// boundaries are intact.
func TestBinServerMalformedPayloadKeepsConn(t *testing.T) {
	addr, _ := startBinServer(t, 8, BinConfig{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)

	// Truncated renew_batch payload (needs at least 12 bytes, send 3).
	buf, start := binproto.BeginFrame(nil, binproto.TRenewBatch, 7)
	buf = append(buf, 1, 2, 3)
	buf = binproto.EndFrame(buf, start)
	if _, err := conn.Write(buf); err != nil {
		t.Fatal(err)
	}
	h, p := readFrame(t, br)
	if h.Type != binproto.TError || h.ID != 7 {
		t.Fatalf("malformed payload header = %+v", h)
	}
	if code, _, _ := binproto.DecodeErrorResp(p); code != binproto.CodeBadRequest {
		t.Fatalf("malformed payload code = %d", code)
	}

	// The same connection still serves requests.
	if _, err := conn.Write(appendEmptyRenew(buf[:0], 8)); err != nil {
		t.Fatal(err)
	}
	h, _ = readFrame(t, br)
	if h.Type != binproto.TRenewBatch|binproto.RespBit || h.ID != 8 {
		t.Fatalf("post-error renew response = %+v", h)
	}
}

// TestBinServerSlowOpLog: the slow-operation line carries the request
// ID in the same %016x shape as the HTTP surface.
func TestBinServerSlowOpLog(t *testing.T) {
	var mu sync.Mutex
	var logBuf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return logBuf.Write(p)
	}), nil))
	addr, _ := startBinServer(t, 8, BinConfig{SlowThreshold: time.Nanosecond, SlowLog: logger})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(appendAcquire(nil, 0xABCDEF, "slow")); err != nil {
		t.Fatal(err)
	}
	readFrame(t, bufio.NewReader(conn))
	mu.Lock()
	logs := logBuf.String()
	mu.Unlock()
	if !strings.Contains(logs, "request_id=0000000000abcdef") {
		t.Fatalf("slow-op log missing %%016x request id:\n%s", logs)
	}
	if !strings.Contains(logs, "op=acquire_batch") {
		t.Fatalf("slow-op log missing op label:\n%s", logs)
	}
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// TestBinServerCloseCancelsConns: Close drops live connections and
// Serve returns nil.
func TestBinServerCloseCancelsConns(t *testing.T) {
	core := newCore(t, 8, nil)
	srv := NewBinServer(core, BinConfig{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Give the accept loop a beat to register the connection.
	time.Sleep(20 * time.Millisecond)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("Serve after Close = %v", err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	one := make([]byte, 1)
	if _, err := conn.Read(one); err == nil {
		t.Fatal("connection survived server Close")
	}
}
