package service

import (
	"bufio"
	"encoding/binary"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/wire"
	"repro/internal/wire/binproto"
)

// waitGoroutines polls until the goroutine count settles back to at
// most base, failing after the deadline. Counts are noisy (finalizers,
// test runner), so poll rather than compare once.
func waitGoroutines(t *testing.T, base int, deadline time.Duration) {
	t.Helper()
	end := time.Now().Add(deadline)
	for {
		if runtime.NumGoroutine() <= base {
			return
		}
		if time.Now().After(end) {
			t.Fatalf("goroutines did not settle: %d, want <= %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestBinServerHalfHeaderStallIdlesOut: a client that sends half a
// header and stalls must be disconnected by IdleTimeout — the read
// deadline set at the top of the frame loop covers the whole frame, so
// a torn header cannot pin a serveConn goroutine forever.
func TestBinServerHalfHeaderStallIdlesOut(t *testing.T) {
	base := runtime.NumGoroutine()
	addr, _ := startBinServer(t, 16, BinConfig{IdleTimeout: 150 * time.Millisecond})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	if _, err := conn.Write(make([]byte, binproto.HeaderLen/2)); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == io.EOF {
		// server closed cleanly
	} else if err == nil {
		t.Fatal("server answered a half header instead of dropping the connection")
	} else if nerr, ok := err.(net.Error); ok && nerr.Timeout() {
		t.Fatal("server kept a half-header connection past IdleTimeout")
	}
	// serveConn returned on its own (the listener and server are still
	// up), so the per-connection goroutines must be gone: base + the
	// acceptor + the Serve watchdog.
	waitGoroutines(t, base+2, 2*time.Second)

	// The server itself is unharmed: a healthy connection still works.
	conn2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	if _, err := conn2.Write(appendEmptyRenew(nil, 1)); err != nil {
		t.Fatal(err)
	}
	h, _ := readFrame(t, bufio.NewReader(conn2))
	if h.Type != binproto.TRenewBatch|binproto.RespBit || h.ID != 1 {
		t.Fatalf("renew after stalled peer = %+v", h)
	}
}

// TestBinServerHalfPayloadStallIdlesOut: same guarantee one layer down
// — a complete header promising bytes that never arrive.
func TestBinServerHalfPayloadStallIdlesOut(t *testing.T) {
	addr, _ := startBinServer(t, 16, BinConfig{IdleTimeout: 150 * time.Millisecond})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// A well-formed acquire frame, truncated halfway through its payload.
	buf := appendAcquire(nil, 7, "stall")
	if _, err := conn.Write(buf[:len(buf)-4]); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	start2 := time.Now()
	if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("read after payload stall = %v, want EOF from idle disconnect", err)
	}
	if elapsed := time.Since(start2); elapsed > 2*time.Second {
		t.Fatalf("idle disconnect took %v, deadline is not covering the payload read", elapsed)
	}
}

// TestBinServerMidPipelineReset: a client that pipelines a burst and
// resets the connection mid-write must not disturb anything outside its
// own connection — requests already dispatched still apply, and a
// concurrent connection's responses stay frame-correct.
func TestBinServerMidPipelineReset(t *testing.T) {
	addr, core := startBinServer(t, 256, BinConfig{})

	for round := 0; round < 8; round++ {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		// A burst of pipelined acquires the server will answer into its
		// coalescing write buffer...
		var burst []byte
		for id := uint64(1); id <= 16; id++ {
			burst = appendAcquire(burst, id, "resetter")
		}
		if _, err := conn.Write(burst); err != nil {
			t.Fatal(err)
		}
		// ...then an RST instead of reads: SO_LINGER 0 makes Close send a
		// reset, so the server hits a write error mid-flush.
		if tc, ok := conn.(*net.TCPConn); ok {
			tc.SetLinger(0)
		}
		conn.Close()
	}

	// The resets must not have corrupted shared state: a fresh connection
	// gets exact frames back and the table counts no acquire that was not
	// sent.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	if _, err := conn.Write(appendAcquire(nil, 99, "survivor")); err != nil {
		t.Fatal(err)
	}
	h, p := readFrame(t, br)
	if h.Type != binproto.TAcquireBatch|binproto.RespBit || h.ID != 99 {
		t.Fatalf("acquire after resets = %+v", h)
	}
	decodeOneLease(t, p)
	if _, err := conn.Write(appendEmptyRenew(nil, 100)); err != nil {
		t.Fatal(err)
	}
	if h, _ = readFrame(t, br); h.Type != binproto.TRenewBatch|binproto.RespBit || h.ID != 100 {
		t.Fatalf("renew after resets = %+v", h)
	}
	if got := core.Manager().Metrics().Acquired; got < 1 || got > 16*8+1 {
		t.Fatalf("%d acquires after resets, implausible", got)
	}
}

// TestBinServerOversizedFrameRejected: a header declaring a payload
// larger than the protocol cap must be refused before the server
// allocates or reads it.
func TestBinServerOversizedFrameRejected(t *testing.T) {
	addr, _ := startBinServer(t, 16, BinConfig{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// Hand-build a header claiming an absurd length: the length field is
	// header bytes 12..16, big-endian.
	buf := appendAcquire(nil, 1, "big")
	binary.BigEndian.PutUint32(buf[12:16], binproto.MaxPayload+1)
	if _, err := conn.Write(buf[:binproto.HeaderLen]); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	br := bufio.NewReader(conn)
	var hdr [binproto.HeaderLen]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		t.Fatalf("read error frame header: %v", err)
	}
	h, err := binproto.ParseHeader(hdr[:])
	if err != nil || h.Type != binproto.TError {
		t.Fatalf("oversized frame answer = %+v, %v; want TError", h, err)
	}
	// And the connection drops: boundaries are unrecoverable.
	p := make([]byte, h.Len)
	if _, err := io.ReadFull(br, p); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("connection survived a desynchronizing header: %v", err)
	}
}

// TestBinServerCorruptPayloadRejected: a frame whose payload fails the
// CRC gate is answered with one TError (bad_request) and the connection
// drops — damaged bytes mean the stream can no longer be trusted, so
// the client must redial onto a clean one.
func TestBinServerCorruptPayloadRejected(t *testing.T) {
	addr, _ := startBinServer(t, 16, BinConfig{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	buf := appendAcquire(nil, 9, "corrupt")
	buf[len(buf)-1] ^= 0x01 // one flipped payload bit; header untouched
	if _, err := conn.Write(buf); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	br := bufio.NewReader(conn)
	h, payload := readFrame(t, br)
	if h.Type != binproto.TError || h.ID != 9 {
		t.Fatalf("corrupt frame answer = %+v, want TError echoing id 9", h)
	}
	code, msg, derr := binproto.DecodeErrorResp(payload)
	if derr != nil || code != binproto.CodeByte(wire.CodeBadRequest) {
		t.Fatalf("error resp = (%d, %q, %v), want bad_request", code, msg, derr)
	}
	if !strings.Contains(msg, "checksum") {
		t.Fatalf("error message %q does not name the checksum", msg)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		t.Fatalf("read after corrupt frame = %v, want EOF (connection dropped)", err)
	}
}

// TestBinServerRetiredFrameTypes: bytes 0x01, 0x03 and 0x05 carried the
// single-item acquire/renew/release requests until they were folded into
// their batch forms, 0x07 the stats op until /metrics became the only
// counter surface, and 0x08 the resize op until HTTP became its only
// entrance. An old client still sending one is answered like
// any unknown frame type — exactly one TError (bad_request), then the
// connection drops — and the server keeps serving everyone else.
func TestBinServerRetiredFrameTypes(t *testing.T) {
	addr, _ := startBinServer(t, 16, BinConfig{})
	// Payload sizes of the old request layouts; the bytes never matter,
	// the header is refused before the payload is read.
	retired := []struct {
		typ        byte
		payloadLen int
	}{
		{0x01, 12}, // acquire: ttlMs | empty owner | no meta
		{0x03, 24}, // renew: name | token | ttlMs
		{0x05, 16}, // release: name | token
		{0x07, 0},  // stats: empty
		{0x08, 8},  // resize: capacity
		{0x88, 26}, // resize response: capacity | maxLive | epoch | draining | count
	}
	for _, r := range retired {
		typ := r.typ
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		// BeginFrame does not validate the type, so the frame is
		// well-formed in every respect but its retired type byte.
		buf, start := binproto.BeginFrame(nil, binproto.Type(typ), 0x77)
		buf = append(buf, make([]byte, r.payloadLen)...)
		buf = binproto.EndFrame(buf, start)
		if _, err := conn.Write(buf); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(3 * time.Second))
		br := bufio.NewReader(conn)
		h, p := readFrame(t, br)
		if h.Type != binproto.TError {
			t.Fatalf("type %#02x answered with %+v, want TError", typ, h)
		}
		code, msg, err := binproto.DecodeErrorResp(p)
		if err != nil || code != binproto.CodeByte(wire.CodeBadRequest) || !strings.Contains(msg, "unknown frame type") {
			t.Fatalf("type %#02x error = (%d, %q, %v), want bad_request naming the unknown type", typ, code, msg, err)
		}
		// One answer, then dropped: EOF, or a reset if the server closed
		// with the payload still unread — never a second frame, never a
		// connection left open until the read deadline.
		_, err = br.ReadByte()
		if nerr, ok := err.(net.Error); err == nil || (ok && nerr.Timeout()) {
			t.Fatalf("type %#02x: read after the error frame = %v, want a dropped connection", typ, err)
		}
		conn.Close()
	}

	// The server itself is unharmed.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(appendAcquire(nil, 1, "new-client")); err != nil {
		t.Fatal(err)
	}
	_, p := readFrame(t, bufio.NewReader(conn))
	decodeOneLease(t, p)
}
