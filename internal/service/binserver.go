package service

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"os"
	"sync"
	"time"

	"repro/internal/wire"
	"repro/internal/wire/binproto"
	"repro/lease"
)

// BinConfig tunes a BinServer. The zero value is production-ready.
type BinConfig struct {
	// SlowThreshold gates the structured slow-operation log line (same
	// contract as the HTTP -slow-op flag); 0 disables it.
	SlowThreshold time.Duration
	// SlowLog receives slow-operation lines; nil means stderr.
	SlowLog *slog.Logger
	// IdleTimeout drops a connection that sends no frame for this long;
	// 0 means 2 minutes (matching the HTTP server's IdleTimeout).
	IdleTimeout time.Duration
}

// writeTimeout bounds each response flush.
const writeTimeout = 30 * time.Second

// badRequest is the code of a frame that does not decode: this server
// is the one place a binproto error becomes a wire code.
var badRequest = wire.ParseCode(wire.CodeBadRequest)

// BinServer serves the binproto framing over persistent TCP
// connections: the -listen-bin port. Each connection's frames are
// processed strictly in order (the pipelining contract — clients may
// write ahead without waiting) and responses are coalesced: while more
// pipelined requests sit in the read buffer the writer keeps appending
// response frames, flushing only when the connection goes quiet, so a
// burst of N heartbeats costs one syscall out, not N.
type BinServer struct {
	bind *Binding
	cfg  BinConfig

	ctx    context.Context
	cancel context.CancelFunc

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewBinServer wraps core for the binary transport.
func NewBinServer(core *Core, cfg BinConfig) *BinServer {
	if cfg.SlowLog == nil {
		cfg.SlowLog = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}
	if cfg.IdleTimeout == 0 {
		cfg.IdleTimeout = 2 * time.Minute
	}
	//lint:ctx the server root context is the process's serve lifetime, created at bind time and cancelled by Close
	ctx, cancel := context.WithCancel(context.Background())
	return &BinServer{
		bind:   core.Bind("bin"),
		cfg:    cfg,
		ctx:    ctx,
		cancel: cancel,
		conns:  map[net.Conn]struct{}{},
	}
}

// Serve accepts connections on ln until Close. It returns nil after
// Close, or the accept error that stopped it.
func (s *BinServer) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return fmt.Errorf("binserver: %w", lease.ErrClosed)
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

// Close stops accepting, cancels in-flight operations and closes every
// connection. Idempotent.
func (s *BinServer) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.cancel()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.wg.Wait()
	return err
}

// binConn is one connection's reusable state: every buffer and scratch
// slice lives for the connection, so a steady heartbeat stream settles
// into zero allocations per frame.
type binConn struct {
	srv  *BinServer
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer

	hdr     [binproto.HeaderLen]byte
	payload []byte
	resp    []byte

	renewItems   []lease.RenewItem
	releaseItems []lease.ReleaseItem
	verdicts     []Verdict
}

func (s *BinServer) serveConn(conn net.Conn) {
	defer conn.Close()
	ctx, cancel := context.WithCancel(s.ctx)
	defer cancel()
	c := &binConn{
		srv:  s,
		conn: conn,
		br:   bufio.NewReaderSize(conn, 64<<10),
		bw:   bufio.NewWriterSize(conn, 64<<10),
	}
	for {
		// The idle deadline is armed only for a read that will reach the
		// socket: a pipelined frame already whole in the buffer cannot
		// stall, and a timer syscall per frame is measurable at a million
		// frames a second.
		if c.br.Buffered() < binproto.HeaderLen {
			c.armIdle()
		}
		if _, err := io.ReadFull(c.br, c.hdr[:]); err != nil {
			return // peer closed or idled out
		}
		h, err := binproto.ParseHeader(c.hdr[:])
		if err != nil {
			// A bad header means the stream is desynchronized: frame
			// boundaries are gone, so answer once and drop the link.
			c.writeError(h.ID, badRequest, err.Error())
			c.flush()
			return
		}
		if cap(c.payload) < int(h.Len) {
			c.payload = make([]byte, h.Len)
		}
		c.payload = c.payload[:h.Len]
		if c.br.Buffered() < int(h.Len) {
			c.armIdle() // a peer that stalls mid-frame is still dropped
		}
		if _, err := io.ReadFull(c.br, c.payload); err != nil {
			return
		}
		if err := binproto.VerifyPayload(h, c.payload); err != nil {
			// Damaged bytes with an intact-looking header: the stream
			// cannot be trusted past this point. Same treatment as a
			// bad header — answer once, then drop the link so the
			// client redials onto a clean stream.
			c.writeError(h.ID, badRequest, err.Error())
			c.flush()
			return
		}
		if !c.dispatch(ctx, h) {
			return
		}
		// Write coalescing: only flush when no pipelined frame is already
		// waiting in the read buffer — a burst drains into one write.
		if c.br.Buffered() == 0 {
			if !c.flush() {
				return
			}
		}
	}
}

// armIdle gives the peer IdleTimeout from now to deliver what the next
// read waits for.
func (c *binConn) armIdle() {
	c.conn.SetReadDeadline(time.Now().Add(c.srv.cfg.IdleTimeout))
}

// flush pushes buffered response frames to the socket.
func (c *binConn) flush() bool {
	c.conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	return c.bw.Flush() == nil
}

// writeError appends a TError frame for request id.
func (c *binConn) writeError(id uint64, code wire.Code, msg string) {
	c.resp = c.resp[:0]
	var start int
	c.resp, start = binproto.BeginFrame(c.resp, binproto.TError, id)
	c.resp = binproto.AppendErrorResp(c.resp, byte(code), msg)
	c.resp = binproto.EndFrame(c.resp, start)
	c.bw.Write(c.resp)
}

// dispatch decodes and serves one frame, appending the response to the
// write buffer. It returns false when the connection must drop.
func (c *binConn) dispatch(ctx context.Context, h binproto.Header) bool {
	start := time.Now()
	b := c.srv.bind
	c.resp = c.resp[:0]
	var frameStart int
	ok := func(t binproto.Type) {
		c.resp, frameStart = binproto.BeginFrame(c.resp, t|binproto.RespBit, h.ID)
	}
	// A refused request: its code and the error that refused it.
	var (
		refusal wire.Code
		opErr   error
	)

	switch h.Type {
	case binproto.TAcquireBatch:
		owner, count, ttlMs, meta, err := binproto.DecodeAcquireBatchReq(c.payload)
		if err != nil {
			refusal, opErr = badRequest, err
			break
		}
		ls, err := b.AcquireBatch(ctx, &wire.AcquireBatchRequest{Owner: owner, Count: count, TTLms: ttlMs, Meta: meta})
		if err != nil {
			refusal, opErr = wire.CodeOf(err), err
			break
		}
		ok(binproto.TAcquireBatch)
		c.resp = binproto.AppendLeasesRespHeader(c.resp, len(ls))
		for _, l := range ls {
			c.resp = binproto.AppendLease(c.resp, int64(l.Name), l.Token, l.ExpiresAtMs)
		}

	case binproto.TRenewBatch:
		ttlMs, items, err := binproto.DecodeRenewBatchReq(c.payload, c.renewItems)
		c.renewItems = items
		if err != nil {
			refusal, opErr = badRequest, err
			break
		}
		verdicts, err := b.RenewBatch(ctx, wire.TTLFromMs(ttlMs), items, c.verdicts)
		c.verdicts = verdicts
		if err != nil {
			refusal, opErr = wire.CodeOf(err), err
			break
		}
		ok(binproto.TRenewBatch)
		c.resp = binproto.AppendBatchRespHeader(c.resp, len(verdicts))
		for i := range verdicts {
			v := &verdicts[i]
			if v.Code != "" {
				c.resp = binproto.AppendRenewResult(c.resp, binproto.CodeByte(v.Code), 0, 0, 0)
				continue
			}
			c.resp = binproto.AppendRenewResult(c.resp, binproto.CodeOK,
				int64(v.Lease.Name), v.Lease.Token, v.Lease.ExpiresAtMs)
		}

	case binproto.TReleaseBatch:
		items, err := binproto.DecodeReleaseBatchReq(c.payload, c.releaseItems)
		c.releaseItems = items
		if err != nil {
			refusal, opErr = badRequest, err
			break
		}
		verdicts, err := b.ReleaseBatch(ctx, items, c.verdicts)
		c.verdicts = verdicts
		if err != nil {
			refusal, opErr = wire.CodeOf(err), err
			break
		}
		ok(binproto.TReleaseBatch)
		c.resp = binproto.AppendBatchRespHeader(c.resp, len(verdicts))
		for i := range verdicts {
			c.resp = append(c.resp, binproto.CodeByte(verdicts[i].Code))
		}

	default:
		// A request carrying a response type: protocol misuse, drop.
		c.writeError(h.ID, badRequest, "frame type is not a request")
		c.flush()
		return false
	}

	if opErr != nil {
		c.writeError(h.ID, refusal, opErr.Error())
	} else {
		c.resp = binproto.EndFrame(c.resp, frameStart)
		if _, err := c.bw.Write(c.resp); err != nil {
			return false
		}
	}

	if th := c.srv.cfg.SlowThreshold; th > 0 {
		if d := time.Since(start); d >= th {
			c.srv.cfg.SlowLog.Warn("slow operation",
				"op", h.Type.String(),
				"duration_ms", float64(d)/float64(time.Millisecond),
				"request_id", fmt.Sprintf("%016x", h.ID))
		}
	}
	// A malformed payload inside a well-framed request is answered but
	// the link survives — frame boundaries are still intact.
	return true
}
