package leaseclient

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"sync"
	"time"

	"repro/internal/wire"
	"repro/internal/wire/binproto"
)

// binTransport speaks binproto over one persistent TCP connection,
// dialed lazily and redialed after any I/O failure (the Session's
// backoff loop turns a redial into at most one lost heartbeat round).
// Round trips are serialized under the mutex — the Session's heartbeat
// is itself serial, so a deeper pipeline here would only buy latency
// the caller never sees; the saturating pipelined path lives in
// benchmark/binload.go, speaking binproto directly.
type binTransport struct {
	addr    string
	timeout time.Duration // per-round-trip bound when ctx has no deadline; <= 0 unbounded

	mu   sync.Mutex
	conn net.Conn
	br   *bufio.Reader

	// Reused per-round-trip buffers; all access is under mu.
	buf     []byte
	payload []byte
	results []binproto.RenewResult
	leases  []binproto.Lease
	codes   []byte
	closed  bool
}

// newBinTransport dials addr lazily. timeout bounds each round trip
// when the context carries no deadline (Config.CallTimeout); zero means
// DefaultCallTimeout, negative means unbounded — the pre-CallTimeout
// behavior, kept reachable so the chaos harness can prove what a wedged
// server does to an unbounded client.
func newBinTransport(addr string, timeout time.Duration) *binTransport {
	if timeout == 0 {
		timeout = DefaultCallTimeout
	}
	return &binTransport{addr: addr, timeout: timeout}
}

func (t *binTransport) AcquireBatch(ctx context.Context, req *wire.AcquireBatchRequest) (wire.Leases, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	p, err := t.roundTrip(ctx, binproto.TAcquireBatch, func(b []byte) []byte {
		return binproto.AppendAcquireBatchReq(b, req.Owner, req.Count, req.TTLms, req.Meta)
	})
	if err != nil {
		return wire.Leases{}, err
	}
	t.leases, err = binproto.DecodeLeasesResp(p, t.leases)
	if err != nil {
		return wire.Leases{}, t.corrupt("acquire_batch", err)
	}
	out := wire.Leases{Leases: make([]wire.Lease, len(t.leases))}
	for i, l := range t.leases {
		out.Leases[i] = wire.Lease{Name: int(l.Name), Token: l.Token, Owner: req.Owner, ExpiresAtMs: l.ExpiresMs}
	}
	return out, nil
}

func (t *binTransport) RenewBatch(ctx context.Context, req *wire.RenewBatchRequest) (wire.BatchResults, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	p, err := t.roundTrip(ctx, binproto.TRenewBatch, func(b []byte) []byte {
		return binproto.AppendRenewBatchReq(b, req.TTLms, req.Items)
	})
	if err != nil {
		return wire.BatchResults{}, err
	}
	t.results, err = binproto.DecodeRenewBatchResp(p, t.results)
	if err != nil {
		return wire.BatchResults{}, t.corrupt("renew_batch", err)
	}
	out := wire.BatchResults{Results: make([]wire.BatchResult, len(t.results))}
	for i, r := range t.results {
		if r.Code == binproto.CodeOK {
			out.Results[i].Lease = &wire.Lease{Name: int(r.Name), Token: r.Token, ExpiresAtMs: r.ExpiresMs}
			continue
		}
		out.Results[i].Code = binproto.CodeString(r.Code)
	}
	return out, nil
}

func (t *binTransport) ReleaseBatch(ctx context.Context, req *wire.ReleaseBatchRequest) (wire.BatchResults, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	p, err := t.roundTrip(ctx, binproto.TReleaseBatch, func(b []byte) []byte {
		return binproto.AppendReleaseBatchReq(b, req.Items)
	})
	if err != nil {
		return wire.BatchResults{}, err
	}
	t.codes, err = binproto.DecodeReleaseBatchResp(p, t.codes)
	if err != nil {
		return wire.BatchResults{}, t.corrupt("release_batch", err)
	}
	out := wire.BatchResults{Results: make([]wire.BatchResult, len(t.codes))}
	for i, c := range t.codes {
		out.Results[i].Code = binproto.CodeString(c)
	}
	return out, nil
}

func (t *binTransport) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.closed = true
	return t.dropConn()
}

func (t *binTransport) dropConn() error {
	if t.conn == nil {
		return nil
	}
	err := t.conn.Close()
	t.conn, t.br = nil, nil
	return err
}

// corrupt handles a response that framed correctly but would not
// decode: the stream can no longer be trusted, so the connection drops
// (the next call redials) and the error reports as transport-level.
func (t *binTransport) corrupt(op string, err error) error {
	t.dropConn()
	return fmt.Errorf("leaseclient: %s: corrupt response: %w", op, err)
}

// roundTrip sends one frame and returns the response payload, valid
// until the next call. Any I/O failure drops the connection so the next
// round trip redials from scratch. Caller holds mu.
func (t *binTransport) roundTrip(ctx context.Context, typ binproto.Type, encode func([]byte) []byte) ([]byte, error) {
	if t.closed {
		return nil, fmt.Errorf("leaseclient: bin transport closed")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if t.conn == nil {
		d := net.Dialer{Timeout: dialTimeout(t.timeout)}
		conn, err := d.DialContext(ctx, "tcp", t.addr)
		if err != nil {
			return nil, fmt.Errorf("leaseclient: dial %s: %w", t.addr, err)
		}
		t.conn = conn
		t.br = bufio.NewReaderSize(conn, 64<<10)
	}
	// A context deadline always bounds the round trip; without one the
	// transport's own CallTimeout does. A negative timeout leaves the
	// call unbounded — only the fault-injection harness asks for that.
	var deadline time.Time
	if t.timeout > 0 {
		//lint:wallclock net.Conn deadlines are absolute wall-clock instants by contract; the injected session clock must not skew socket timeouts
		deadline = time.Now().Add(t.timeout)
	}
	if d, ok := ctx.Deadline(); ok && (deadline.IsZero() || d.Before(deadline)) {
		deadline = d
	}
	t.conn.SetDeadline(deadline)

	//lint:wallclock frame IDs need uniqueness across restarts, not reproducibility; a seeded stream would collide after a crash-restart
	id := rand.Uint64()
	var start int
	t.buf, start = binproto.BeginFrame(t.buf[:0], typ, id)
	t.buf = encode(t.buf)
	t.buf = binproto.EndFrame(t.buf, start)
	if _, err := t.conn.Write(t.buf); err != nil {
		t.dropConn()
		return nil, fmt.Errorf("leaseclient: write %s: %w", t.addr, err)
	}

	var hdr [binproto.HeaderLen]byte
	if _, err := io.ReadFull(t.br, hdr[:]); err != nil {
		t.dropConn()
		return nil, fmt.Errorf("leaseclient: read %s: %w", t.addr, err)
	}
	h, err := binproto.ParseHeader(hdr[:])
	if err != nil {
		return nil, t.corrupt(typ.String(), err)
	}
	if h.ID != id {
		// A stale response from a previous timed-out round trip: the
		// stream is out of phase, start over.
		return nil, t.corrupt(typ.String(), fmt.Errorf("response id %016x, want %016x", h.ID, id))
	}
	if cap(t.payload) < int(h.Len) {
		t.payload = make([]byte, h.Len)
	}
	t.payload = t.payload[:h.Len]
	if _, err := io.ReadFull(t.br, t.payload); err != nil {
		t.dropConn()
		return nil, fmt.Errorf("leaseclient: read %s: %w", t.addr, err)
	}
	if err := binproto.VerifyPayload(h, t.payload); err != nil {
		// Damaged response bytes: never decode them — drop the stream
		// and let the session retry on a fresh connection.
		return nil, t.corrupt(typ.String(), err)
	}
	if h.Type == binproto.TError {
		code, msg, derr := binproto.DecodeErrorResp(t.payload)
		if derr != nil {
			return nil, t.corrupt(typ.String(), derr)
		}
		return nil, &ServerError{
			Op:        typ.String(),
			Msg:       msg,
			RequestID: fmt.Sprintf("%016x", id),
			Err:       binproto.ErrFor(code, ""),
		}
	}
	if h.Type != typ|binproto.RespBit {
		return nil, t.corrupt(typ.String(), fmt.Errorf("response type %#02x for request %#02x", byte(h.Type), byte(typ)))
	}
	return t.payload, nil
}

// dialTimeout keeps connection ESTABLISHMENT bounded even when the
// round-trip bound is disabled: an unbounded dial hangs on a black-holed
// SYN, which no configuration should ask for.
func dialTimeout(t time.Duration) time.Duration {
	if t > 0 {
		return t
	}
	return DefaultCallTimeout
}
