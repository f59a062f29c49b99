package main

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"time"

	"repro/internal/wire"
	"repro/internal/wire/binproto"
	"repro/leaseclient"
)

// Sizes of the service workloads. The lease population is far beyond
// any cache (262,144 leases is ~50 MB of table), so a renew walks
// memory the way a real fleet's heartbeats do.
const (
	capacity     = 262144 // -capacity, and the standing population of workloads 3 and 5
	standing     = 131072 // churn-durable-bin's recovered population: 50% occupancy
	preloadBatch = 512
	renewBatch   = 8  // renewals per frame / per HTTP request
	renewDepth   = 32 // frames in flight on the one connection
	churnBatch   = 16 // names per acquire/release cycle
	churnDepth   = 4  // cycles in flight on the one connection
	leaseTTLms   = int64(time.Hour / time.Millisecond)
	ownerName    = "benchmark"
)

// preload acquires total leases over bin:// in batches through the
// stock leaseclient transport. It is the seeded, fixed setup work of
// workloads 3 and 5.
func preload(binAddr string, total int) ([]wire.Item, error) {
	tr, err := leaseclient.NewTransport("bin://" + binAddr)
	if err != nil {
		return nil, err
	}
	defer tr.Close()
	items := make([]wire.Item, 0, total)
	for len(items) < total {
		got, err := tr.AcquireBatch(context.Background(), &wire.AcquireBatchRequest{
			Owner: ownerName, Count: min(preloadBatch, total-len(items)), TTLms: leaseTTLms,
		})
		if err != nil {
			return nil, fmt.Errorf("preload after %d leases: %w", len(items), err)
		}
		for _, l := range got.Leases {
			items = append(items, wire.Item{Name: l.Name, Token: l.Token})
		}
	}
	return items, nil
}

// permute returns items in a seeded random order: the renew workloads
// walk this order so successive frames touch unrelated table entries.
func permute(items []wire.Item, seed uint64) []wire.Item {
	out := append([]wire.Item(nil), items...)
	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// renewFrames pre-encodes one TRenewBatch frame per renewBatch items of
// the walk. Only the request id changes between sends, so the template's
// length and CRC stay valid and the generator costs one copy per frame.
func renewFrames(walk []wire.Item) [][]byte {
	frames := make([][]byte, 0, len(walk)/renewBatch)
	for pos := 0; pos+renewBatch <= len(walk); pos += renewBatch {
		buf, start := binproto.BeginFrame(nil, binproto.TRenewBatch, 0)
		buf = binproto.AppendRenewBatchReq(buf, leaseTTLms, walk[pos:pos+renewBatch])
		frames = append(frames, binproto.EndFrame(buf, start))
	}
	return frames
}

// binConn is the load generator's side of one binary connection.
type binConn struct {
	conn    net.Conn
	br      *bufio.Reader
	bw      *bufio.Writer
	hdr     [binproto.HeaderLen]byte
	payload []byte
}

func dialBin(addr string) (*binConn, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &binConn{
		conn: conn,
		br:   bufio.NewReaderSize(conn, 256<<10),
		bw:   bufio.NewWriterSize(conn, 256<<10),
	}, nil
}

// read returns the next response frame; the payload is valid until the
// next read. The CRC is verified: a damaged response is a wrong output.
func (c *binConn) read() (binproto.Header, []byte, error) {
	if _, err := io.ReadFull(c.br, c.hdr[:]); err != nil {
		return binproto.Header{}, nil, err
	}
	h, err := binproto.ParseHeader(c.hdr[:])
	if err != nil {
		return h, nil, err
	}
	if cap(c.payload) < int(h.Len) {
		c.payload = make([]byte, h.Len)
	}
	c.payload = c.payload[:h.Len]
	if _, err := io.ReadFull(c.br, c.payload); err != nil {
		return h, nil, err
	}
	return h, c.payload, binproto.VerifyPayload(h, c.payload)
}

// flushBytes is how much request data may wait in the write buffer
// while responses are still being read: eight renew frames. Without the
// cap the two ends fall into lock step — the generator sends nothing
// until it has drained a whole burst, the server then works while the
// generator idles — and the server never saturates.
const flushBytes = 1280

// flushIfIdle pushes buffered requests out once no further response is
// already waiting to be read, or once flushBytes have piled up:
// back-to-back frames coalesce into one write, and the last frame of a
// burst still leaves before a blocking read.
func (c *binConn) flushIfIdle() error {
	if c.br.Buffered() == 0 || c.bw.Buffered() >= flushBytes {
		return c.bw.Flush()
	}
	return nil
}

// loadResult is the raw outcome of a closed-loop pass, before it is
// folded into a window.
type loadResult struct {
	start time.Time // when the pass began
	endNs []int64   // sample completion instants since then
	latNs []int64   // sample latencies
	ops   int64     // ops completed, drain included
}

// newLoadResult preallocates sample storage for a window at up to
// perSecond samples a second, so the generator does not spend the window
// growing slices.
func newLoadResult(window time.Duration, perSecond int) loadResult {
	n := int(window.Seconds()+1) * perSecond
	return loadResult{endNs: make([]int64, 0, n), latNs: make([]int64, 0, n)}
}

// renewLoop is the closed loop of renew-bin-pipelined: one connection,
// one goroutine, renewDepth frames in flight, each response answered
// with the next frame of the walk. It stops issuing after stopAfter and
// drains. Every verdict is checked against the item the frame carried.
func renewLoop(c *binConn, frames [][]byte, walk []wire.Item, stopAfter time.Duration, w *window) (loadResult, error) {
	res := newLoadResult(stopAfter, 400_000)
	var results []binproto.RenewResult
	var sendNs [renewDepth]int64
	start := time.Now()
	res.start = start
	next, inflight := 0, 0
	send := func(now int64) error {
		f := frames[next%len(frames)]
		binary.BigEndian.PutUint64(f[4:12], uint64(next))
		sendNs[next%renewDepth] = now
		next++
		inflight++
		w.attempted += renewBatch
		_, err := c.bw.Write(f)
		return err
	}
	for i := 0; i < renewDepth; i++ {
		if err := send(int64(time.Since(start))); err != nil {
			return res, err
		}
	}
	if err := c.bw.Flush(); err != nil {
		return res, err
	}
	for inflight > 0 {
		h, payload, err := c.read()
		if err != nil {
			return res, fmt.Errorf("renew loop read: %w", err)
		}
		now := int64(time.Since(start))
		inflight--
		frame := int(h.ID) % len(frames)
		expect := walk[frame*renewBatch : (frame+1)*renewBatch]
		if h.Type != binproto.TRenewBatch|binproto.RespBit {
			w.fail(renewBatch, "frame %d: response type %#02x", h.ID, byte(h.Type))
		} else if results, err = binproto.DecodeRenewBatchResp(payload, results); err != nil || len(results) != renewBatch {
			w.fail(renewBatch, "frame %d: undecodable response (%d results): %v", h.ID, len(results), err)
		} else {
			for i, r := range results {
				if r.Code != binproto.CodeOK || int(r.Name) != expect[i].Name || r.Token != expect[i].Token {
					w.fail(1, "frame %d item %d: verdict %q name %d token %d, want ok %d %d",
						h.ID, i, binproto.CodeString(r.Code), r.Name, r.Token, expect[i].Name, expect[i].Token)
				}
			}
		}
		res.endNs = append(res.endNs, now)
		res.latNs = append(res.latNs, now-sendNs[h.ID%renewDepth])
		res.ops += renewBatch
		if now < int64(stopAfter) {
			if err := send(now); err != nil {
				return res, err
			}
		}
		if err := c.flushIfIdle(); err != nil {
			return res, err
		}
	}
	return res, nil
}

// heldSet is the client-side oracle of churn-durable-bin: the names the
// client believes it holds, the standing population included.
type heldSet struct {
	bits      []uint64
	lastToken uint64
}

func (s *heldSet) has(name int) bool {
	return name/64 < len(s.bits) && s.bits[name/64]&(1<<(name%64)) != 0
}

func (s *heldSet) set(name int) {
	for name/64 >= len(s.bits) {
		s.bits = append(s.bits, 0)
	}
	s.bits[name/64] |= 1 << (name % 64)
}

func (s *heldSet) clear(name int) { s.bits[name/64] &^= 1 << (name % 64) }

// churnLoop is the closed loop of churn-durable-bin: churnDepth cycles
// in flight on one connection, each an AcquireBatch(churnBatch) followed
// by a ReleaseBatch of exactly those names. The request id carries the
// cycle slot. Oracle: no name granted while the client still holds it,
// fencing tokens strictly increasing, every release verdict ok.
func churnLoop(c *binConn, held *heldSet, stopAfter time.Duration, w *window) (loadResult, error) {
	res := newLoadResult(stopAfter, 100_000)
	type cycle struct {
		startNs   int64
		items     []wire.Item
		releasing bool
	}
	var cycles [churnDepth]cycle
	var leases []binproto.Lease
	var codes, frame []byte
	acquire, s := binproto.BeginFrame(nil, binproto.TAcquireBatch, 0)
	acquire = binproto.EndFrame(binproto.AppendAcquireBatchReq(acquire, ownerName, churnBatch, leaseTTLms, nil), s)
	start := time.Now()
	res.start = start
	inflight := 0
	begin := func(slot int, now int64) error {
		binary.BigEndian.PutUint64(acquire[4:12], uint64(slot))
		cycles[slot].startNs, cycles[slot].releasing = now, false
		inflight++
		w.attempted += churnBatch
		_, err := c.bw.Write(acquire)
		return err
	}
	for slot := range cycles {
		if err := begin(slot, int64(time.Since(start))); err != nil {
			return res, err
		}
	}
	if err := c.bw.Flush(); err != nil {
		return res, err
	}
	for inflight > 0 {
		h, payload, err := c.read()
		if err != nil {
			return res, fmt.Errorf("churn loop read: %w", err)
		}
		now := int64(time.Since(start))
		slot := int(h.ID) % churnDepth
		cy := &cycles[slot]
		restart := false
		switch {
		case !cy.releasing && h.Type == binproto.TAcquireBatch|binproto.RespBit:
			if leases, err = binproto.DecodeLeasesResp(payload, leases); err != nil || len(leases) != churnBatch {
				return res, fmt.Errorf("churn loop: acquire response with %d leases: %v", len(leases), err)
			}
			cy.items = cy.items[:0]
			for _, l := range leases {
				if l.Name < 0 || held.has(int(l.Name)) {
					w.fail(1, "name %d granted while the client still holds it", l.Name)
				}
				if l.Token <= held.lastToken {
					w.fail(1, "token %d for name %d not above the previous grant's %d", l.Token, l.Name, held.lastToken)
				}
				held.lastToken = max(held.lastToken, l.Token)
				held.set(int(l.Name))
				cy.items = append(cy.items, wire.Item{Name: int(l.Name), Token: l.Token})
			}
			frame, s = binproto.BeginFrame(frame[:0], binproto.TReleaseBatch, uint64(slot))
			frame = binproto.EndFrame(binproto.AppendReleaseBatchReq(frame, cy.items), s)
			cy.releasing = true
			if _, err := c.bw.Write(frame); err != nil {
				return res, err
			}
		case cy.releasing && h.Type == binproto.TReleaseBatch|binproto.RespBit:
			if codes, err = binproto.DecodeReleaseBatchResp(payload, codes); err != nil || len(codes) != churnBatch {
				return res, fmt.Errorf("churn loop: release response with %d verdicts: %v", len(codes), err)
			}
			for i, code := range codes {
				if code != binproto.CodeOK {
					w.fail(1, "release of name %d: verdict %q", cy.items[i].Name, binproto.CodeString(code))
				}
				held.clear(cy.items[i].Name)
			}
			res.endNs = append(res.endNs, now)
			res.latNs = append(res.latNs, now-cy.startNs)
			res.ops += churnBatch
			restart = true
		default:
			// TError (capacity, closed) or a type out of sequence: the
			// whole cycle's ops failed; the slot starts over.
			msg := ""
			if h.Type == binproto.TError {
				_, msg, _ = binproto.DecodeErrorResp(payload)
			}
			w.fail(churnBatch, "cycle slot %d: response type %#02x %s", slot, byte(h.Type), msg)
			if cy.releasing {
				for _, it := range cy.items {
					held.clear(it.Name)
				}
			}
			restart = true
		}
		if restart {
			inflight--
			if now < int64(stopAfter) {
				if err := begin(slot, now); err != nil {
					return res, err
				}
			}
		}
		if err := c.flushIfIdle(); err != nil {
			return res, err
		}
	}
	return res, nil
}
