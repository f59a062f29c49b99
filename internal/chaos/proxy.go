package chaos

import (
	"fmt"
	"math/rand/v2"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Faults configures the proxy's per-chunk misbehavior. A "chunk" is one
// read from the source socket — write-flush granularity, since both the
// binary transport and net/http write a request (or response) as one
// buffered flush. Probabilities are evaluated per chunk against the
// connection's seeded stream; zero values mean the fault is off.
type Faults struct {
	// Drop discards the chunk entirely. Mid-stream this desyncs the
	// protocol framing, which is the point: the peer must detect the
	// corruption, drop the connection, and recover by redialing.
	Drop float64
	// Delay holds the chunk for a uniform [0, DelayMax] pause before
	// forwarding. DelayMax defaults to 50ms when Delay is set.
	Delay    float64
	DelayMax time.Duration
	// Reorder holds the chunk back and forwards it AFTER the next chunk
	// on the same direction — adjacent-write transposition.
	Reorder float64
	// Reset forwards a prefix of the chunk (half of it — mid-frame) and
	// then severs the connection, both directions.
	Reset float64
	// Corrupt XOR-flips one byte of the chunk before forwarding it. The
	// framing stays intact — length prefixes and HTTP headers still
	// parse — but the content is damaged, which is the fault Drop and
	// Reset cannot produce: it probes the payload CRC gate (binproto
	// ErrChecksum) rather than the framing discipline. A run where the
	// proxy corrupted chunks but no endpoint reported an error means
	// damaged data was accepted silently — the checker fails it.
	Corrupt float64
	// Groups is how many client groups partitions select over;
	// connections are assigned round-robin by accept order. 0 or 1 means
	// every connection is in group 0.
	Groups int
	// Partitions are the black-hole windows, relative to proxy start.
	Partitions []Window
}

// Window is one partition: from At for For, connections in Group (−1 =
// all groups) are black-holed — bytes in BOTH directions are read and
// silently discarded, the connection stays open. A request sent into
// the window is gone, and so is its response: the client sees a call
// that never completes, which is precisely the failure mode an
// unbounded client cannot survive.
type Window struct {
	At    time.Duration
	For   time.Duration
	Group int
}

// ProxyStats counts what the proxy did. All fields are cumulative.
type ProxyStats struct {
	Conns      int64
	Chunks     int64 // chunks forwarded intact
	Bytes      int64
	Dropped    int64
	Delayed    int64
	Reordered  int64
	Resets     int64
	Corrupted  int64 // chunks forwarded with one byte flipped
	Blackholed int64 // chunks eaten by a partition window
}

// Proxy is a fault-injecting TCP relay in front of one upstream
// address. It is transport-agnostic: HTTP and the binary protocol are
// both just byte streams to it.
type Proxy struct {
	target string
	seed   uint64
	faults Faults
	ln     net.Listener
	start  time.Time

	// active gates every probabilistic fault (nil: always on); partitions
	// are windows and gate themselves. The scenario flips it off for the
	// heal phase.
	active *atomic.Bool

	mu       sync.Mutex
	conns    map[net.Conn]struct{} // client-side conns, for SeverConns
	upstream map[net.Conn]struct{}
	nextConn int
	closed   bool

	conNs      atomic.Int64
	chunks     atomic.Int64
	bytes      atomic.Int64
	dropped    atomic.Int64
	delayed    atomic.Int64
	reordered  atomic.Int64
	resets     atomic.Int64
	corrupted  atomic.Int64
	blackholed atomic.Int64
}

// NewProxy listens on 127.0.0.1 (an ephemeral port) and relays every
// accepted connection to target, applying faults on both directions.
// The fault schedule for connection i is a pure function of (seed, i).
// active gates the probabilistic faults exactly as it gates
// WrapTransport's: the scenario shares one flag between them.
func NewProxy(target string, seed uint64, faults Faults, active *atomic.Bool) (*Proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("chaos: proxy listen: %w", err)
	}
	if faults.Delay > 0 && faults.DelayMax == 0 {
		faults.DelayMax = 50 * time.Millisecond
	}
	if faults.Groups < 1 {
		faults.Groups = 1
	}
	p := &Proxy{
		target: target,
		seed:   seed,
		faults: faults,
		active: active,
		ln:     ln,
		//lint:wallclock the proxy shapes real traffic in real time; elapsed-since-start only phases fault groups, decisions stay seeded
		start:    time.Now(),
		conns:    map[net.Conn]struct{}{},
		upstream: map[net.Conn]struct{}{},
	}
	go p.acceptLoop()
	return p, nil
}

// Addr is the proxy's listen address, host:port.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// SeverConns closes every connection currently relayed, both sides,
// while the listener keeps accepting. A client wedged on a response the
// proxy already discarded is released by this — teardown runs it before
// closing sessions so even a deliberately unbounded client can exit.
func (p *Proxy) SeverConns() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for c := range p.conns {
		c.Close()
	}
	for c := range p.upstream {
		c.Close()
	}
}

// Close stops accepting and severs everything.
func (p *Proxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	p.mu.Unlock()
	err := p.ln.Close()
	p.SeverConns()
	return err
}

// Stats snapshots the counters.
func (p *Proxy) Stats() ProxyStats {
	return ProxyStats{
		Conns:      p.conNs.Load(),
		Chunks:     p.chunks.Load(),
		Bytes:      p.bytes.Load(),
		Dropped:    p.dropped.Load(),
		Delayed:    p.delayed.Load(),
		Reordered:  p.reordered.Load(),
		Resets:     p.resets.Load(),
		Corrupted:  p.corrupted.Load(),
		Blackholed: p.blackholed.Load(),
	}
}

func (p *Proxy) acceptLoop() {
	for {
		client, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			client.Close()
			return
		}
		idx := p.nextConn
		p.nextConn++
		p.conns[client] = struct{}{}
		p.mu.Unlock()
		p.conNs.Add(1)
		go p.relay(client, idx)
	}
}

// relay dials upstream and pumps both directions, each with its own
// deterministic fault stream.
func (p *Proxy) relay(client net.Conn, idx int) {
	upstream, err := net.DialTimeout("tcp", p.target, 5*time.Second)
	if err != nil {
		// Upstream down (a crash window): refuse by closing — the client
		// sees a reset, exactly what a dead server produces.
		client.Close()
		p.forget(client, nil)
		return
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		client.Close()
		upstream.Close()
		return
	}
	p.upstream[upstream] = struct{}{}
	p.mu.Unlock()

	group := idx % p.faults.Groups
	sever := func() { client.Close(); upstream.Close() }
	done := make(chan struct{})
	go func() {
		defer close(done)
		p.pump(client, upstream, p.pipePlan(idx, 0), group, sever)
	}()
	p.pump(upstream, client, p.pipePlan(idx, 1), group, sever)
	<-done
	p.forget(client, upstream)
}

func (p *Proxy) forget(client, upstream net.Conn) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.conns, client)
	if upstream != nil {
		delete(p.upstream, upstream)
	}
}

// decision is one chunk's fate, drawn deterministically.
type decision struct {
	blackhole   bool
	drop        bool
	reset       bool
	reorder     bool
	corrupt     bool
	corruptPos  float64 // fraction of the chunk length, [0,1)
	corruptMask byte    // nonzero XOR mask for the flipped byte
	delay       time.Duration
}

// pipePlan is the deterministic decision stream for one direction of
// one connection: given the chunk index's draw order is fixed, the
// schedule is a pure function of (seed, conn, dir).
type pipePlan struct {
	r *rand.Rand
	f Faults
}

func (p *Proxy) pipePlan(conn, dir int) *pipePlan {
	return &pipePlan{
		r: rng(p.seed, fmt.Sprintf("proxy/%d/%d", conn, dir)),
		f: p.faults,
	}
}

// next draws the fate of one chunk. The draws happen unconditionally
// and in fixed order so the stream stays aligned regardless of which
// faults are enabled — flipping one probability never reshuffles the
// others' schedule. sinceStart and active are the only external inputs.
func (pl *pipePlan) next(sinceStart time.Duration, group int, active bool) decision {
	var d decision
	dropDraw := pl.r.Float64()
	resetDraw := pl.r.Float64()
	reorderDraw := pl.r.Float64()
	delayDraw := pl.r.Float64()
	delayAmt := pl.r.Float64()
	corruptDraw := pl.r.Float64()
	corruptPos := pl.r.Float64()
	corruptMask := byte(1 + pl.r.IntN(255)) // never 0: a flip must flip
	for _, w := range pl.f.Partitions {
		if (w.Group == -1 || w.Group == group) && sinceStart >= w.At && sinceStart < w.At+w.For {
			d.blackhole = true
			return d
		}
	}
	if !active {
		return d
	}
	if dropDraw < pl.f.Drop {
		d.drop = true
		return d
	}
	if resetDraw < pl.f.Reset {
		d.reset = true
		return d
	}
	d.reorder = reorderDraw < pl.f.Reorder
	if corruptDraw < pl.f.Corrupt {
		d.corrupt = true
		d.corruptPos = corruptPos
		d.corruptMask = corruptMask
	}
	if delayDraw < pl.f.Delay {
		d.delay = time.Duration(delayAmt * float64(pl.f.DelayMax))
	}
	return d
}

// pump relays src→dst chunk by chunk through the plan. held is the
// reorder buffer: a held chunk is written after the one that follows
// it (or discarded if the stream ends first — a tail byte lost in
// flight).
//
//lint:wallclock pacing (partition windows, delivery delays) is real-time behavior; every decision that shapes the schedule comes from the seeded plan
func (p *Proxy) pump(src, dst net.Conn, plan *pipePlan, group int, sever func()) {
	// Half-close propagation: a finished direction closes both ends; the
	// lease protocols never half-close, so symmetric teardown is simpler
	// and right.
	defer sever()
	buf := make([]byte, 32<<10)
	var held []byte
	for {
		n, err := src.Read(buf)
		if n > 0 {
			d := plan.next(time.Since(p.start), group, gateOn(p.active))
			chunk := buf[:n]
			switch {
			case d.blackhole:
				p.blackholed.Add(1)
			case d.drop:
				p.dropped.Add(1)
			case d.reset:
				p.resets.Add(1)
				dst.Write(chunk[:n/2])
				return
			default:
				if d.corrupt {
					// One byte, XOR-flipped in place. Position scales with
					// the chunk so small heartbeat frames and large batch
					// responses are both covered; Float64 is in [0,1) so
					// the index stays in range.
					chunk[int(d.corruptPos*float64(n))] ^= d.corruptMask
					p.corrupted.Add(1)
				}
				if d.delay > 0 {
					p.delayed.Add(1)
					time.Sleep(d.delay)
				}
				if d.reorder && held == nil {
					held = append([]byte(nil), chunk...)
					p.reordered.Add(1)
					break
				}
				if _, err := dst.Write(chunk); err != nil {
					return
				}
				p.chunks.Add(1)
				p.bytes.Add(int64(n))
				if held != nil {
					if _, err := dst.Write(held); err != nil {
						return
					}
					p.chunks.Add(1)
					p.bytes.Add(int64(len(held)))
					held = nil
				}
			}
		}
		if err != nil {
			return
		}
	}
}
