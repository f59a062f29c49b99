package chaos

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"sync/atomic"
	"testing"
	"time"
)

// collectDecisions drives a plan through n chunks with a fixed wall
// offset, rendering each decision compactly.
func collectDecisions(pl *pipePlan, n int) string {
	var b bytes.Buffer
	for i := 0; i < n; i++ {
		d := pl.next(time.Duration(i)*10*time.Millisecond, 0, true)
		fmt.Fprintf(&b, "%v|%v|%v|%v|%v|%v|%.4f|%d;",
			d.blackhole, d.drop, d.reset, d.reorder, d.delay, d.corrupt, d.corruptPos, d.corruptMask)
	}
	return b.String()
}

// TestPlanDeterministic: the fault schedule is a pure function of
// (seed, conn, dir) — the reproducibility every chaos report's printed
// seed promises.
func TestPlanDeterministic(t *testing.T) {
	f := Faults{Drop: 0.1, Delay: 0.3, DelayMax: 20 * time.Millisecond, Reorder: 0.1, Reset: 0.05, Groups: 1}
	p1 := &Proxy{seed: 42, faults: f}
	p2 := &Proxy{seed: 42, faults: f}
	if a, b := collectDecisions(p1.pipePlan(3, 0), 256), collectDecisions(p2.pipePlan(3, 0), 256); a != b {
		t.Fatal("same (seed, conn, dir) produced different fault schedules")
	}
	if a, b := collectDecisions(p1.pipePlan(3, 0), 256), collectDecisions(p1.pipePlan(4, 0), 256); a == b {
		t.Fatal("different connections produced identical schedules")
	}
	if a, b := collectDecisions(p1.pipePlan(3, 0), 256), collectDecisions(p1.pipePlan(3, 1), 256); a == b {
		t.Fatal("different directions produced identical schedules")
	}
	p3 := &Proxy{seed: 43, faults: f}
	if a, b := collectDecisions(p1.pipePlan(3, 0), 256), collectDecisions(p3.pipePlan(3, 0), 256); a == b {
		t.Fatal("different seeds produced identical schedules")
	}
}

// TestPlanDrawOrderStable: toggling one fault's probability must not
// reshuffle the other faults' schedule — the draws happen
// unconditionally in fixed order.
func TestPlanDrawOrderStable(t *testing.T) {
	base := Faults{Drop: 0, Delay: 0.3, DelayMax: 20 * time.Millisecond, Groups: 1}
	withDrop := base
	withDrop.Drop = 0.0001 // nearly never fires, but the draw happens either way
	pa := &Proxy{seed: 7, faults: base}
	pb := &Proxy{seed: 7, faults: withDrop}
	a := collectDecisions(pa.pipePlan(0, 0), 512)
	b := collectDecisions(pb.pipePlan(0, 0), 512)
	if a != b {
		t.Fatal("enabling an (almost-never-firing) fault reshuffled the other faults' schedule")
	}
}

// echoServer accepts and echoes bytes back.
func echoServer(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				buf := make([]byte, 4096)
				for {
					n, err := conn.Read(buf)
					if n > 0 {
						if _, werr := conn.Write(buf[:n]); werr != nil {
							return
						}
					}
					if err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// echoThrough sends msg to the echo server through p and returns what
// came back.
func echoThrough(t *testing.T, p *Proxy, msg string) string {
	t.Helper()
	conn, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte(msg)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(msg))
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := readFull(conn, buf); err != nil {
		t.Fatal(err)
	}
	return string(buf)
}

func TestProxyPassThrough(t *testing.T) {
	p, err := NewProxy(echoServer(t), 1, Faults{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if got := echoThrough(t, p, "through the quiet proxy"); got != "through the quiet proxy" {
		t.Fatalf("echoed %q", got)
	}
	if st := p.Stats(); st.Conns != 1 || st.Chunks < 2 {
		t.Fatalf("stats %+v, want 1 conn and >= 2 chunks", st)
	}
}

// TestProxyGate: with the shared gate off — the heal phase — a proxy
// told to drop, reset and corrupt every chunk relays bytes intact and
// counts no fault.
func TestProxyGate(t *testing.T) {
	var active atomic.Bool
	p, err := NewProxy(echoServer(t), 1, Faults{Drop: 1, Reset: 1, Corrupt: 1}, &active)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if got := echoThrough(t, p, "healed"); got != "healed" {
		t.Fatalf("echoed %q through a gated-off proxy", got)
	}
	if st := p.Stats(); st.Dropped+st.Resets+st.Corrupted != 0 {
		t.Fatalf("stats %+v, want no faults with the gate off", st)
	}
}

// TestProxyPartitionBlackholes: during the window bytes vanish silently
// — the connection stays up, the response never comes. After the window
// a fresh exchange works on the same connection.
func TestProxyPartitionBlackholes(t *testing.T) {
	upstream := echoServer(t)
	p, err := NewProxy(upstream, 1, Faults{
		Partitions: []Window{{At: 0, For: 600 * time.Millisecond, Group: -1}},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	conn, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("eaten")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	conn.SetReadDeadline(time.Now().Add(250 * time.Millisecond))
	if _, err := conn.Read(buf); !os.IsTimeout(err) {
		t.Fatalf("read during partition: err = %v, want timeout (black hole, not reset)", err)
	}

	time.Sleep(500 * time.Millisecond) // window over
	if _, err := conn.Write([]byte("alive")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatalf("read after partition healed: %v", err)
	}
	if string(buf[:n]) != "alive" {
		t.Fatalf("post-heal echo %q, want %q", buf[:n], "alive")
	}
	if st := p.Stats(); st.Blackholed == 0 {
		t.Fatal("no chunks counted as blackholed")
	}
}

// TestProxyCorruptFlipsBytes: with Corrupt at 1 every forwarded chunk is
// damaged — same length, different content — so an echo round trip comes
// back corrupted on both legs. This is the fault that must light up the
// binproto CRC gate; here we only prove the proxy actually flips bytes
// and keeps the framing (byte count) intact.
func TestProxyCorruptFlipsBytes(t *testing.T) {
	p, err := NewProxy(echoServer(t), 1, Faults{Corrupt: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	msg := "checksums exist for a reason"
	buf := echoThrough(t, p, msg)
	diff := 0
	for i := range msg {
		if buf[i] != msg[i] {
			diff++
		}
	}
	// Each direction flips exactly one byte; the two flips can land on
	// different positions (2 differing bytes) or the same one (1, or 0
	// only if the masks cancel — seed 1 does not do that).
	if diff == 0 || diff > 2 {
		t.Fatalf("echo differs in %d bytes, want 1 or 2 (one flip per direction)", diff)
	}
	if st := p.Stats(); st.Corrupted != 2 {
		t.Fatalf("stats %+v, want Corrupted == 2 (one per direction)", st)
	}
}

// TestProxySeverConns: severing releases a client blocked on a response
// that will never come — the teardown path for wedged unbounded calls.
func TestProxySeverConns(t *testing.T) {
	upstream := echoServer(t)
	p, err := NewProxy(upstream, 1, Faults{Drop: 1}, nil) // every chunk dropped
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	conn, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.Write([]byte("dropped"))
	done := make(chan error, 1)
	go func() {
		_, err := conn.Read(make([]byte, 8))
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("read returned early (%v); drop-all should hang it", err)
	case <-time.After(300 * time.Millisecond):
	}
	p.SeverConns()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("SeverConns did not release the blocked read")
	}
}

func readFull(conn net.Conn, buf []byte) (int, error) {
	total := 0
	for total < len(buf) {
		n, err := conn.Read(buf[total:])
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}
