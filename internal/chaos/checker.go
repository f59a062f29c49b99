package chaos

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/lease/persist"
	"repro/leaseclient"
)

// Checker watches every session in a chaos run and evaluates the
// system's global safety invariants over what it saw:
//
//  1. Exclusive holding — no two clients believe they hold the same
//     name at the same instant. A client's belief interval starts at
//     the acquire grant and ends at the EARLIEST of: the release it
//     sent, the loss it was told about, its session closing, or the
//     last server-stamped expiry it knows — a correct client must not
//     act on a lease past that expiry, so belief is clipped there even
//     if the session is still optimistically retrying.
//  2. Fencing monotonicity — grants of one name carry strictly
//     increasing tokens, in grant order, across crashes and restarts.
//  3. Lost is final — after a session is told a lease is lost, it must
//     never again observe itself holding that (name, token).
//  4. No silent loss — a lease reported lost with no fault window
//     anywhere in the preceding TTL is a bug: healthy heartbeats at
//     TTL/3 cannot lose a lease.
//  5. No wedged leases — at run end every surviving claim must be
//     live (expiry within TTL of now) or closed. A claim whose expiry
//     is long past with no loss report means the session stopped
//     heartbeating AND stopped noticing — the unbounded-call failure.
//  6. Capacity bound — when the run retargets the namespace online
//     (CapacityChanged), no acquire may succeed above the instantaneous
//     capacity: a grant admitted while as many unexpired beliefs as the
//     capacity were already open means the cap was not enforced.
//     Holders above a shrink's bound legitimately REMAIN held while
//     they drain out — only fresh grants are charged. Every belief
//     interval is a subset of the server's own hold interval (belief
//     starts at the grant ack and ends at release-send, loss, close, or
//     the client-known — hence never-later — expiry), so the open count
//     can only undercount the server's live table and the check never
//     fires falsely. Judged with a ±capEps slack window around each
//     grant so an acquire in flight across a retarget is charged
//     against whichever capacity was live at any instant the grant
//     could have been issued.
//
// Belief intervals are built from driver hooks (Acquired/ReleaseSent/
// Closed), the session's OnLost callback, and a periodic Observe
// sample of Session.Leases() that refreshes known expiries. All
// timestamps come from the checker's own clock — sessions may run
// skewed clocks, the checker never does.
//
// Finish folds in the post-run journal audit (lease/persist.ReadAudit):
// the journal's own per-name token order must be clean, and its
// watermark must cover every token any client ever saw — a grant the
// journal never heard of means the durability path dropped a record.
type Checker struct {
	ttl time.Duration
	// eps absorbs sampling and delivery slop when comparing instants
	// from different goroutines.
	eps time.Duration

	// capEps is the slack around a grant instant when judging it against
	// the capacity timeline (invariant 6): it must cover the in-flight
	// RTT between a resize response landing and a grant issued under the
	// previous geometry still being delivered through a delaying proxy.
	capEps time.Duration

	mu         sync.Mutex
	claims     map[int][]*claim // name -> claims in grant order
	open       map[claimKey]*claim
	faults     []faultWindow
	caps       []capRecord
	violations []Violation
	maxToken   uint64
	lost       int
	acquired   int
	released   int
}

// capRecord is one step of the namespace-capacity timeline: capacity is
// active from `from` until the next record's instant.
type capRecord struct {
	from     time.Time
	capacity int
}

type claimKey struct {
	client int
	name   int
	token  uint64
}

// claim is one client's belief that it holds (name, token).
type claim struct {
	claimKey
	start  time.Time
	expiry time.Time // latest server-stamped expiry observed
	end    time.Time // zero while the belief is live
	why    string    // what ended it: released | lost | closed
}

// effectiveEnd is when the belief stops counting for exclusivity: the
// recorded end, clipped to the last known expiry (belief past expiry
// is invalid by contract), or the expiry alone while still open.
func (c *claim) effectiveEnd(runEnd time.Time) time.Time {
	end := runEnd
	if !c.end.IsZero() && c.end.Before(end) {
		end = c.end
	}
	if c.expiry.Before(end) {
		end = c.expiry
	}
	return end
}

type faultWindow struct {
	from, to time.Time
	kind     string
}

// Violation is one broken invariant, with enough detail to chase.
type Violation struct {
	Invariant string    `json:"invariant"`
	Detail    string    `json:"detail"`
	Time      time.Time `json:"time"`
}

// NewChecker builds a checker for sessions leasing with the given TTL.
func NewChecker(ttl time.Duration) *Checker {
	return &Checker{
		ttl:    ttl,
		eps:    50 * time.Millisecond,
		capEps: 500 * time.Millisecond,
		claims: map[int][]*claim{},
		open:   map[claimKey]*claim{},
	}
}

// CapacityChanged records an applied capacity retarget — or, before the
// first grant, the initial capacity — at the instant its outcome was
// observed. Once any record exists, every subsequent grant is judged
// against the timeline (invariant 6).
func (c *Checker) CapacityChanged(at time.Time, capacity int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.caps = append(c.caps, capRecord{from: at, capacity: capacity})
}

// maxCapacityNear is the largest capacity active at any instant within
// ±capEps of t. The slack absorbs delivery skew: a grant issued just
// before a shrink's response landed is judged against the pre-shrink
// capacity instead of being falsely flagged. Caller holds mu.
func (c *Checker) maxCapacityNear(t time.Time) int {
	lo, hi := t.Add(-c.capEps), t.Add(c.capEps)
	max := 0
	for i, rec := range c.caps {
		end := hi // the last record runs to the end of time
		if i+1 < len(c.caps) {
			end = c.caps[i+1].from
		}
		if rec.from.After(hi) || end.Before(lo) {
			continue
		}
		if rec.capacity > max {
			max = rec.capacity
		}
	}
	return max
}

// Fault registers a window during which faults were active for some or
// all clients. Loss classification (invariant 4) excuses any loss whose
// preceding TTL overlaps a window.
func (c *Checker) Fault(from, to time.Time, kind string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.faults = append(c.faults, faultWindow{from: from, to: to, kind: kind})
}

// clock is the checker's one clock, which also frames the run and stamps
// its fault windows: real time, since sessions may run skewed clocks and
// the checker never does. Schedules draw from rng(seed, label) instead.
//
//lint:wallclock the checker judges on real time, never a session's skewed clock
func clock() time.Time { return time.Now() }

func (c *Checker) violate(inv, format string, args ...any) {
	c.violations = append(c.violations, Violation{
		Invariant: inv,
		Detail:    fmt.Sprintf(format, args...),
		Time:      clock(),
	})
}

// Client returns the hook bundle for one session, identified by id.
type Client struct {
	c  *Checker
	id int
}

func (c *Checker) Client(id int) *Client { return &Client{c: c, id: id} }

// Acquired records granted leases. Token monotonicity per name is
// checked here, at grant time: grants arrive in real-time order per
// name (the server serializes them), so a token at or below the name's
// previous grant is a fencing regression no matter what else happens.
func (cl *Client) Acquired(leases ...leaseclient.Lease) {
	now := clock()
	c := cl.c
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, l := range leases {
		c.acquired++
		if l.Token > c.maxToken {
			c.maxToken = l.Token
		}
		// Invariant 6: the grant must have fit under some capacity that
		// was live within the slack window of the grant instant — counting
		// every belief still open and unexpired across all clients.
		if len(c.caps) > 0 {
			held := 0
			for _, cm := range c.open {
				if cm.expiry.After(now) {
					held++
				}
			}
			if max := c.maxCapacityNear(now); held >= max {
				c.violate("capacity-bound",
					"client %d granted name %d while %d leases were already held, but the capacity never exceeded %d within ±%v of the grant",
					cl.id, l.Name, held, max, c.capEps)
			}
		}
		if prev := c.claims[l.Name]; len(prev) > 0 {
			if last := prev[len(prev)-1]; l.Token <= last.token {
				c.violate("fencing-monotonic",
					"name %d granted token %d to client %d after token %d (client %d)",
					l.Name, l.Token, cl.id, last.token, last.client)
			}
		}
		k := claimKey{client: cl.id, name: l.Name, token: l.Token}
		cm := &claim{claimKey: k, start: now, expiry: l.ExpiresAt}
		c.claims[l.Name] = append(c.claims[l.Name], cm)
		c.open[k] = cm
	}
}

// Observe feeds one sample of Session.Leases(): refreshes each open
// claim's known expiry, detects a lost lease coming back from the dead
// (invariant 3), and reopens a released claim the session re-adopted
// after a failed release round trip. The re-adoption gap (belief closed
// at send, reopened at the next sample) is safe: a belief gap can only
// hide an overlap from the checker, never invent one, and the server
// never freed the lease in that window.
func (cl *Client) Observe(leases []leaseclient.Lease) {
	c := cl.c
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, l := range leases {
		k := claimKey{client: cl.id, name: l.Name, token: l.Token}
		if cm, ok := c.open[k]; ok {
			if l.ExpiresAt.After(cm.expiry) {
				cm.expiry = l.ExpiresAt
			}
			continue
		}
		// Held with no open claim: a closed claim resurfaced.
		for _, cm := range c.claims[l.Name] {
			if cm.claimKey != k {
				continue
			}
			switch cm.why {
			case "lost":
				c.violate("lost-is-final",
					"client %d observed holding name %d token %d after it was reported lost",
					cl.id, l.Name, l.Token)
			case "released":
				cm.end, cm.why = time.Time{}, ""
				c.open[k] = cm
				c.released--
				if l.ExpiresAt.After(cm.expiry) {
					cm.expiry = l.ExpiresAt
				}
			}
		}
	}
}

// ReleaseSent records that the client sent a release and no longer
// believes it holds the lease — belief ends at SEND time, before the
// server acts, so exclusivity is judged conservatively.
func (cl *Client) ReleaseSent(name int, token uint64) {
	c := cl.c
	c.mu.Lock()
	defer c.mu.Unlock()
	k := claimKey{client: cl.id, name: name, token: token}
	if cm, ok := c.open[k]; ok {
		cm.end = clock()
		cm.why = "released"
		delete(c.open, k)
		c.released++
	}
}

// LostFunc adapts the hooks to leaseclient.Config.OnLost. The session
// does not pass the token, but a session holds at most one token per
// name, so the open claim identifies it.
func (cl *Client) LostFunc() func(name int, err error) {
	return func(name int, err error) {
		c := cl.c
		c.mu.Lock()
		defer c.mu.Unlock()
		for k, cm := range c.open {
			if k.client == cl.id && k.name == name {
				cm.end = clock()
				cm.why = "lost"
				delete(c.open, k)
				c.lost++
				// Invariant 4: a loss with no fault anywhere in the
				// preceding TTL (plus slack) is silent and therefore a bug.
				from := cm.end.Add(-c.ttl - c.eps)
				if !slices.ContainsFunc(c.faults, func(w faultWindow) bool { return w.from.Before(cm.end) && w.to.After(from) }) {
					c.violate("no-silent-loss",
						"client %d lost name %d token %d (%v) with no fault active in the preceding %v",
						cl.id, name, k.token, err, c.ttl)
				}
				return
			}
		}
	}
}

// Closed ends every remaining belief for the client at session close.
func (cl *Client) Closed() {
	c := cl.c
	c.mu.Lock()
	defer c.mu.Unlock()
	now := clock()
	for k, cm := range c.open {
		if k.client != cl.id {
			continue
		}
		cm.end = now
		cm.why = "closed"
		delete(c.open, k)
	}
}

// CheckerStats summarizes what the checker processed.
type CheckerStats struct {
	Acquired int    `json:"acquired"`
	Released int    `json:"released"`
	Lost     int    `json:"lost"`
	Names    int    `json:"names"`
	MaxToken uint64 `json:"max_token"`
}

// Finish evaluates the end-of-run invariants and returns every
// violation found over the whole run. end is the instant the run's
// observation stopped (before teardown began); audit is the post-run
// read-only journal scan, nil when the scenario ran without durability.
func (c *Checker) Finish(end time.Time, audit *persist.Audit) []Violation {
	c.mu.Lock()
	defer c.mu.Unlock()

	// Invariant 1: exclusivity. Claims per name are in grant order;
	// every claim must start after every EARLIER claim's belief has
	// ended (different clients only — one session re-observing its own
	// lease is just bookkeeping).
	for name, claims := range c.claims {
		for i, cur := range claims {
			for _, prev := range claims[:i] {
				if prev.client == cur.client {
					continue
				}
				prevEnd := prev.effectiveEnd(end)
				if cur.start.Add(c.eps).Before(prevEnd) {
					c.violate("exclusive-holding",
						"name %d: client %d granted token %d at %s while client %d still held token %d until %s (overlap %v)",
						name, cur.client, cur.token, cur.start.Format(time.RFC3339Nano),
						prev.client, prev.token, prevEnd.Format(time.RFC3339Nano),
						prevEnd.Sub(cur.start))
				}
			}
		}
	}

	// Invariant 5: wedged leases. An open claim whose expiry is more
	// than a TTL behind the run's end was neither renewed nor reported
	// lost for at least that long — the session is wedged.
	for _, cm := range c.open {
		if end.Sub(cm.expiry) > c.ttl+c.eps {
			c.violate("no-wedged-leases",
				"client %d still believes it holds name %d token %d but its expiry passed %v ago with no loss report",
				cm.client, cm.name, cm.token, end.Sub(cm.expiry))
		}
	}

	// The durable record must corroborate the clients' view.
	if audit != nil {
		for _, r := range audit.Regressions {
			c.violate("journal-fencing", "journal token order broken: %v", r)
		}
		if audit.MaxToken < c.maxToken {
			c.violate("journal-watermark",
				"journal watermark %d below highest client-observed token %d: an acknowledged grant never reached the journal",
				audit.MaxToken, c.maxToken)
		}
	}

	sort.Slice(c.violations, func(i, j int) bool { return c.violations[i].Time.Before(c.violations[j].Time) })
	return append([]Violation(nil), c.violations...)
}

// Stats summarizes the run for the report.
func (c *Checker) Stats() CheckerStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CheckerStats{
		Acquired: c.acquired,
		Released: c.released,
		Lost:     c.lost,
		Names:    len(c.claims),
		MaxToken: c.maxToken,
	}
}
