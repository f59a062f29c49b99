// Connpool: renaming as lock-free slot allocation.
//
// The paper's introduction motivates renaming with concurrent memory
// management: a fixed pool of resources (here, connection slots) must be
// claimed by concurrent workers without locks. Renaming assigns each
// worker a distinct slot index in O(log log n) CAS probes; the Release
// extension returns slots to the pool when workers finish, so the pool can
// serve many short-lived workers through a small namespace.
//
// Run with: go run ./examples/connpool
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"sync"
	"sync/atomic"

	renaming "repro"
)

// conn is a pretend pooled resource.
type conn struct {
	slot   int
	inUse  atomic.Bool
	usedBy atomic.Int64 // how many workers ever used this slot
}

type pool struct {
	namer renaming.Namer
	conns []*conn
}

func newPool(size int) (*pool, error) {
	namer, err := renaming.NewReBatching(size, renaming.WithT0Override(6))
	if err != nil {
		return nil, err
	}
	conns := make([]*conn, namer.Namespace())
	for i := range conns {
		conns[i] = &conn{slot: i}
	}
	return &pool{namer: namer, conns: conns}, nil
}

// acquire claims a free slot via renaming.
func (p *pool) acquire() (*conn, error) {
	slot, err := p.namer.Acquire(context.Background())
	if err != nil {
		return nil, err
	}
	c := p.conns[slot]
	if !c.inUse.CompareAndSwap(false, true) {
		// Renaming hands out each unreleased name exactly once, so this
		// indicates a bug in the pool, not in the namer.
		return nil, fmt.Errorf("slot %d double-allocated", slot)
	}
	c.usedBy.Add(1)
	return c, nil
}

// release returns the slot to the pool.
func (p *pool) release(c *conn) error {
	if !c.inUse.CompareAndSwap(true, false) {
		return fmt.Errorf("slot %d released while free", c.slot)
	}
	return p.namer.Release(c.slot)
}

func main() {
	if err := run(); err != nil {
		log.SetFlags(0)
		log.Println("connpool:", err)
		os.Exit(1)
	}
}

func run() error {
	const (
		poolSize = 32  // concurrent capacity
		workers  = 8   // concurrent workers
		jobs     = 500 // total acquire/use/release cycles
	)
	p, err := newPool(poolSize)
	if err != nil {
		return err
	}

	var (
		wg       sync.WaitGroup
		jobQueue = make(chan int)
		firstErr error
		errOnce  sync.Once
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range jobQueue {
				c, err := p.acquire()
				if err != nil {
					errOnce.Do(func() { firstErr = err })
					return
				}
				// "Use" the connection: the slot index doubles as a direct
				// index into per-connection state — the whole point of a
				// small namespace.
				if err := p.release(c); err != nil {
					errOnce.Do(func() { firstErr = err })
					return
				}
			}
		}()
	}
	for j := 0; j < jobs; j++ {
		jobQueue <- j
	}
	close(jobQueue)
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}

	total := int64(0)
	hot := 0
	for _, c := range p.conns {
		if n := c.usedBy.Load(); n > 0 {
			hot++
			total += n
		}
		if c.inUse.Load() {
			return fmt.Errorf("slot %d leaked", c.slot)
		}
	}
	fmt.Printf("%d jobs served by %d workers through %d distinct slots (namespace %d)\n",
		total, workers, hot, p.namer.Namespace())
	fmt.Println("no leaks, no double allocations ✓")
	return nil
}
