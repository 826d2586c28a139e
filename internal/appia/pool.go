package appia

import (
	"runtime"
	"sync"

	"morpheus/internal/clock"
)

// Pool is a shared work-stealing executor for many schedulers: a fixed set
// of worker goroutines own per-worker run queues of *runnable schedulers*
// (schedulers whose mailbox went non-empty) and steal from each other when
// their own queue runs dry. It replaces the 1-goroutine-per-group model for
// nodes hosting many groups: goroutine count, stack memory and wake-up cost
// become O(workers) instead of O(groups), while an idle group costs nothing
// at all — it simply is not in any queue.
//
// Serialization illusion. A scheduler is owned by at most one worker at a
// time, and ownership changes hands only at mailbox-drain boundaries: a
// worker that pops a scheduler runs Scheduler.drain to completion (mailbox
// empty, scheduler parked) before the scheduler can be enqueued again.
// Layer code therefore observes a single-threaded stack, exactly as with
// an unpooled scheduler — the memory-ordering handoff between successive
// owning workers is carried by the chain
//
//	park (s.mu) -> post (s.mu) -> enqueue (pool.mu) -> pop (pool.mu) -> drain (s.mu)
//
// so even the scheduler fields only ever touched by the owning executor
// (token state, route caches, batch buffers) need no new locks.
//
// Determinism. Under a *clock.Virtual the pool degrades to strictly
// sequential dispatch: per-worker queues and stealing are disabled in favor
// of one global FIFO, and each wake-up atomically (under pool.mu) enqueues
// the scheduler for the clock's run token AND appends it to that FIFO — so
// pop order equals token-grant order equals poster order, which is exactly
// the unpooled execution. Worker count does not change the schedule:
// whichever worker pops a scheduler still blocks on that scheduler's token
// grant, and grants are issued one at a time in FIFO order. Golden hashes
// are therefore byte-identical across pool sizes and versus unpooled
// schedulers.
type Pool struct {
	clk  clock.Clock
	vclk *clock.Virtual

	mu     sync.Mutex
	cond   *sync.Cond // idle workers wait here
	local  [][]*Scheduler
	fifo   []*Scheduler // virtual mode: the single global run queue
	idle   int
	closed bool
	next   int // round-robin affinity cursor for new schedulers

	// Counters, guarded by mu.
	enqueues uint64
	batches  uint64
	steals   uint64
	stolen   uint64
	parks    uint64

	wg sync.WaitGroup
}

// PoolStats is a snapshot of a pool's dispatch counters.
type PoolStats struct {
	Workers  int
	Enqueues uint64 // scheduler wake-ups queued for dispatch
	Batches  uint64 // drain sessions executed by workers
	Steals   uint64 // steal operations (an idle worker raiding a victim queue)
	Stolen   uint64 // schedulers migrated between workers by steals
	Parks    uint64 // times a worker went idle
	// Deterministic reports virtual-clock mode: one global FIFO, no
	// stealing, dispatch serialized by the clock's run token.
	Deterministic bool
}

// NewPool starts a pool of workers executing schedulers driven by clk (nil
// means the wall clock). workers <= 0 defaults to GOMAXPROCS.
func NewPool(workers int, clk clock.Clock) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{
		clk:   clock.Or(clk),
		local: make([][]*Scheduler, workers),
	}
	p.vclk, _ = p.clk.(*clock.Virtual)
	p.cond = sync.NewCond(&p.mu)
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker(i)
	}
	return p
}

// Clock returns the clock driving the pool's schedulers.
func (p *Pool) Clock() clock.Clock { return p.clk }

// Workers returns the pool's worker count.
func (p *Pool) Workers() int { return len(p.local) }

// NewScheduler returns a scheduler executed by this pool. It shares the
// whole Scheduler API with unpooled schedulers; Close drains and detaches
// it without stopping the pool.
func (p *Pool) NewScheduler() *Scheduler {
	s := NewSchedulerWithClock(p.clk)
	s.pool = p
	p.mu.Lock()
	s.affinity = p.next
	p.next = (p.next + 1) % len(p.local)
	p.mu.Unlock()
	return s
}

// Stats snapshots the pool's dispatch counters.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return PoolStats{
		Workers:       len(p.local),
		Enqueues:      p.enqueues,
		Batches:       p.batches,
		Steals:        p.steals,
		Stolen:        p.stolen,
		Parks:         p.parks,
		Deterministic: p.vclk != nil,
	}
}

// Close stops the workers after the queued schedulers drain. Schedulers
// should be Closed before their pool: a wake-up that reaches a closed pool
// drains on a fresh goroutine, as an unpooled scheduler's does, so no
// mailbox is ever stranded, but that path forfeits pooling.
func (p *Pool) Close() {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		p.cond.Broadcast()
	}
	p.mu.Unlock()
	p.wg.Wait()
}

// enqueue hands a runnable scheduler to the pool. Called by Scheduler.post
// exactly once per park/wake cycle (the waiting flag), while still holding
// s.mu — the s.mu -> pool.mu order makes queued wake-ups visible to
// Scheduler.Close's detach.
func (p *Pool) enqueue(s *Scheduler) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		// Teardown stragglers (e.g. a late timer): preserve liveness the
		// way an unpooled scheduler runs every wake-up.
		s.drainDetached()
		return
	}
	p.enqueues++
	if p.vclk != nil {
		// The token enqueue and the FIFO append are atomic under pool.mu:
		// the clock grants tokens in exactly the order workers pop, so a
		// worker never sits on a granted scheduler while an earlier grant
		// waits for a worker.
		p.vclk.EnqueueRunnable(s.grant)
		p.fifo = append(p.fifo, s)
	} else {
		w := s.affinity
		p.local[w] = append(p.local[w], s)
	}
	if p.idle > 0 {
		p.cond.Signal()
	}
	p.mu.Unlock()
}

// detach removes s from whichever run queue holds it, reporting whether it
// was found. Called by Scheduler.Close after closed is set: a hit means no
// worker will ever own s again, so the closer may drain it inline; a miss
// means a worker owns it right now (posts are enqueued under s.mu, so a
// wake-up that predates Close is already visible here).
func (p *Pool) detach(s *Scheduler) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.vclk != nil {
		return removeSched(&p.fifo, s)
	}
	for i := range p.local {
		if removeSched(&p.local[i], s) {
			return true
		}
	}
	return false
}

// removeSched deletes the first occurrence of s from q, preserving order.
func removeSched(q *[]*Scheduler, s *Scheduler) bool {
	for i, e := range *q {
		if e == s {
			n := copy((*q)[i:], (*q)[i+1:])
			(*q)[i+n] = nil
			*q = (*q)[:i+n]
			return true
		}
	}
	return false
}

// worker is one pool executor loop.
func (p *Pool) worker(id int) {
	defer p.wg.Done()
	p.mu.Lock()
	for {
		s := p.takeLocked(id)
		if s == nil {
			if p.closed {
				p.mu.Unlock()
				return
			}
			p.parks++
			p.idle++
			p.cond.Wait()
			p.idle--
			continue
		}
		p.batches++
		p.mu.Unlock()
		s.drain()
		p.mu.Lock()
	}
}

// takeLocked pops the next runnable scheduler for worker id: virtual mode
// pops the global FIFO; wall mode pops the local queue, then steals.
func (p *Pool) takeLocked(id int) *Scheduler {
	if p.vclk != nil {
		if len(p.fifo) == 0 {
			return nil
		}
		s := p.fifo[0]
		n := copy(p.fifo, p.fifo[1:])
		p.fifo[n] = nil
		p.fifo = p.fifo[:n]
		return s
	}
	if q := p.local[id]; len(q) > 0 {
		s := q[0]
		n := copy(q, q[1:])
		q[n] = nil
		p.local[id] = q[:n]
		return s
	}
	// Steal: scan the other workers round-robin and take the older half of
	// the first non-empty queue (oldest first keeps rough FIFO fairness;
	// half amortizes pool.mu traffic when one worker is the hot producer).
	// Migrated schedulers re-home their affinity so future wake-ups land on
	// the thief — the group has demonstrably no cache residence with its
	// old worker if its queue got this stale.
	n := len(p.local)
	for off := 1; off < n; off++ {
		v := (id + off) % n
		vq := p.local[v]
		if len(vq) == 0 {
			continue
		}
		take := (len(vq) + 1) / 2
		s := vq[0]
		s.affinity = id
		for _, m := range vq[1:take] {
			m.affinity = id
		}
		p.local[id] = append(p.local[id], vq[1:take]...)
		rest := copy(vq, vq[take:])
		for i := rest; i < len(vq); i++ {
			vq[i] = nil
		}
		p.local[v] = vq[:rest]
		p.steals++
		p.stolen += uint64(take)
		return s
	}
	return nil
}
