package appia

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"morpheus/internal/clock"
)

// ErrSchedulerClosed is returned by insertions into a stopped scheduler.
var ErrSchedulerClosed = errors.New("appia: scheduler closed")

// task is one unit of scheduler work: either a routed event hop, a direct
// delivery to a session, or a plain function (timer callbacks).
type task struct {
	ch     *Channel
	ev     Event
	direct Session // when non-nil, deliver ev straight to this session
	fn     func()  // when non-nil, just run it
}

// Scheduler executes all the sessions of one protocol stack one event at a
// time, in the style of the Appia event scheduler. Channels that share
// sessions must share the scheduler; in this codebase every simulated node
// owns exactly one scheduler for all its channels.
//
// A scheduler has no goroutine of its own. Each wake-up — the post that
// finds it parked — hands it to an executor that runs drain until the
// mailbox is empty and then parks it again: a worker of its Pool, or, for an
// unpooled scheduler (NewScheduler, NewSchedulerWithClock), a fresh
// goroutine per wake-up. Either way at most one executor owns the
// scheduler at a time, so session code sees a single-threaded stack.
//
// The mailbox itself never blocks an insertion — that is essential, because
// the executor re-queues events while forwarding them, and a
// blocking intra-stack insertion would deadlock the stack against itself.
// What CAN be bounded is external ingress: SetMailboxBounds arms a
// high/low-watermark admission gate that external producers (group sends,
// via the stack manager) consult before posting, while sessions, timers and
// network ingress keep posting freely. The hysteresis bounds the mailbox to
// roughly high + (intra-stack amplification of the admitted work) without
// ever violating the no-deadlock invariant.
//
// A scheduler belongs to a Clock (wall by default). Timers (After/Every)
// are armed on it, and when the clock is a deterministic *clock.Virtual the
// scheduler additionally participates in the clock's run-token regime: a
// parked scheduler that receives work is queued for the token by the
// poster (so the queue order is a function of the serialized execution),
// dispatches batches only while holding it, and releases it when it parks
// again — which is the "all schedulers parked" half of the virtual clock's
// time-advance rule.
type Scheduler struct {
	mu      sync.Mutex
	queue   []task // producer-side buffer; drain() swaps it out wholesale
	waiting bool   // parked: no executor owns the scheduler
	closed  bool

	clk  clock.Clock
	vclk *clock.Virtual // non-nil when clk is the deterministic clock

	// Virtual-clock token state. grant receives the token; closing unhooks
	// the executor from the token regime at Close so teardown cannot
	// deadlock on a token the closer itself holds. tokenHeld is only
	// touched by the owning executor.
	grant     chan struct{}
	closing   chan struct{}
	tokenHeld bool

	// Executor state. pool is the executor of a pooled scheduler (nil:
	// each wake-up drains on a fresh goroutine); affinity is its preferred
	// worker, guarded by pool.mu. spare is the recycled batch buffer,
	// touched only by the owning executor. drained (closed once, via
	// drainOnce) lets Close wait for the final drain.
	pool      *Pool
	affinity  int
	spare     []task
	drained   chan struct{}
	drainOnce sync.Once

	// idle runs on the executor each time a batch leaves the mailbox
	// empty, just before the scheduler parks (SetIdleHook). Guarded by mu.
	idle func()

	timerMu sync.Mutex
	timers  map[*schedTimer]struct{}

	// Bounded-mailbox admission state. depth counts queued-but-undispatched
	// tasks (producer queue plus the in-flight batch); hwDepth is its
	// monotone high-water mark. admitGate is non-nil while the mailbox is
	// saturated (depth reached boundHigh) and is closed — waking external
	// producers — once a drain brings depth back to boundLow. boundHigh == 0
	// means unbounded (the default). All but the atomics are guarded by mu.
	boundHigh int
	boundLow  int
	admitGate chan struct{}
	depth     atomic.Int64
	hwDepth   atomic.Int64
}

// schedTimer tracks one outstanding After timer for cancellation at Close.
type schedTimer struct{ t clock.Timer }

// NewScheduler returns an unpooled wall-clock scheduler.
func NewScheduler() *Scheduler { return NewSchedulerWithClock(nil) }

// NewSchedulerWithClock returns an unpooled scheduler driven by clk (nil
// means the wall clock).
func NewSchedulerWithClock(clk clock.Clock) *Scheduler {
	s := &Scheduler{
		clk:     clock.Or(clk),
		timers:  make(map[*schedTimer]struct{}),
		grant:   make(chan struct{}, 1),
		closing: make(chan struct{}),
		drained: make(chan struct{}),
		// A scheduler is born parked: the first post is a wake-up.
		waiting: true,
	}
	s.vclk, _ = s.clk.(*clock.Virtual)
	return s
}

// Clock returns the clock driving this scheduler's timers.
func (s *Scheduler) Clock() clock.Clock { return s.clk }

// Close stops the scheduler after draining already-queued work, cancels
// outstanding timers, and waits for the final drain. It is safe to call
// more than once, but must not be called from scheduler-run code. Under a
// virtual clock the final drain runs outside the token regime (the closer
// may itself hold the token): the channel teardown ordering is unaffected
// because Channel.Close completes before schedulers are closed.
func (s *Scheduler) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		<-s.drained
		return
	}
	s.closed = true
	if s.admitGate != nil {
		// Never strand an external producer on admission to a dead mailbox.
		close(s.admitGate)
		s.admitGate = nil
	}
	// waiting==true means parked — owned by no executor and in no pool
	// queue (a wake-up happens only on the post that clears waiting, and
	// closed now blocks further posts) — so there is nothing left to
	// drain. Otherwise an executor owns it or a pool worker will pop it,
	// and its park-on-closed signals drained.
	parked := s.waiting
	s.mu.Unlock()
	close(s.closing)

	s.timerMu.Lock()
	for t := range s.timers {
		t.t.Stop()
	}
	s.timers = make(map[*schedTimer]struct{})
	s.timerMu.Unlock()

	if s.vclk != nil {
		// Reclaim a token grant no executor will collect anymore: pending
		// in the clock's run queue, already granted, or never issued — all
		// three are handled by CancelRunnable. An executor mid-drain skips
		// token acquisition once closed.
		s.vclk.CancelRunnable(s.grant)
	}
	switch {
	case parked:
		s.signalDrained()
	case s.pool != nil && s.pool.detach(s):
		// Still queued, owned by no worker: drain the residue inline on
		// the closer's goroutine. This cannot wait for a pool worker —
		// under a virtual clock the closer may hold the run token the
		// workers are queued behind — and it cannot race an owner: the
		// detach under pool.mu removed the only pending claim.
		s.drain()
	}
	// Otherwise an executor owns the scheduler right now; its park-on-
	// closed signals drained (token acquisition is skipped once closed, so
	// it cannot block on a token the closer holds).
	<-s.drained
}

// signalDrained marks the scheduler fully drained (idempotent).
func (s *Scheduler) signalDrained() {
	s.drainOnce.Do(func() { close(s.drained) })
}

// post enqueues a task. Returns ErrSchedulerClosed after Close.
func (s *Scheduler) post(t task) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrSchedulerClosed
	}
	s.queue = append(s.queue, t)
	d := s.depth.Add(1)
	if d > s.hwDepth.Load() {
		// Only posts raise the depth and posts hold mu, so a plain store
		// cannot lose a concurrent maximum.
		s.hwDepth.Store(d)
	}
	if s.boundHigh > 0 && s.admitGate == nil && d >= int64(s.boundHigh) {
		s.admitGate = make(chan struct{})
	}
	// Wake an executor only when the scheduler is parked: while one owns
	// it, posts just append. The executor sets waiting under mu as it
	// parks, so a true value here means nobody owns the scheduler and the
	// wake-up cannot be lost. The wake-up is handed over while still
	// holding mu (lock order s.mu -> pool.mu): once Close observes closed
	// under mu, every wake-up is either already in a pool queue — where
	// Close's detach can find it — or owned by an executor.
	if s.waiting {
		s.waiting = false
		if s.pool != nil {
			s.pool.enqueue(s)
		} else {
			s.drainDetached()
		}
	}
	s.mu.Unlock()
	return nil
}

// drainDetached runs one wake-up of s on a fresh goroutine: the executor
// of an unpooled scheduler, and of a pooled one whose pool has closed.
// Called with s.mu held by the post that cleared waiting. Under a virtual
// clock the scheduler is queued for the run token here, on the poster's
// goroutine: posters are serialized by the token regime, so the runnable
// order — and therefore the whole execution — is deterministic.
func (s *Scheduler) drainDetached() {
	if s.vclk != nil {
		s.vclk.EnqueueRunnable(s.grant)
	}
	go s.drain()
}

// SetIdleHook installs fn as the scheduler's idle hook, replacing any
// previous one (nil removes it). The scheduler's owner sets it once,
// typically before the first post. The hook runs on the executor that owns
// the scheduler whenever a batch leaves
// the mailbox empty, just before the scheduler parks: outside the
// scheduler's lock and, under a virtual clock, while the run token is
// still held. The mailbox is re-checked afterwards, so work the hook (or
// a concurrent poster) adds is dispatched before the park, followed by
// the hook again. morpheus uses it to flush the wire plane the moment a
// protocol stack has nothing more to send.
func (s *Scheduler) SetIdleHook(fn func()) {
	s.mu.Lock()
	s.idle = fn
	s.mu.Unlock()
}

// Do runs fn on the scheduler goroutine. It is the bridge for application
// and network code that must touch session state safely.
func (s *Scheduler) Do(fn func()) error {
	return s.post(task{fn: fn})
}

// After runs fn on the scheduler goroutine after d (per the scheduler's
// clock). The returned cancel function stops the timer if it has not fired.
func (s *Scheduler) After(d time.Duration, fn func()) (cancel func()) {
	st := &schedTimer{}
	st.t = s.clk.AfterFunc(d, func() {
		s.timerMu.Lock()
		delete(s.timers, st)
		s.timerMu.Unlock()
		_ = s.Do(fn) // a closed scheduler drops late timers by design
	})
	s.timerMu.Lock()
	s.timers[st] = struct{}{}
	s.timerMu.Unlock()
	return func() {
		st.t.Stop()
		s.timerMu.Lock()
		delete(s.timers, st)
		s.timerMu.Unlock()
	}
}

// Every runs fn on the scheduler goroutine every d until the returned
// cancel function is called or the scheduler closes.
func (s *Scheduler) Every(d time.Duration, fn func()) (cancel func()) {
	var (
		mu       sync.Mutex
		stopped  bool
		stopCurr func()
	)
	var arm func()
	arm = func() {
		mu.Lock()
		defer mu.Unlock()
		if stopped {
			return
		}
		stopCurr = s.After(d, func() {
			fn()
			arm()
		})
	}
	arm()
	return func() {
		mu.Lock()
		defer mu.Unlock()
		stopped = true
		if stopCurr != nil {
			stopCurr()
		}
	}
}

// Flush blocks until every task queued before the call has been processed.
// It is intended for tests and for orderly shutdown sequencing; calling it
// from the scheduler goroutine would deadlock and is therefore forbidden.
func (s *Scheduler) Flush() {
	done := make(chan struct{})
	if err := s.Do(func() { close(done) }); err != nil {
		return // closed: queue already drained
	}
	s.clk.Wait(done)
}

// drain is the scheduler loop, run by the executor that owns the
// scheduler (or, during Close, by the closer): a double-buffered batch
// dequeue until the mailbox is empty. Instead of a lock round trip per
// task, the whole pending queue is swapped out under one acquisition and
// the batch is dispatched lock-free; the drained batch slice becomes the
// producers' next queue buffer, so steady state recycles two slices with
// no allocation. The virtual clock's run token is held across batches. At
// the park, releasing the token, re-setting waiting and (when closed)
// signalling the final drain happen under a single mu hold, so the next
// post observes a fully-parked scheduler and wakes it exactly once.
func (s *Scheduler) drain() {
	var batch []task
	for {
		s.mu.Lock()
		dispatched := batch != nil
		if batch != nil {
			s.spare = batch[:0]
			batch = nil
		}
		if s.admitGate != nil && s.depth.Load() <= int64(s.boundLow) {
			// Drained below the low watermark: readmit external producers.
			close(s.admitGate)
			s.admitGate = nil
		}
		if idle := s.idle; dispatched && idle != nil && len(s.queue) == 0 {
			// Out of work: run the idle hook before parking, with the
			// token still held, then re-check the mailbox.
			s.mu.Unlock()
			idle()
			continue
		}
		if len(s.queue) == 0 {
			s.releaseToken()
			s.waiting = true
			closed := s.closed
			s.mu.Unlock()
			if closed {
				s.signalDrained()
			}
			return
		}
		closed := s.closed
		s.mu.Unlock()
		if !closed {
			// Serialize with every other actor of a virtual clock. A
			// closing scheduler skips this: its remaining work is teardown
			// debris, and the closer may be holding the token.
			s.acquireToken()
		}
		s.mu.Lock()
		batch = s.queue
		if s.spare != nil {
			s.queue = s.spare[:0]
			s.spare = nil
		} else {
			s.queue = nil
		}
		s.mu.Unlock()

		for i := range batch {
			s.dispatch(batch[i])
		}
		s.depth.Add(int64(-len(batch)))
		clear(batch)
	}
}

// SetMailboxBounds enables bounded-mailbox mode: once the mailbox depth
// reaches high, AdmitExternal gates external producers until a drain
// brings it back to low (hysteresis, so admission does not thrash at the
// boundary). Passing high <= 0 disables the bound. Intra-stack insertions
// are never gated — see the type comment for why.
func (s *Scheduler) SetMailboxBounds(high, low int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if high <= 0 {
		s.boundHigh, s.boundLow = 0, 0
		if s.admitGate != nil {
			close(s.admitGate)
			s.admitGate = nil
		}
		return
	}
	if low < 0 {
		low = 0
	}
	if low >= high {
		low = high - 1
	}
	s.boundHigh, s.boundLow = high, low
}

// AdmitExternal reports whether external work may enter the mailbox: nil
// means go ahead; a non-nil channel means the mailbox is saturated, and
// the channel is closed when it drains below the low watermark (wait on
// it through the scheduler's clock, then re-check). Admission is
// advisory — an external producer that posts anyway is only ever delayed,
// never rejected — so the depth bound is soft by the number of concurrent
// producers.
func (s *Scheduler) AdmitExternal() <-chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.admitGate == nil {
		return nil
	}
	return s.admitGate
}

// MailboxDepth returns the number of queued-but-undispatched tasks.
func (s *Scheduler) MailboxDepth() int { return int(s.depth.Load()) }

// MailboxHighWater returns the maximum mailbox depth ever observed.
func (s *Scheduler) MailboxHighWater() int { return int(s.hwDepth.Load()) }

// acquireToken blocks until this scheduler holds the virtual clock's run
// token (no-op on wall clocks or when already held).
func (s *Scheduler) acquireToken() {
	if s.vclk == nil || s.tokenHeld {
		return
	}
	select {
	case <-s.grant:
		s.tokenHeld = true
	case <-s.vclk.Done():
		// Clock stopped: run unmanaged.
	case <-s.closing:
		// Close() reclaims the pending grant via CancelRunnable.
	}
}

// releaseToken returns the run token if held.
func (s *Scheduler) releaseToken() {
	if s.vclk == nil || !s.tokenHeld {
		return
	}
	s.tokenHeld = false
	s.vclk.Release()
}

// dispatch executes one task.
func (s *Scheduler) dispatch(t task) {
	switch {
	case t.fn != nil:
		t.fn()
	case t.direct != nil:
		t.direct.Handle(t.ch, t.ev)
	case t.ch != nil:
		t.ch.step(t.ev)
	}
}
