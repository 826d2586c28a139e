package clock

import (
	"sync"
	"time"
)

// Virtual is a deterministic discrete-event clock. It owns a timer heap
// (latency-delayed vnet frames, protocol timeouts and driver sleeps are all
// just entries ordered by (deadline, registration sequence)) and a
// cooperative execution regime:
//
//   - Every goroutine that mutates simulation state is an *actor*. At most
//     one actor runs at a time; the rest are parked waiting for the run
//     token, which the clock grants in FIFO request order. The creator of
//     the Virtual holds the token initially, schedulers acquire it per
//     work batch (internal/appia), and Go forks new actors into the
//     rotation.
//   - Time advances only at full quiescence: no actor running, no actor
//     runnable, no blocked waiter whose channel is ready. Then the earliest
//     timer fires — and because everything else is parked, the fire (and
//     the cascade of work it posts) is a deterministic function of the
//     simulation state.
//
// The combination makes a run equivalent to a single-threaded execution
// with a fixed event order, so experiment counter matrices replay
// hash-identically at equal seeds regardless of GOMAXPROCS.
//
// Determinism contract for users: under a Virtual clock, every goroutine
// touching the simulation must be an actor (the creator, a scheduler, or a
// Go(fn) goroutine), and must block only through the clock (Sleep, Wait,
// WaitTimeout) — a bare channel receive would hold the token forever and
// wedge the run.
type Virtual struct {
	mu   sync.Mutex
	cond *sync.Cond

	now  time.Time
	seq  uint64 // timer registration sequence; breaks deadline ties
	heap []*vtimer

	running int             // actors currently holding the token (0 or 1)
	runq    []chan struct{} // FIFO of pending token grants
	waiters []*chanWaiter   // WaitTimeout blocks, polled at quiescence

	stopped bool
	done    chan struct{} // closed by Stop; releases every blocked actor
}

// vtimer is one heap entry. Exactly one of wake / fn / c / waiter is set.
type vtimer struct {
	when    time.Time
	seq     uint64
	stopped bool // lazily deleted: pop skips stopped entries
	fired   bool

	wake   chan struct{}  // Sleep wakeup: the token transfers to the sleeper
	fn     func()         // AfterFunc callback: runs on the clock goroutine
	c      chan time.Time // NewTimer/Ticker channel: non-blocking send
	period time.Duration  // >0: ticker, re-armed at each fire
	owner  *vTimer        // handle to update on ticker re-arm
	waiter *chanWaiter    // WaitTimeout deadline
}

// chanWaiter is one actor blocked in WaitTimeout: the clock polls ch at
// every quiescent point and wakes the actor (true) when it is ready, or via
// the deadline timer (false).
type chanWaiter struct {
	ch       <-chan struct{}
	wake     chan bool
	deadline *vtimer
	done     bool
}

// VirtualBase is the fixed origin of virtual timelines. Its value is
// arbitrary but deliberately not "now": timestamps must never leak wall
// time into a deterministic run.
var VirtualBase = time.Unix(1_000_000_000, 0).UTC()

// NewVirtual returns a virtual clock starting at VirtualBase. The calling
// goroutine holds the run token: it is the first actor and must release it
// through Sleep/Wait/WaitTimeout (or Stop) for anything else to run.
func NewVirtual() *Virtual {
	return NewVirtualAt(VirtualBase)
}

// NewVirtualAt is NewVirtual with an explicit origin.
func NewVirtualAt(origin time.Time) *Virtual {
	v := &Virtual{
		now:     origin,
		running: 1, // the creator
		done:    make(chan struct{}),
	}
	v.cond = sync.NewCond(&v.mu)
	go v.loop()
	return v
}

var _ Clock = (*Virtual)(nil)

// Stop shuts the clock down: the loop exits, every blocked actor is
// released (Sleeps return, WaitTimeouts fall back to real-time waits), and
// schedulers detach from the token regime. Determinism ends at Stop; call
// it only after the run's results are harvested.
func (v *Virtual) Stop() {
	v.mu.Lock()
	if v.stopped {
		v.mu.Unlock()
		return
	}
	v.stopped = true
	close(v.done)
	// Grant every queued request so no actor hangs waiting for a token
	// that will never be managed again.
	for _, g := range v.runq {
		select {
		case g <- struct{}{}:
		default:
		}
	}
	v.runq = nil
	v.cond.Broadcast()
	v.mu.Unlock()
}

// Done returns a channel closed when the clock stops. Token waits must
// select on it so teardown never deadlocks.
func (v *Virtual) Done() <-chan struct{} { return v.done }

// Now implements Clock.
func (v *Virtual) Now() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now
}

// Since implements Clock.
func (v *Virtual) Since(t time.Time) time.Duration { return v.Now().Sub(t) }

// Sleep implements Clock: the actor releases the run token, a wake timer is
// queued at now+d, and the token comes back with the wakeup. Sleep(0) is a
// pure yield: every runnable actor and every already-due timer runs first.
func (v *Virtual) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	wake := make(chan struct{}, 1)
	armed := func() bool {
		v.mu.Lock()
		defer v.mu.Unlock()
		if v.stopped {
			return false
		}
		v.push(&vtimer{when: v.now.Add(d), wake: wake})
		v.decRunningLocked()
		return true
	}()
	if !armed {
		return
	}
	select {
	case <-wake:
	case <-v.done:
	}
}

// After implements Clock.
func (v *Virtual) After(d time.Duration) <-chan time.Time { return v.NewTimer(d).C() }

// AfterFunc implements Clock. fn runs on the clock goroutine at a quiescent
// point; anything it posts (scheduler work, new timers) executes strictly
// after it returns.
func (v *Virtual) AfterFunc(d time.Duration, fn func()) Timer {
	return v.newTimer(d, fn, nil, 0)
}

// NewTimer implements Clock.
func (v *Virtual) NewTimer(d time.Duration) Timer {
	return v.newTimer(d, nil, make(chan time.Time, 1), 0)
}

// NewTicker implements Clock.
func (v *Virtual) NewTicker(d time.Duration) Ticker {
	if d <= 0 {
		panic("clock: non-positive Ticker period")
	}
	return vTicker{v.newTimer(d, nil, make(chan time.Time, 1), d)}
}

func (v *Virtual) newTimer(d time.Duration, fn func(), c chan time.Time, period time.Duration) *vTimer {
	if d < 0 {
		d = 0
	}
	h := &vTimer{v: v, fn: fn, c: c}
	v.mu.Lock()
	t := &vtimer{when: v.now.Add(d), fn: fn, c: c, period: period, owner: h}
	h.cur = t
	if v.stopped {
		// Never armed: it must also report not-pending from Stop/Reset.
		t.stopped = true
	} else {
		v.push(t)
	}
	v.mu.Unlock()
	return h
}

// Wait implements Clock: WaitTimeout without a deadline.
func (v *Virtual) Wait(ch <-chan struct{}) { v.WaitTimeout(ch, -1) }

// WaitTimeout implements Clock. The actor releases the run token and is
// woken — token in hand — either when ch becomes ready (checked at every
// quiescent point, so the wake happens at the exact virtual time the ready
// state was produced) or when the virtual deadline fires.
func (v *Virtual) WaitTimeout(ch <-chan struct{}, d time.Duration) bool {
	v.mu.Lock()
	if v.stopped {
		v.mu.Unlock()
		return wall{}.WaitTimeout(ch, d)
	}
	w := &chanWaiter{ch: ch, wake: make(chan bool, 1)}
	func() {
		defer v.mu.Unlock()
		if d >= 0 {
			w.deadline = &vtimer{when: v.now.Add(d), waiter: w}
			v.push(w.deadline)
		}
		v.waiters = append(v.waiters, w)
		v.decRunningLocked()
	}()
	select {
	case ok := <-w.wake:
		return ok
	case <-v.done:
		// Stopped mid-wait: fall back to a non-blocking poll. (The token
		// regime is gone, so there is nothing left to coordinate.)
		select {
		case <-ch:
			return true
		default:
			return false
		}
	}
}

// Go implements Clock: fn becomes a new actor. It is queued for the run
// token immediately (in the caller's deterministic order) and starts once
// granted; it must block only through the clock and releases the token when
// it returns.
func (v *Virtual) Go(fn func()) {
	g := make(chan struct{}, 1)
	v.EnqueueRunnable(g)
	go func() {
		select {
		case <-g:
		case <-v.done:
		}
		defer v.Release()
		fn()
	}()
}

// EnqueueRunnable queues a token request. It is the scheduler-side hook:
// internal/appia calls it when a parked scheduler receives work, and the
// grant is delivered on g (buffered, capacity 1) once every earlier request
// has run and released. After Stop the grant is immediate and unmanaged.
func (v *Virtual) EnqueueRunnable(g chan struct{}) {
	v.mu.Lock()
	if v.stopped {
		v.mu.Unlock()
		select {
		case g <- struct{}{}:
		default:
		}
		return
	}
	v.runq = append(v.runq, g)
	v.cond.Signal()
	v.mu.Unlock()
}

// Release returns the run token. Callers must hold it (by grant, wake, or
// clock construction).
func (v *Virtual) Release() {
	v.mu.Lock()
	defer v.mu.Unlock()
	if !v.stopped {
		v.decRunningLocked()
	}
}

// decRunningLocked releases one unit of run-token accounting. Going
// negative means a goroutine outside the actor regime called a blocking
// clock method (or Release without holding the token): that would let time
// advance while a real actor is mid-execution — the exact nondeterminism
// this clock exists to eliminate — so it fails loudly instead. Must hold
// v.mu.
func (v *Virtual) decRunningLocked() {
	if v.running <= 0 {
		panic("clock: run token released by a goroutine that does not hold it — " +
			"under a virtual clock every simulation goroutine must be an actor " +
			"(the clock's creator, a scheduler, or clock.Go) and block only via " +
			"Sleep/Wait/WaitTimeout")
	}
	v.running--
	v.cond.Signal()
}

// CancelRunnable withdraws a pending token request (scheduler teardown): if
// the request is still queued it is removed; if it was already granted the
// grant is consumed and the token released, so the rotation never wedges on
// an abandoned grant.
func (v *Virtual) CancelRunnable(g chan struct{}) {
	v.mu.Lock()
	for i, q := range v.runq {
		if q == g {
			v.runq = append(v.runq[:i], v.runq[i+1:]...)
			v.mu.Unlock()
			return
		}
	}
	select {
	case <-g:
		if !v.stopped {
			v.decRunningLocked()
		}
	default:
	}
	v.mu.Unlock()
}

// loop is the clock goroutine: grant runnable actors, wake ready waiters,
// and — only at full quiescence — advance time to the next deadline.
func (v *Virtual) loop() {
	v.mu.Lock()
	defer v.mu.Unlock()
	for {
		if v.stopped {
			return
		}
		if v.running > 0 {
			v.cond.Wait()
			continue
		}
		// 1. Run every runnable actor (FIFO) before anything else: work at
		// the current instant completes before time moves.
		if len(v.runq) > 0 {
			g := v.runq[0]
			v.runq = v.runq[1:]
			v.running++
			select {
			case g <- struct{}{}:
			default: // abandoned grant (CancelRunnable raced): drop token
				v.running--
			}
			continue
		}
		// 2. Wake the first waiter whose channel became ready during the
		// work above — at the current virtual time, before any advance.
		if v.wakeReadyWaiter() {
			continue
		}
		// 3. Quiescent: advance to the earliest timer and fire it.
		t := v.pop()
		if t == nil {
			// Nothing scheduled at all: idle until an actor appears.
			v.cond.Wait()
			continue
		}
		if t.when.After(v.now) {
			v.now = t.when
		}
		t.fired = true
		switch {
		case t.waiter != nil:
			w := t.waiter
			if w.done {
				continue // already woken by its channel
			}
			w.done = true
			v.removeWaiter(w)
			v.running++
			w.wake <- false
		case t.wake != nil:
			v.running++
			t.wake <- struct{}{}
		case t.fn != nil:
			v.running++
			v.mu.Unlock()
			t.fn()
			v.mu.Lock()
			v.decRunningLocked()
		default:
			select {
			case t.c <- v.now:
			default: // receiver behind: drop the tick, as time.Ticker does
			}
			if t.period > 0 {
				nt := &vtimer{when: t.when.Add(t.period), c: t.c, period: t.period, owner: t.owner}
				t.owner.cur = nt
				v.push(nt)
			}
		}
	}
}

// wakeReadyWaiter polls waiters in registration order and wakes the first
// whose channel is ready, consuming at most one value (select semantics).
// Must hold v.mu.
func (v *Virtual) wakeReadyWaiter() bool {
	for _, w := range v.waiters {
		select {
		case <-w.ch:
			w.done = true
			if w.deadline != nil {
				w.deadline.stopped = true
			}
			v.removeWaiter(w)
			v.running++
			w.wake <- true
			return true
		default:
		}
	}
	return false
}

// removeWaiter deletes w preserving registration order. Must hold v.mu.
func (v *Virtual) removeWaiter(w *chanWaiter) {
	for i, cand := range v.waiters {
		if cand == w {
			v.waiters = append(v.waiters[:i], v.waiters[i+1:]...)
			return
		}
	}
}

// push inserts into the (when, seq) min-heap. Must hold v.mu.
func (v *Virtual) push(t *vtimer) {
	v.seq++
	t.seq = v.seq
	h := append(v.heap, t)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h[i].less(h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	v.heap = h
	v.cond.Signal()
}

// pop removes and returns the earliest live timer, or nil. Must hold v.mu.
func (v *Virtual) pop() *vtimer {
	for len(v.heap) > 0 {
		h := v.heap
		top := h[0]
		last := len(h) - 1
		h[0] = h[last]
		h[last] = nil
		h = h[:last]
		i := 0
		for {
			l, r := 2*i+1, 2*i+2
			small := i
			if l < len(h) && h[l].less(h[small]) {
				small = l
			}
			if r < len(h) && h[r].less(h[small]) {
				small = r
			}
			if small == i {
				break
			}
			h[i], h[small] = h[small], h[i]
			i = small
		}
		v.heap = h
		if top.stopped {
			continue
		}
		return top
	}
	return nil
}

func (t *vtimer) less(o *vtimer) bool {
	if t.when.Equal(o.when) {
		return t.seq < o.seq
	}
	return t.when.Before(o.when)
}

// vTimer is the handle returned for virtual timers and tickers.
type vTimer struct {
	v   *Virtual
	fn  func()
	c   chan time.Time
	cur *vtimer // current heap entry; replaced on Reset / ticker re-arm
}

var (
	_ Timer  = (*vTimer)(nil)
	_ Ticker = vTicker{}
)

// vTicker adapts a periodic vTimer to the Ticker interface.
type vTicker struct{ *vTimer }

// Stop implements Ticker.
func (t vTicker) Stop() {
	if t.vTimer != nil {
		t.vTimer.Stop()
	}
}

// C implements Timer/Ticker; nil for AfterFunc timers, as with time.Timer.
func (h *vTimer) C() <-chan time.Time {
	if h.fn != nil {
		return nil
	}
	return h.c
}

// Stop implements Timer/Ticker.
func (h *vTimer) Stop() bool {
	h.v.mu.Lock()
	defer h.v.mu.Unlock()
	active := h.cur != nil && !h.cur.stopped && !h.cur.fired
	if h.cur != nil {
		h.cur.stopped = true
	}
	return active
}

// Reset implements Timer: re-arms for d from now.
func (h *vTimer) Reset(d time.Duration) bool {
	if d < 0 {
		d = 0
	}
	h.v.mu.Lock()
	defer h.v.mu.Unlock()
	active := h.cur != nil && !h.cur.stopped && !h.cur.fired
	if h.cur != nil {
		h.cur.stopped = true
	}
	period := time.Duration(0)
	if h.cur != nil {
		period = h.cur.period
	}
	nt := &vtimer{when: h.v.now.Add(d), fn: h.fn, c: h.c, period: period, owner: h}
	h.cur = nt
	if h.v.stopped {
		nt.stopped = true // never armed: not pending
	} else {
		h.v.push(nt)
	}
	return active
}
