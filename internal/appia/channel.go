package appia

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"time"
)

// Channel errors.
var (
	ErrChannelClosed  = errors.New("appia: channel closed")
	ErrUnknownSession = errors.New("appia: session does not belong to channel")
)

// ChannelState tracks the lifecycle of a channel.
type ChannelState int

// Channel lifecycle states.
const (
	ChannelNew ChannelState = iota + 1
	ChannelStarted
	ChannelClosed
)

// DeliverFunc receives events that complete the upward traversal of the
// stack without being consumed; it is the application's upcall.
type DeliverFunc func(ev Event)

// Channel is an instantiation of a QoS: an ordered stack of sessions
// (bottom = index 0) plus the routing tables that steer each event type to
// exactly the sessions that accept it.
//
// All session code runs on the channel's scheduler goroutine. Insert (and
// the lifecycle methods) may be called from any goroutine; Forward,
// SendFrom, DeliverAfter and similar must only be called from session code.
type Channel struct {
	name     string
	qos      *QoS
	sched    *Scheduler
	sessions []Session
	byName   map[string]int // layer name -> index of first occurrence
	deliver  DeliverFunc

	// routes caches, per concrete event type, the ascending list of session
	// indices that accept it. lastType/lastRoute short-circuit the map for
	// runs of same-typed events, the common case on the data path. Only
	// touched on the scheduler goroutine.
	routes    map[reflect.Type][]int
	lastType  reflect.Type
	lastRoute []int

	mu     sync.Mutex   // guards state transitions and ready/closed closing
	state  atomic.Int32 // ChannelState; read lock-free on the Insert hot path
	ready  chan struct{}
	closed chan struct{}
}

// ChannelOption customises channel construction.
type ChannelOption func(*channelConfig)

type channelConfig struct {
	sessions map[string]Session
	deliver  DeliverFunc
}

// WithSharedSession installs an existing session for the (first) layer with
// the given name instead of creating a fresh one. This is how two channels
// share protocol state, for example a common transport endpoint or a causal
// order scope spanning several channels.
func WithSharedSession(layerName string, s Session) ChannelOption {
	return func(c *channelConfig) { c.sessions[layerName] = s }
}

// WithDeliver sets the application upcall for events that complete the
// upward traversal.
func WithDeliver(fn DeliverFunc) ChannelOption {
	return func(c *channelConfig) { c.deliver = fn }
}

// CreateChannel instantiates the QoS on the given scheduler. Sessions are
// created bottom-up with Layer.NewSession unless overridden by
// WithSharedSession.
func (q *QoS) CreateChannel(name string, sched *Scheduler, opts ...ChannelOption) *Channel {
	cfg := channelConfig{sessions: make(map[string]Session)}
	for _, o := range opts {
		o(&cfg)
	}
	ch := &Channel{
		name:    name,
		qos:     q,
		sched:   sched,
		byName:  make(map[string]int, len(q.layers)),
		deliver: cfg.deliver,
		routes:  make(map[reflect.Type][]int),
		ready:   make(chan struct{}),
		closed:  make(chan struct{}),
	}
	ch.state.Store(int32(ChannelNew))
	ch.sessions = make([]Session, len(q.layers))
	for i, l := range q.layers {
		if _, dup := ch.byName[l.Name()]; !dup {
			ch.byName[l.Name()] = i
		}
		if s, ok := cfg.sessions[l.Name()]; ok {
			ch.sessions[i] = s
			continue
		}
		ch.sessions[i] = l.NewSession()
	}
	return ch
}

// Name returns the channel name.
func (ch *Channel) Name() string { return ch.name }

// QoS returns the QoS the channel instantiates.
func (ch *Channel) QoS() *QoS { return ch.qos }

// Scheduler returns the scheduler executing this channel.
func (ch *Channel) Scheduler() *Scheduler { return ch.sched }

// State returns the current lifecycle state.
func (ch *Channel) State() ChannelState {
	return ChannelState(ch.state.Load())
}

// SessionFor returns the session instantiated for the (first) layer with
// the given name, or nil. Callers must respect the threading rule: session
// state may only be touched from scheduler-run code unless the session
// documents otherwise.
func (ch *Channel) SessionFor(layerName string) Session {
	i, ok := ch.byName[layerName]
	if !ok {
		return nil
	}
	return ch.sessions[i]
}

// Start injects ChannelInit, which visits every session bottom-up. It is
// idempotent.
func (ch *Channel) Start() error {
	ch.mu.Lock()
	if ChannelState(ch.state.Load()) != ChannelNew {
		ch.mu.Unlock()
		return nil
	}
	ch.state.Store(int32(ChannelStarted))
	ch.mu.Unlock()
	init := &ChannelInit{}
	return ch.Insert(init, Up)
}

// Close injects ChannelClose, which visits every session top-down, then
// marks the channel closed. It returns once the close event has been fully
// processed. Calling Close from session code would deadlock; use
// CloseAsync there. The wait goes through the scheduler's clock, so on a
// virtual clock the caller releases the run token while the teardown
// cascade executes.
func (ch *Channel) Close() error {
	if err := ch.CloseAsync(); err != nil {
		return err
	}
	ch.sched.Clock().Wait(ch.closed)
	return nil
}

// CloseAsync starts channel teardown without waiting for it to finish.
func (ch *Channel) CloseAsync() error {
	ch.mu.Lock()
	if ChannelState(ch.state.Load()) == ChannelClosed {
		ch.mu.Unlock()
		return nil
	}
	st := ChannelState(ch.state.Load())
	ch.state.Store(int32(ChannelClosed))
	ch.mu.Unlock()
	if st == ChannelNew { // never started: nothing to deliver
		close(ch.closed)
		return nil
	}
	ev := &ChannelClose{}
	b := ev.base()
	b.channel = ch
	b.dir = Down
	b.inited = true
	b.route = ch.fullRoute()
	b.cursor = len(b.route) - 1
	if err := ch.sched.post(task{ch: ch, ev: ev}); err != nil {
		close(ch.closed)
		return nil
	}
	// Sentinel task: runs after the close event has fully propagated
	// (teardown hops are re-queued ahead of it in FIFO order only if
	// sessions forward synchronously; to be robust we close from step()
	// when the route is exhausted instead).
	return nil
}

// Closed returns a channel that is closed once teardown completes.
func (ch *Channel) Closed() <-chan struct{} { return ch.closed }

// Ready returns a channel that is closed once ChannelInit has visited every
// session, i.e. all layers have acquired their external resources (network
// port bindings in particular). Sessions must forward lifecycle events for
// this to ever fire. Must not be waited on from the scheduler goroutine.
func (ch *Channel) Ready() <-chan struct{} { return ch.ready }

// WaitReady blocks until the channel is operational or the timeout elapses;
// it reports whether readiness was reached. The wait goes through the
// scheduler's clock (on a virtual clock the timeout is virtual time and the
// caller's run token is released meanwhile).
func (ch *Channel) WaitReady(timeout time.Duration) bool {
	return ch.sched.Clock().WaitTimeout(ch.ready, timeout)
}

// Insert routes an event through the whole stack from the outside: from
// below going Up (network ingress) or from above going Down (application
// egress). Safe to call from any goroutine.
func (ch *Channel) Insert(ev Event, dir Direction) error {
	if ch.State() == ChannelClosed {
		return ErrChannelClosed
	}
	b := ev.base()
	if b.inited {
		return fmt.Errorf("appia: event %T reinserted", ev)
	}
	b.channel = ch
	b.dir = dir
	b.inited = true
	b.route = nil // computed on the scheduler goroutine
	b.cursor = -1
	return ch.sched.post(task{ch: ch, ev: ev})
}

// SendFrom inserts a new event into the flow starting at the session
// adjacent to "from" in direction dir, exactly as if "from" had produced it
// while handling traffic. Must be called from session code (the scheduler
// goroutine); the event starts travelling immediately after the current
// task.
func (ch *Channel) SendFrom(from Session, ev Event, dir Direction) error {
	idx, err := ch.indexOf(from)
	if err != nil {
		return err
	}
	b := ev.base()
	b.channel = ch
	b.dir = dir
	b.inited = true
	b.route = ch.routeFor(ev)
	b.cursor = ch.startCursor(b.route, idx, dir)
	return ch.sched.post(task{ch: ch, ev: ev})
}

// Forward passes an event on to the next accepting session in its current
// direction. Must be called from session code, for the event currently
// being handled.
func (ch *Channel) Forward(ev Event) {
	b := ev.base()
	if b.channel != ch || !b.inited {
		panic(fmt.Sprintf("appia: Forward of foreign event %T on channel %q", ev, ch.name))
	}
	_ = ch.sched.post(task{ch: ch, ev: ev})
}

// Bounce reverses the event's direction and forwards it, so it revisits the
// sessions it already traversed, starting with the one just before the
// current session in the new direction.
func (ch *Channel) Bounce(ev Event) {
	b := ev.base()
	b.dir = b.dir.Invert()
	if b.dir == Down {
		b.cursor -= 2
	} else {
		b.cursor += 2
	}
	ch.Forward(ev)
}

// DeliverAfter delivers ev directly to session s after d, bypassing
// routing. It is the timer primitive protocol sessions use for
// retransmission deadlines, heartbeats and the like. The returned cancel
// function stops the timer.
func (ch *Channel) DeliverAfter(d time.Duration, s Session, ev Event) (cancel func()) {
	b := ev.base()
	b.channel = ch
	b.dir = Up
	b.inited = true
	return ch.sched.After(d, func() {
		if ch.State() == ChannelClosed {
			return
		}
		s.Handle(ch, ev)
	})
}

// DeliverEvery delivers fresh events produced by mk directly to session s
// every d until cancelled or the channel closes.
func (ch *Channel) DeliverEvery(d time.Duration, s Session, mk func() Event) (cancel func()) {
	return ch.sched.Every(d, func() {
		if ch.State() == ChannelClosed {
			return
		}
		ev := mk()
		b := ev.base()
		b.channel = ch
		b.dir = Up
		b.inited = true
		s.Handle(ch, ev)
	})
}

// indexOf locates a session in the stack.
func (ch *Channel) indexOf(s Session) (int, error) {
	for i, cand := range ch.sessions {
		if sameSession(cand, s) {
			return i, nil
		}
	}
	return 0, fmt.Errorf("%w: %T on channel %q", ErrUnknownSession, s, ch.name)
}

// sameSession compares session identity without panicking on
// non-comparable dynamic types (such as SessionFunc).
func sameSession(a, b Session) bool {
	ta, tb := reflect.TypeOf(a), reflect.TypeOf(b)
	if ta != tb {
		return false
	}
	if ta.Comparable() {
		return a == b
	}
	return reflect.ValueOf(a).Pointer() == reflect.ValueOf(b).Pointer()
}

// fullRoute returns indices of every session.
func (ch *Channel) fullRoute() []int {
	r := make([]int, len(ch.sessions))
	for i := range r {
		r[i] = i
	}
	return r
}

// routeFor returns (computing and caching on first use) the ascending list
// of session indices whose layers accept the event's concrete type.
// Lifecycle events visit everyone.
func (ch *Channel) routeFor(ev Event) []int {
	t := reflect.TypeOf(ev)
	if t == ch.lastType {
		return ch.lastRoute
	}
	if r, ok := ch.routes[t]; ok {
		ch.lastType, ch.lastRoute = t, r
		return r
	}
	var r []int
	switch ev.(type) {
	case *ChannelInit, *ChannelClose, *Debug:
		r = ch.fullRoute()
	default:
		et := TypeOf(ev)
		for i, l := range ch.qos.layers {
			for _, acc := range l.Spec().Accepts {
				if acc.Matches(et) {
					r = append(r, i)
					break
				}
			}
		}
	}
	ch.routes[t] = r
	ch.lastType, ch.lastRoute = t, r
	return r
}

// startCursor computes the initial cursor for an event created by the
// session at stack index idx, travelling in dir: the nearest route position
// strictly beyond idx.
func (ch *Channel) startCursor(route []int, idx int, dir Direction) int {
	if dir == Up {
		for pos, si := range route {
			if si > idx {
				return pos
			}
		}
		return len(route) // off the top: app delivery
	}
	for pos := len(route) - 1; pos >= 0; pos-- {
		if route[pos] < idx {
			return pos
		}
	}
	return -1 // off the bottom: dropped
}

// step performs one routing hop: deliver the event to the session at its
// cursor and advance. Runs on the scheduler goroutine only.
func (ch *Channel) step(ev Event) {
	b := ev.base()
	if b.route == nil {
		// Externally inserted: initialise the route now, on the scheduler
		// goroutine, so the cache needs no locking.
		b.route = ch.routeFor(ev)
		if b.dir == Up {
			b.cursor = 0
		} else {
			b.cursor = len(b.route) - 1
		}
	}

	// Exhausted route?
	if b.dir == Up && b.cursor >= len(b.route) {
		ch.deliverUp(ev)
		return
	}
	if b.dir == Down && b.cursor < 0 {
		ch.finishDown(ev)
		return
	}

	sess := ch.sessions[b.route[b.cursor]]
	if b.dir == Up {
		b.cursor++
	} else {
		b.cursor--
	}
	sess.Handle(ch, ev)

	// Route end bookkeeping for events the last session forwarded: Forward
	// re-posts the event, so the checks above fire on the next step. But a
	// ChannelClose that was consumed by the last session would leave the
	// channel open; handle completion when the cursor has just run off.
	if cc, ok := ev.(*ChannelClose); ok {
		if cc.base().cursor < 0 {
			ch.markClosed()
		}
	}
}

// deliverUp hands an event that ran off the top of the stack to the
// application.
func (ch *Channel) deliverUp(ev Event) {
	if _, ok := ev.(*ChannelInit); ok {
		// Init has visited every session: the channel is operational.
		ch.mu.Lock()
		select {
		case <-ch.ready:
		default:
			close(ch.ready)
		}
		ch.mu.Unlock()
		return
	}
	if ch.deliver != nil {
		ch.deliver(ev)
	}
}

// finishDown handles an event that ran off the bottom of the stack. Data
// events are simply dropped (the bottom layer should have consumed them);
// a completed ChannelClose finishes teardown.
func (ch *Channel) finishDown(ev Event) {
	if _, ok := ev.(*ChannelClose); ok {
		ch.markClosed()
	}
}

// markClosed completes teardown exactly once.
func (ch *Channel) markClosed() {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	select {
	case <-ch.closed:
	default:
		close(ch.closed)
	}
}
