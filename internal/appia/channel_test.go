package appia

import (
	"sync"
	"testing"
	"time"
)

// Test events forming a small hierarchy.
type baseEv struct{ SendableEvent }

type derivedEv struct {
	baseEv
	N int
}

type unrelatedEv struct{ EventBase }

// recLayer records every event its session sees and forwards it.
type recLayer struct {
	BaseLayer
	mu   sync.Mutex
	seen []string
	hold func(ev Event) bool // when non-nil and true, consume
}

func newRecLayer(name string, accepts ...EventType) *recLayer {
	return &recLayer{BaseLayer: BaseLayer{
		LayerName: name,
		LayerSpec: LayerSpec{Accepts: accepts},
	}}
}

func (l *recLayer) record(ev Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.seen = append(l.seen, l.LayerName)
}

func (l *recLayer) events() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	cp := make([]string, len(l.seen))
	copy(cp, l.seen)
	return cp
}

func (l *recLayer) NewSession() Session {
	return SessionFunc(func(ch *Channel, ev Event) {
		l.record(ev)
		if l.hold != nil && l.hold(ev) {
			return
		}
		ch.Forward(ev)
	})
}

func TestEventTypeMatching(t *testing.T) {
	base := T[*baseEv]()
	derived := T[*derivedEv]()
	sendable := T[*SendableEvent]()
	other := T[*unrelatedEv]()

	cases := []struct {
		name     string
		accept   EventType
		concrete EventType
		want     bool
	}{
		{"exact", base, base, true},
		{"derived matches base", base, derived, true},
		{"base does not match derived", derived, base, false},
		{"derived matches sendable root", sendable, derived, true},
		{"unrelated does not match sendable", sendable, other, false},
		{"interface Sendable matches derived", TIface[Sendable](), derived, true},
		{"interface Sendable does not match unrelated", TIface[Sendable](), other, false},
	}
	for _, tc := range cases {
		if got := tc.accept.Matches(tc.concrete); got != tc.want {
			t.Errorf("%s: Matches = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestQoSValidation(t *testing.T) {
	provider := newRecLayer("provider")
	provider.LayerSpec.Provides = []EventType{T[*baseEv]()}
	consumer := newRecLayer("consumer")
	consumer.LayerSpec.Requires = []EventType{T[*baseEv]()}

	if _, err := NewQoS("ok", provider, consumer); err != nil {
		t.Fatalf("valid QoS rejected: %v", err)
	}
	if _, err := NewQoS("bad", consumer); err == nil {
		t.Fatal("QoS with unprovided requirement accepted")
	}
	if _, err := NewQoS("empty"); err == nil {
		t.Fatal("empty QoS accepted")
	}
}

func TestChannelRoutesOnlyToAcceptingLayers(t *testing.T) {
	bottom := newRecLayer("bottom", T[*baseEv]())
	middle := newRecLayer("middle") // accepts nothing
	top := newRecLayer("top", T[*baseEv]())

	q, err := NewQoS("q", bottom, middle, top)
	if err != nil {
		t.Fatal(err)
	}
	sched := NewScheduler()
	defer sched.Close()

	var delivered []Event
	var mu sync.Mutex
	ch := q.CreateChannel("c", sched, WithDeliver(func(ev Event) {
		mu.Lock()
		delivered = append(delivered, ev)
		mu.Unlock()
	}))
	if err := ch.Start(); err != nil {
		t.Fatal(err)
	}

	if err := ch.Insert(&baseEv{}, Up); err != nil {
		t.Fatal(err)
	}
	// Scheduler.Flush waits only for the tasks queued before it, and each
	// routing hop is a task of its own, so the traversal tests wait for
	// the last hop instead. Here that is the delivery; ChannelInit,
	// inserted first, has finished its own traversal by then.
	waitFor(t, "delivery", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(delivered) >= 1
	})

	// ChannelInit visits everyone; baseEv visits only bottom and top.
	wantBottom := []string{"bottom", "bottom"} // init + event
	if got := bottom.events(); len(got) != len(wantBottom) {
		t.Fatalf("bottom saw %v", got)
	}
	if got := middle.events(); len(got) != 1 { // init only
		t.Fatalf("middle saw %v, want only ChannelInit", got)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(delivered) != 1 {
		t.Fatalf("app delivered %d events, want 1", len(delivered))
	}
}

func TestChannelDownTraversalOrder(t *testing.T) {
	var order []string
	var mu sync.Mutex
	mk := func(name string) Layer {
		return layerFunc{name: name, accepts: []EventType{T[*baseEv]()}, fn: func(ch *Channel, ev Event) {
			if _, ok := ev.(*baseEv); ok {
				mu.Lock()
				order = append(order, name)
				mu.Unlock()
			}
			ch.Forward(ev)
		}}
	}
	q, err := NewQoS("q", mk("l0"), mk("l1"), mk("l2"))
	if err != nil {
		t.Fatal(err)
	}
	sched := NewScheduler()
	defer sched.Close()
	ch := q.CreateChannel("c", sched)
	if err := ch.Start(); err != nil {
		t.Fatal(err)
	}
	if err := ch.Insert(&baseEv{}, Down); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the last hop (l0)", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(order) >= 3
	})

	mu.Lock()
	defer mu.Unlock()
	want := []string{"l2", "l1", "l0"}
	if len(order) != 3 || order[0] != want[0] || order[1] != want[1] || order[2] != want[2] {
		t.Fatalf("down order = %v, want %v", order, want)
	}
}

// layerFunc is a minimal Layer for tests.
type layerFunc struct {
	name    string
	accepts []EventType
	fn      func(ch *Channel, ev Event)
}

func (l layerFunc) Name() string { return l.name }
func (l layerFunc) Spec() LayerSpec {
	return LayerSpec{Accepts: l.accepts}
}
func (l layerFunc) NewSession() Session { return SessionFunc(l.fn) }

func TestSendFromStartsAdjacent(t *testing.T) {
	var mu sync.Mutex
	var order []string
	rec := func(name string) func(ch *Channel, ev Event) {
		return func(ch *Channel, ev Event) {
			if _, ok := ev.(*baseEv); ok {
				mu.Lock()
				order = append(order, name)
				mu.Unlock()
			}
			ch.Forward(ev)
		}
	}
	l0 := layerFunc{name: "l0", accepts: []EventType{T[*baseEv]()}, fn: rec("l0")}
	l2 := layerFunc{name: "l2", accepts: []EventType{T[*baseEv]()}, fn: rec("l2")}

	// l1 emits a baseEv downward when it sees ChannelInit.
	var l1sess Session
	l1 := layerFunc{name: "l1", accepts: []EventType{T[*baseEv]()}, fn: func(ch *Channel, ev Event) {
		if _, ok := ev.(*ChannelInit); ok {
			if err := ch.SendFrom(l1sess, &baseEv{}, Down); err != nil {
				t.Errorf("SendFrom: %v", err)
			}
		}
		ch.Forward(ev)
	}}

	q, err := NewQoS("q", l0, l1, l2)
	if err != nil {
		t.Fatal(err)
	}
	sched := NewScheduler()
	defer sched.Close()
	ch := q.CreateChannel("c", sched)
	l1sess = ch.sessions[1]
	if err := ch.Start(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the last hop (l0)", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(order) >= 1
	})

	mu.Lock()
	defer mu.Unlock()
	// The event must visit only l0 (below l1), never l2 or l1 itself.
	if len(order) != 1 || order[0] != "l0" {
		t.Fatalf("order = %v, want [l0]", order)
	}
}

func TestBounceRevisitsPath(t *testing.T) {
	var mu sync.Mutex
	var order []string
	passthru := func(name string) func(ch *Channel, ev Event) {
		return func(ch *Channel, ev Event) {
			if _, ok := ev.(*baseEv); ok {
				mu.Lock()
				order = append(order, name)
				mu.Unlock()
			}
			ch.Forward(ev)
		}
	}
	l0 := layerFunc{name: "l0", accepts: []EventType{T[*baseEv]()}, fn: passthru("l0")}
	l1 := layerFunc{name: "l1", accepts: []EventType{T[*baseEv]()}, fn: passthru("l1")}
	// Top layer bounces the event back down once.
	bounced := false
	l2 := layerFunc{name: "l2", accepts: []EventType{T[*baseEv]()}, fn: func(ch *Channel, ev Event) {
		if _, ok := ev.(*baseEv); ok {
			mu.Lock()
			order = append(order, "l2")
			mu.Unlock()
			if !bounced {
				bounced = true
				ch.Bounce(ev)
				return
			}
		}
		ch.Forward(ev)
	}}

	q, err := NewQoS("q", l0, l1, l2)
	if err != nil {
		t.Fatal(err)
	}
	sched := NewScheduler()
	defer sched.Close()
	ch := q.CreateChannel("c", sched)
	if err := ch.Start(); err != nil {
		t.Fatal(err)
	}
	if err := ch.Insert(&baseEv{}, Up); err != nil {
		t.Fatal(err)
	}
	want := []string{"l0", "l1", "l2", "l1", "l0"}
	waitFor(t, "the last hop (l0 on the way back)", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(order) >= len(want)
	})

	mu.Lock()
	defer mu.Unlock()
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSharedSessionAcrossChannels(t *testing.T) {
	counts := make(map[*Channel]int)
	var mu sync.Mutex
	shared := SessionFunc(func(ch *Channel, ev Event) {
		if _, ok := ev.(*baseEv); ok {
			mu.Lock()
			counts[ch]++
			mu.Unlock()
		}
		ch.Forward(ev)
	})
	l := layerFunc{name: "shared", accepts: []EventType{T[*baseEv]()}, fn: nil}
	q, err := NewQoS("q", l)
	if err != nil {
		t.Fatal(err)
	}
	sched := NewScheduler()
	defer sched.Close()
	ch1 := q.CreateChannel("a", sched, WithSharedSession("shared", shared))
	ch2 := q.CreateChannel("b", sched, WithSharedSession("shared", shared))
	if ch1.SessionFor("shared") == nil || !sameSession(ch1.SessionFor("shared"), ch2.SessionFor("shared")) {
		t.Fatal("sessions not shared")
	}
	if err := ch1.Start(); err != nil {
		t.Fatal(err)
	}
	if err := ch2.Start(); err != nil {
		t.Fatal(err)
	}
	if err := ch1.Insert(&baseEv{}, Up); err != nil {
		t.Fatal(err)
	}
	if err := ch2.Insert(&baseEv{}, Up); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "both channels' hops", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return counts[ch1] >= 1 && counts[ch2] >= 1
	})
	mu.Lock()
	defer mu.Unlock()
	if counts[ch1] != 1 || counts[ch2] != 1 {
		t.Fatalf("shared session counts = %v", counts)
	}
}

func TestChannelCloseDeliversCloseTopDown(t *testing.T) {
	var mu sync.Mutex
	var closes []string
	mk := func(name string) Layer {
		return layerFunc{name: name, fn: func(ch *Channel, ev Event) {
			if _, ok := ev.(*ChannelClose); ok {
				mu.Lock()
				closes = append(closes, name)
				mu.Unlock()
			}
			ch.Forward(ev)
		}}
	}
	q, err := NewQoS("q", mk("l0"), mk("l1"))
	if err != nil {
		t.Fatal(err)
	}
	sched := NewScheduler()
	defer sched.Close()
	ch := q.CreateChannel("c", sched)
	if err := ch.Start(); err != nil {
		t.Fatal(err)
	}
	sched.Flush()
	if err := ch.Close(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(closes) != 2 || closes[0] != "l1" || closes[1] != "l0" {
		t.Fatalf("close order = %v, want [l1 l0]", closes)
	}
	if err := ch.Insert(&baseEv{}, Up); err == nil {
		t.Fatal("Insert after Close succeeded")
	}
}

func TestChannelCloseWhenBottomConsumes(t *testing.T) {
	// A bottom layer that consumes ChannelClose must still complete
	// teardown.
	bottom := layerFunc{name: "b", fn: func(ch *Channel, ev Event) {
		// consume everything
	}}
	q, err := NewQoS("q", bottom)
	if err != nil {
		t.Fatal(err)
	}
	sched := NewScheduler()
	defer sched.Close()
	ch := q.CreateChannel("c", sched)
	if err := ch.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := ch.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Close hung when bottom layer consumed ChannelClose")
	}
}

func TestDeliverAfterFiresOnSchedulerGoroutine(t *testing.T) {
	fired := make(chan Event, 1)
	sess := SessionFunc(func(ch *Channel, ev Event) {
		if _, ok := ev.(*baseEv); !ok {
			return // ignore lifecycle events
		}
		select {
		case fired <- ev:
		default:
		}
	})
	l := layerFunc{name: "t", fn: nil}
	q, err := NewQoS("q", l)
	if err != nil {
		t.Fatal(err)
	}
	sched := NewScheduler()
	defer sched.Close()
	ch := q.CreateChannel("c", sched, WithSharedSession("t", sess))
	if err := ch.Start(); err != nil {
		t.Fatal(err)
	}
	ch.DeliverAfter(5*time.Millisecond, sess, &baseEv{})
	select {
	case ev := <-fired:
		if _, ok := ev.(*baseEv); !ok {
			t.Fatalf("timer delivered %T", ev)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("timer never fired")
	}
}

func TestSchedulerEveryCancel(t *testing.T) {
	sched := NewScheduler()
	defer sched.Close()
	var mu sync.Mutex
	n := 0
	cancel := sched.Every(2*time.Millisecond, func() {
		mu.Lock()
		n++
		mu.Unlock()
	})
	time.Sleep(20 * time.Millisecond)
	cancel()
	mu.Lock()
	after := n
	mu.Unlock()
	time.Sleep(20 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	if n > after+1 { // allow one in-flight tick
		t.Fatalf("ticks after cancel: %d -> %d", after, n)
	}
	if after == 0 {
		t.Fatal("periodic timer never fired")
	}
}

func TestEventKindRegistry(t *testing.T) {
	r := NewEventKindRegistry()
	r.Register("test.base", func() Sendable { return &baseEv{} })
	// Idempotent re-registration.
	r.Register("test.base", func() Sendable { return &baseEv{} })

	ev, err := r.New("test.base")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ev.(*baseEv); !ok {
		t.Fatalf("New returned %T", ev)
	}
	kind, err := r.KindOf(&baseEv{})
	if err != nil || kind != "test.base" {
		t.Fatalf("KindOf = %q, %v", kind, err)
	}
	if _, err := r.New("nope"); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if _, err := r.KindOf(&derivedEv{}); err == nil {
		t.Fatal("unregistered type accepted")
	}

	defer func() {
		if recover() == nil {
			t.Fatal("conflicting registration did not panic")
		}
	}()
	r.Register("test.base", func() Sendable { return &derivedEv{} })
}
