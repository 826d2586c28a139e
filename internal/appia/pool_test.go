package appia

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"morpheus/internal/clock"
)

// The pooled-mode conformance suite: every behavioral contract the
// unpooled scheduler pins — exactly-once per-producer FIFO processing,
// mailbox-bounds hysteresis, Flush, the close race, timer cancellation —
// must hold unchanged when the scheduler executes on a shared Pool, plus
// the pool-only contracts (stealing, per-group stats, virtual-time trace
// identity across worker counts).

// newTestPool builds a wall-clock pool torn down with the test.
func newTestPool(t testing.TB, workers int) *Pool {
	t.Helper()
	p := NewPool(workers, nil)
	t.Cleanup(p.Close)
	return p
}

// TestPooledConcurrentInsertStress is TestSchedulerConcurrentInsertStress
// on a pooled scheduler: many producers, exactly-once, per-producer order.
func TestPooledConcurrentInsertStress(t *testing.T) {
	const producers = 8
	const perProducer = 500

	type stressEv struct {
		EventBase
		producer int
		seq      int
	}
	var mu sync.Mutex
	lastSeen := make([]int, producers)
	for i := range lastSeen {
		lastSeen[i] = -1
	}
	var total atomic.Int64

	l := layerFunc{name: "sink", accepts: []EventType{T[*stressEv]()}, fn: func(ch *Channel, ev Event) {
		e, ok := ev.(*stressEv)
		if !ok {
			ch.Forward(ev)
			return
		}
		mu.Lock()
		if e.seq != lastSeen[e.producer]+1 {
			t.Errorf("producer %d: seq %d after %d", e.producer, e.seq, lastSeen[e.producer])
		}
		lastSeen[e.producer] = e.seq
		mu.Unlock()
		total.Add(1)
	}}
	q, err := NewQoS("q", l)
	if err != nil {
		t.Fatal(err)
	}
	pool := newTestPool(t, 4)
	sched := pool.NewScheduler()
	defer sched.Close()
	ch := q.CreateChannel("c", sched)
	if err := ch.Start(); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				if err := ch.Insert(&stressEv{producer: p, seq: i}, Up); err != nil {
					t.Errorf("insert: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	sched.Flush()
	if got := total.Load(); got != producers*perProducer {
		t.Fatalf("processed %d events, want %d", got, producers*perProducer)
	}
	if st := pool.Stats(); st.Enqueues == 0 || st.Batches == 0 {
		t.Fatalf("pool never dispatched: %+v", st)
	}
}

// TestPooledMailboxBoundsHysteresis pins SetMailboxBounds/AdmitExternal on
// a pooled scheduler: the gate arms at the high watermark, holds while the
// drain is above low, and reopens (channel closed, then nil) after a drain.
func TestPooledMailboxBoundsHysteresis(t *testing.T) {
	pool := newTestPool(t, 2)
	sched := pool.NewScheduler()
	defer sched.Close()
	sched.SetMailboxBounds(8, 2)

	block := make(chan struct{})
	running := make(chan struct{})
	if err := sched.Do(func() { close(running); <-block }); err != nil {
		t.Fatal(err)
	}
	<-running
	if gate := sched.AdmitExternal(); gate != nil {
		t.Fatal("gate armed below the high watermark")
	}
	for i := 0; i < 8; i++ {
		if err := sched.Do(func() {}); err != nil {
			t.Fatal(err)
		}
	}
	gate := sched.AdmitExternal()
	if gate == nil {
		t.Fatal("gate not armed at the high watermark")
	}
	select {
	case <-gate:
		t.Fatal("gate released while the mailbox is saturated")
	default:
	}
	close(block)
	select {
	case <-gate:
	case <-time.After(5 * time.Second):
		t.Fatal("gate never released after the drain")
	}
	sched.Flush()
	if gate := sched.AdmitExternal(); gate != nil {
		t.Fatal("gate still armed after a full drain")
	}
}

// TestPooledFlushAndClose pins Flush ordering and the Close contract
// (drains queued work, rejects later posts, is idempotent and safe to race
// with producers) in pooled mode.
func TestPooledFlushAndClose(t *testing.T) {
	pool := newTestPool(t, 2)
	sched := pool.NewScheduler()

	var order []int
	var mu sync.Mutex
	for i := 0; i < 100; i++ {
		i := i
		if err := sched.Do(func() { mu.Lock(); order = append(order, i); mu.Unlock() }); err != nil {
			t.Fatal(err)
		}
	}
	sched.Flush()
	mu.Lock()
	if len(order) != 100 || order[0] != 0 || order[99] != 99 {
		t.Fatalf("flush did not wait for all posts: %d done", len(order))
	}
	mu.Unlock()

	var done atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := sched.Do(func() { done.Add(1) }); err != nil {
					return // closed mid-race: fine
				}
			}
		}()
	}
	time.Sleep(2 * time.Millisecond)
	sched.Close()
	close(stop)
	wg.Wait()
	n := done.Load()
	if err := sched.Do(func() {}); err != ErrSchedulerClosed {
		t.Fatalf("post after Close: %v", err)
	}
	sched.Close() // idempotent
	if done.Load() != n {
		t.Fatal("work ran after Close returned")
	}
}

// TestPooledCloseDetachesQueuedScheduler exercises the detach path: with a
// single worker wedged on another scheduler, Close of a queued-but-unowned
// scheduler must drain it inline rather than wait for a worker.
func TestPooledCloseDetachesQueuedScheduler(t *testing.T) {
	pool := newTestPool(t, 1)
	hog := pool.NewScheduler()
	victim := pool.NewScheduler()
	defer hog.Close()

	block := make(chan struct{})
	running := make(chan struct{})
	if err := hog.Do(func() { close(running); <-block }); err != nil {
		t.Fatal(err)
	}
	<-running // the only worker is now wedged on hog

	var ran atomic.Bool
	if err := victim.Do(func() { ran.Store(true) }); err != nil {
		t.Fatal(err)
	}
	closed := make(chan struct{})
	go func() { victim.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close deadlocked on a wedged pool")
	}
	if !ran.Load() {
		t.Fatal("queued work was dropped by Close")
	}
	close(block)
}

// TestPooledTimerStormUnderClose is TestTimerStormUnderClose, pooled.
func TestPooledTimerStormUnderClose(t *testing.T) {
	pool := newTestPool(t, 2)
	sched := pool.NewScheduler()
	var fired atomic.Int64
	for i := 0; i < 200; i++ {
		d := time.Duration(i%10+1) * time.Millisecond
		sched.After(d, func() { fired.Add(1) })
	}
	time.Sleep(5 * time.Millisecond)
	sched.Close()
	n := fired.Load()
	time.Sleep(20 * time.Millisecond)
	if fired.Load() != n {
		t.Fatal("timers fired after Close")
	}
}

// TestPoolStealCounters wedges one worker and proves the other steals the
// wedged worker's backlog: the work completes while the victim worker is
// still blocked, and the pool's steal counters record the migration.
func TestPoolStealCounters(t *testing.T) {
	pool := newTestPool(t, 2)
	// Round-robin affinity: even scheduler indices land on worker 0.
	var scheds []*Scheduler
	for i := 0; i < 8; i++ {
		s := pool.NewScheduler()
		defer s.Close()
		scheds = append(scheds, s)
	}
	block := make(chan struct{})
	running := make(chan struct{})
	if err := scheds[0].Do(func() { close(running); <-block }); err != nil {
		t.Fatal(err)
	}
	<-running // worker 0 wedged on scheds[0]

	var wg sync.WaitGroup
	for _, i := range []int{2, 4, 6} { // worker 0 affinity
		wg.Add(1)
		if err := scheds[i].Do(wg.Done); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done: // stolen and run while worker 0 is still wedged
	case <-time.After(5 * time.Second):
		t.Fatal("backlog never stolen from the wedged worker")
	}
	st := pool.Stats()
	if st.Steals == 0 || st.Stolen == 0 {
		t.Fatalf("no steals recorded: %+v", st)
	}
	if st.Deterministic {
		t.Fatal("wall-clock pool reported deterministic mode")
	}
	close(block)
}

// TestPooledPerGroupMailboxStats pins the satellite fix: MailboxDepth and
// MailboxHighWater are per-scheduler (per-group) properties, unaffected by
// which worker drains the scheduler or by a steal migrating it — never
// aggregated per worker.
func TestPooledPerGroupMailboxStats(t *testing.T) {
	pool := newTestPool(t, 2)
	a := pool.NewScheduler()
	b := pool.NewScheduler()
	defer a.Close()
	defer b.Close()

	block := make(chan struct{})
	running := make(chan struct{})
	if err := a.Do(func() { close(running); <-block }); err != nil {
		t.Fatal(err)
	}
	<-running
	for i := 0; i < 10; i++ {
		if err := a.Do(func() {}); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Do(func() {}); err != nil {
		t.Fatal(err)
	}
	b.Flush()
	if hw := b.MailboxHighWater(); hw > 2 {
		t.Fatalf("b's high-water mark %d includes a's backlog", hw)
	}
	if d := a.MailboxDepth(); d < 10 {
		t.Fatalf("a's depth %d lost queued work", d)
	}
	close(block)
	a.Flush()
	if hw := a.MailboxHighWater(); hw < 10 {
		t.Fatalf("a's high-water mark %d below its own backlog", hw)
	}
	if d := a.MailboxDepth(); d != 0 {
		t.Fatalf("a's depth %d after drain", d)
	}
}

// poolTrace runs one deterministic multi-scheduler workload on a virtual
// clock and returns the execution trace: timer-seeded Do-chains hopping
// between 8 schedulers. The trace must be a pure function of the workload —
// independent of executor shape (unpooled schedulers, pool of 1, pool
// of 4) and of GOMAXPROCS.
func poolTrace(t *testing.T, workers int, unpooled bool) []string {
	t.Helper()
	clk := clock.NewVirtual()
	defer clk.Stop()
	var pool *Pool
	if !unpooled {
		pool = NewPool(workers, clk)
		defer pool.Close()
	}
	const K = 8
	scheds := make([]*Scheduler, K)
	for i := range scheds {
		if unpooled {
			scheds[i] = NewSchedulerWithClock(clk)
		} else {
			scheds[i] = pool.NewScheduler()
		}
		defer scheds[i].Close()
	}
	var mu sync.Mutex
	var trace []string
	var hop func(i, step int) func()
	hop = func(i, step int) func() {
		return func() {
			mu.Lock()
			trace = append(trace, fmt.Sprintf("%d:%d", i, step))
			mu.Unlock()
			if step < 40 {
				next := (i + 1) % K
				_ = scheds[next].Do(hop(next, step+1))
			}
		}
	}
	for i := range scheds {
		i := i
		scheds[i].After(time.Duration(i%3+1)*time.Millisecond, hop(i, 0))
	}
	clk.Sleep(time.Second) // run the cascade to quiescence
	mu.Lock()
	defer mu.Unlock()
	if len(trace) != K*41 {
		t.Fatalf("trace has %d hops, want %d", len(trace), K*41)
	}
	return append([]string(nil), trace...)
}

// TestPooledVirtualTraceIdentity is the determinism theorem as a test: on a
// virtual clock the execution trace is byte-identical across unpooled
// schedulers and every pool size, because dispatch order reduces to the clock's
// FIFO token-grant order in all of them.
func TestPooledVirtualTraceIdentity(t *testing.T) {
	ref := poolTrace(t, 0, true)
	for _, workers := range []int{1, 4} {
		got := poolTrace(t, workers, false)
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("pool(%d) trace diverges at hop %d: %s != %s", workers, i, got[i], ref[i])
			}
		}
	}
	st := func() PoolStats {
		clk := clock.NewVirtual()
		defer clk.Stop()
		p := NewPool(3, clk)
		defer p.Close()
		return p.Stats()
	}()
	if !st.Deterministic {
		t.Fatal("virtual-clock pool did not report deterministic mode")
	}
}
