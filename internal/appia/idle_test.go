package appia

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"morpheus/internal/clock"
)

// The idle-hook contract, pooled and unpooled: the hook runs on the
// executor once per park, after the last task of the batch that emptied
// the mailbox; work posted while it runs is dispatched before the park;
// and under a virtual clock it runs while the run token is still held.

// schedMode is one executor shape's scheduler.
type schedMode struct {
	name string
	s    *Scheduler
}

// idleModes builds a scheduler on clk for each executor shape.
func idleModes(t *testing.T, clk clock.Clock) []schedMode {
	t.Helper()
	pool := NewPool(2, clk)
	t.Cleanup(pool.Close)
	pooled := pool.NewScheduler()
	t.Cleanup(pooled.Close)
	unpooled := NewSchedulerWithClock(clk)
	t.Cleanup(unpooled.Close)
	return []schedMode{{"unpooled", unpooled}, {"pooled", pooled}}
}

// eventLog is a goroutine-safe append-only trace.
type eventLog struct {
	mu     sync.Mutex
	events []string
}

func (l *eventLog) add(e string) {
	l.mu.Lock()
	l.events = append(l.events, e)
	l.mu.Unlock()
}

func (l *eventLog) snapshot() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.events...)
}

// count returns how many entries equal e.
func (l *eventLog) count(e string) int {
	n := 0
	for _, got := range l.snapshot() {
		if got == e {
			n++
		}
	}
	return n
}

// waitFor polls until cond holds, failing the test after 5 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestSchedulerIdleHookOncePerPark(t *testing.T) {
	for _, m := range idleModes(t, nil) {
		s := m.s
		t.Run(m.name, func(t *testing.T) {
			var log eventLog
			s.SetIdleHook(func() { log.add("idle") })

			var want []string
			for round := 0; round < 3; round++ {
				// Hold the executor in a task while the round's work
				// queues behind it, so the work may span batches.
				started, release := make(chan struct{}), make(chan struct{})
				if err := s.Do(func() { close(started); <-release }); err != nil {
					t.Fatal(err)
				}
				<-started
				for i := 0; i < 10; i++ {
					e := fmt.Sprintf("r%d-t%d", round, i)
					want = append(want, e)
					if err := s.Do(func() { log.add(e) }); err != nil {
						t.Fatal(err)
					}
				}
				want = append(want, "idle")
				close(release)
				waitFor(t, "idle hook", func() bool { return log.count("idle") == round+1 })
			}
			// A parked scheduler stays parked: no hook without work.
			time.Sleep(20 * time.Millisecond)
			got := log.snapshot()
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("trace = %v\nwant    %v", got, want)
			}
		})
	}
}

func TestSchedulerIdleHookDrainsPostDuringHook(t *testing.T) {
	for _, m := range idleModes(t, nil) {
		s := m.s
		t.Run(m.name, func(t *testing.T) {
			var log eventLog
			inHook, posted := make(chan struct{}), make(chan struct{})
			first := true
			s.SetIdleHook(func() {
				log.add("idle")
				if first {
					// Hold the executor in the hook until an external
					// post has landed in the empty mailbox.
					first = false
					close(inHook)
					<-posted
				}
			})
			if err := s.Do(func() { log.add("a") }); err != nil {
				t.Fatal(err)
			}
			<-inHook
			if err := s.Do(func() { log.add("b") }); err != nil {
				t.Fatal(err)
			}
			close(posted)
			// No further post: the scheduler itself must find "b".
			waitFor(t, "the post that landed during the hook", func() bool { return log.count("idle") == 2 })
			if got, want := fmt.Sprint(log.snapshot()), "[a idle b idle]"; got != want {
				t.Fatalf("trace = %s, want %s", got, want)
			}
		})
	}
}

func TestSchedulerIdleHookHoldsVirtualToken(t *testing.T) {
	clk := clock.NewVirtual()
	defer clk.Stop()
	for _, m := range idleModes(t, clk) {
		s := m.s
		t.Run(m.name, func(t *testing.T) {
			var log eventLog
			var before, after time.Time
			s.SetIdleHook(func() {
				// Were the token released, the clock would find every
				// actor parked during this wall-clock pause and advance
				// to the creator's pending Sleep deadline.
				before = clk.Now()
				time.Sleep(20 * time.Millisecond)
				after = clk.Now()
				log.add("idle")
			})
			if err := s.Do(func() { log.add("task") }); err != nil {
				t.Fatal(err)
			}
			start := clk.Now()
			clk.Sleep(time.Millisecond) // hands the token to the scheduler
			if got := fmt.Sprint(log.snapshot()); got != "[task idle]" {
				t.Fatalf("trace = %s, want [task idle]", got)
			}
			if !before.Equal(start) || !after.Equal(start) {
				t.Fatalf("virtual time moved during the hook: %v -> %v (start %v)", before, after, start)
			}
			s.SetIdleHook(nil)
		})
	}
}
