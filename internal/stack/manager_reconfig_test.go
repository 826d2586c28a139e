package stack

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"morpheus/internal/appia"
	"morpheus/internal/group"
	"morpheus/internal/netio"
	"morpheus/internal/netio/loopnet"
)

// TestReconfigUnderLoadKeepsPerOriginFIFO pins per-origin FIFO across
// reconfigurations while a sender keeps sending: the casts buffered during
// an epoch change must reach the new stack before any send that observes
// the new channel. Every member must deliver each origin's casts exactly
// once and in send order, across repeated plain<->Mecho flips.
func TestReconfigUnderLoadKeepsPerOriginFIFO(t *testing.T) {
	nw := loopnet.New()
	t.Cleanup(func() { _ = nw.Close() })
	RegisterAllWireEvents(nil)

	members := []appia.NodeID{1, 2, 3}
	type member struct {
		mgr *Manager
		mu  sync.Mutex
		got map[appia.NodeID][]uint32 // origin -> sequence numbers, in delivery order
	}
	nodes := make([]*member, len(members))
	for i, id := range members {
		ep, err := nw.Attach(netio.EndpointConfig{ID: id, Kind: netio.Fixed, Segments: []string{"lan"}})
		if err != nil {
			t.Fatal(err)
		}
		sched := appia.NewScheduler()
		t.Cleanup(sched.Close)
		m := &member{got: make(map[appia.NodeID][]uint32)}
		m.mgr = NewManager(ManagerConfig{
			Node: ep, Self: id, Scheduler: sched,
			// A window deep enough that the senders are still running,
			// not parked on credit, when an epoch change completes.
			SendWindow: 1 << 14,
			OnDeliver: func(ev *group.CastEvent) {
				seq := binary.BigEndian.Uint32(ev.Msg.Bytes())
				m.mu.Lock()
				m.got[ev.Origin] = append(m.got[ev.Origin], seq)
				m.mu.Unlock()
			},
		})
		t.Cleanup(func() { _ = m.mgr.Close() })
		if err := m.mgr.Deploy(plainDoc(), "plain", 1, members); err != nil {
			t.Fatal(err)
		}
		nodes[i] = m
	}

	// Two concurrent senders, each numbering its own casts.
	var stop atomic.Bool
	sent := make([]atomic.Uint32, len(members))
	var wg sync.WaitGroup
	for _, i := range []int{0, 1} {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var buf [4]byte
			for !stop.Load() {
				binary.BigEndian.PutUint32(buf[:], sent[i].Load())
				if err := nodes[i].mgr.Send(buf[:]); err != nil {
					t.Errorf("send from %d: %v", members[i], err)
					return
				}
				sent[i].Add(1)
			}
		}(i)
	}

	flips := uint64(8)
	if testing.Short() {
		flips = 3
	}
	for epoch := uint64(2); epoch < 2+flips; epoch++ {
		doc, name := mechoDoc(1), "mecho"
		if epoch%2 == 1 {
			doc, name = plainDoc(), "plain"
		}
		var rwg sync.WaitGroup
		for _, m := range nodes {
			rwg.Add(1)
			go func(m *member) {
				defer rwg.Done()
				if err := m.mgr.Reconfigure(doc, name, epoch, members); err != nil {
					t.Errorf("reconfigure to epoch %d: %v", epoch, err)
				}
			}(m)
		}
		rwg.Wait()
		time.Sleep(5 * time.Millisecond) // let fresh-epoch sends interleave
	}
	stop.Store(true)
	wg.Wait()
	t.Logf("sent %d + %d casts across %d reconfigurations", sent[0].Load(), sent[1].Load(), flips)
	if t.Failed() {
		return
	}

	complete := func() bool {
		for _, m := range nodes {
			m.mu.Lock()
			for i, id := range members {
				if len(m.got[id]) < int(sent[i].Load()) {
					m.mu.Unlock()
					return false
				}
			}
			m.mu.Unlock()
		}
		return true
	}
	deadline := time.Now().Add(20 * time.Second)
	for !complete() && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	for _, m := range nodes {
		m.mu.Lock()
		for i, id := range members {
			seqs := m.got[id]
			if n := int(sent[i].Load()); len(seqs) != n {
				t.Errorf("member %d delivered %d casts from %d, want %d", m.mgr.cfg.Self, len(seqs), id, n)
				continue
			}
			for k, seq := range seqs {
				if seq != uint32(k) {
					t.Errorf("member %d: delivery %d from origin %d is cast %d (per-origin FIFO broken)",
						m.mgr.cfg.Self, k, id, seq)
					break
				}
			}
		}
		m.mu.Unlock()
	}
}
