package udpnet

import (
	"fmt"
	"net"
	"sync"
	"time"

	"morpheus/internal/clock"
	"morpheus/internal/netio"
)

// wireDest identifies one coalescing destination: a send socket and the
// remote address the datagram goes to. The address pointers come from the
// network's resolved directory (or the endpoint's group table), so they
// are stable and usable as map keys.
type wireDest struct {
	conn *net.UDPConn
	addr *net.UDPAddr
}

// dgram is one wire datagram being packed (open) or awaiting transmission
// (sealed). The backing buffer is pooled; frames counts the entries so the
// container header's count field can be patched at seal time.
type dgram struct {
	dest   wireDest
	bp     *[]byte
	frames int
}

// dgramPool recycles dgram headers so the batched send path stays
// allocation-free.
var dgramPool = sync.Pool{New: func() any { return new(dgram) }}

// coalescer packs frames bound for the same destination into container
// datagrams under an MTU budget. Sealed datagrams queue in FIFO order and
// are drained by exactly one goroutine at a time (the sender that sealed
// them, the flush timer, or a Flush caller), which both preserves
// per-destination ordering and amortizes the vectored send syscalls:
// while one drainer is in the kernel, concurrent senders keep packing, and
// their datagrams leave in the drainer's next sweep.
//
// Flush policy, in priority order:
//   - size: an entry that would overflow the open datagram seals it;
//   - scheduler idle: the stack's scheduler calls Flush when its mailbox
//     empties, sealing everything open;
//   - delay: the first frame into an empty coalescer arms a clock timer
//     (the delay bound on added latency) that seals everything open;
//   - explicit/Close: Flush seals everything open; close additionally
//     waits until the wire has taken it all.
//
// Only close waits for another goroutine's drain. Flush and the timer
// drain themselves when no drainer is active and otherwise leave their
// sealed datagrams to the active one, whose loop picks them up.
type coalescer struct {
	ep    *Endpoint
	mtu   int
	delay time.Duration
	clk   clock.Clock

	mu       sync.Mutex
	cond     sync.Cond
	open     map[wireDest]*dgram
	order    []wireDest // seal order for sealAllLocked; may hold stale entries
	ready    []*dgram   // sealed, FIFO
	spare    []*dgram   // recycled backing array for ready
	timer    clock.Timer
	armed    bool
	draining bool
	closed   bool
}

func newCoalescer(ep *Endpoint, mtu int, delay time.Duration, clk clock.Clock) *coalescer {
	c := &coalescer{
		ep:    ep,
		mtu:   mtu,
		delay: delay,
		clk:   clk,
		open:  make(map[wireDest]*dgram),
	}
	c.cond.L = &c.mu
	return c
}

// enqueue coalesces one frame toward dest. The frame is accounted as
// transmitted here — once enqueued it will reach the wire (flush on size,
// timer, Flush, or Close), and a nil return means exactly what the
// unbatched path's nil means: handed to the substrate, not acknowledged.
func (c *coalescer) enqueue(dest wireDest, port, class string, payload []byte) error {
	body := frameBodyLen(port, class, payload)
	entry := uvarintLen(uint64(body)) + body

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return fmt.Errorf("udpnet: endpoint %d %w", c.ep.id, netio.ErrClosed)
	}
	c.ep.counters.AddTx(class, len(payload))
	drain := false
	if containerHdrLen+entry > c.mtu {
		// Oversize bypass: the frame travels alone as a v1 datagram. It is
		// routed through the same sealed FIFO as everything else, behind a
		// seal of its destination's open datagram, so per-destination order
		// survives the detour.
		c.sealLocked(dest)
		bp, err := marshalFrame(c.ep.id, port, class, payload)
		if err != nil {
			c.mu.Unlock()
			return err
		}
		d := dgramPool.Get().(*dgram)
		d.dest, d.bp, d.frames = dest, bp, 1
		c.ready = append(c.ready, d)
		drain = true
	} else {
		d := c.open[dest]
		if d != nil && len(*d.bp)+entry > c.mtu {
			c.sealLocked(dest)
			d = nil
			drain = true
		}
		if d == nil {
			d = dgramPool.Get().(*dgram)
			bp := framePool.Get().(*[]byte)
			*bp = appendContainerHeader((*bp)[:0], c.ep.id)
			d.dest, d.bp, d.frames = dest, bp, 0
			c.open[dest] = d
			c.order = append(c.order, dest)
			if !c.armed && c.delay > 0 {
				c.armed = true
				if c.timer == nil {
					c.timer = c.clk.AfterFunc(c.delay, c.flushTimer)
				} else {
					c.timer.Reset(c.delay)
				}
			}
		}
		*d.bp = appendContainerEntry(*d.bp, port, class, payload)
		d.frames++
		if c.delay <= 0 {
			// No delay budget: seal immediately. Packing still happens when
			// concurrent senders queue behind an active drainer.
			c.sealLocked(dest)
			drain = true
		}
	}
	if len(c.ready) > 0 {
		drain = drain || !c.draining
	}
	c.mu.Unlock()
	if drain {
		c.drain(false)
	}
	return nil
}

// sealLocked moves dest's open datagram (if any) to the ready FIFO,
// patching the container frame count.
func (c *coalescer) sealLocked(dest wireDest) {
	d := c.open[dest]
	if d == nil {
		return
	}
	delete(c.open, dest)
	setContainerCount(*d.bp, d.frames)
	c.ready = append(c.ready, d)
}

// sealAllLocked seals every open datagram in arrival order and disarms
// the flush timer.
func (c *coalescer) sealAllLocked() {
	if c.armed {
		c.armed = false
		c.timer.Stop()
	}
	for _, dest := range c.order {
		c.sealLocked(dest) // no-op for stale entries already sealed by size
	}
	c.order = c.order[:0]
}

// flushTimer is the delay-bound flush: whatever packed while the timer
// ran goes to the wire now.
func (c *coalescer) flushTimer() {
	c.mu.Lock()
	c.armed = false
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.flushLocked()
}

// Flush seals everything open and hands it to the wire without waiting on
// another goroutine's transmission.
func (c *coalescer) Flush() {
	c.mu.Lock()
	c.flushLocked()
}

// flushLocked seals everything open, releases mu, and drains unless a
// drainer is already active — that drainer's loop sweeps the newly
// sealed datagrams before it lets go.
func (c *coalescer) flushLocked() {
	c.sealAllLocked()
	drain := len(c.ready) > 0 && !c.draining
	c.mu.Unlock()
	if drain {
		c.drain(false)
	}
}

// close seals and drains outstanding datagrams, then refuses further
// frames. Called by Endpoint.Close before the sockets shut.
func (c *coalescer) close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.sealAllLocked()
	c.mu.Unlock()
	c.drain(true)
}

// drain transmits sealed datagrams. At most one goroutine drains at a
// time; if another drainer is active, drain returns immediately unless
// wait is set, in which case it blocks until the FIFO is empty and no
// drainer is running (the close contract).
func (c *coalescer) drain(wait bool) {
	c.mu.Lock()
	for {
		if len(c.ready) == 0 && !c.draining {
			break
		}
		if c.draining {
			if !wait {
				break
			}
			c.cond.Wait()
			continue
		}
		c.draining = true
		batch := c.ready
		c.ready = c.spare
		c.spare = nil
		c.mu.Unlock()

		c.ep.sendBatch(batch)
		for i, d := range batch {
			framePool.Put(d.bp)
			d.bp = nil
			d.dest = wireDest{}
			dgramPool.Put(d)
			batch[i] = nil
		}

		c.mu.Lock()
		c.draining = false
		c.spare = batch[:0]
		c.cond.Broadcast()
	}
	c.mu.Unlock()
}
