package stack

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"morpheus/internal/appia"
	"morpheus/internal/appia/appiaxml"
	"morpheus/internal/clock"
	"morpheus/internal/flowctl"
	"morpheus/internal/group"
	"morpheus/internal/netio"
)

// Manager errors.
var (
	ErrNotDeployed = errors.New("stack: no configuration deployed")
	ErrStaleEpoch  = errors.New("stack: stale configuration epoch")
	ErrClosed      = errors.New("stack: manager closed")
	// ErrGroupClosed reports a send on a group that has been left or whose
	// node has closed. Unlike a reconfiguration race (which buffers
	// transparently), this is final: the payload was NOT accepted.
	ErrGroupClosed = errors.New("stack: group closed")
	// ErrWindowFull is the non-blocking send's backpressure signal.
	ErrWindowFull = flowctl.ErrWindowFull
)

// DefaultSendWindow is the per-group send-window capacity used when
// ManagerConfig.SendWindow is zero. It is a small multiple of the
// standard configurations' delivery-driven stability period (stable-every
// 64), so under sustained load credits return in batches well before the
// window drains.
const DefaultSendWindow = 256

// ManagerConfig configures a StackManager.
type ManagerConfig struct {
	// Node is the local network attachment (any netio substrate).
	Node netio.Endpoint
	// Self is this node's identifier.
	Self appia.NodeID
	// Group names the hosted group this manager serves. When set, the
	// per-epoch port is namespaced as "<group>/<base>@<epoch>", extending
	// the epoch isolation the port scheme already provides to group
	// isolation: a node hosting many groups gives each one a disjoint port
	// space, so frames can never cross groups even when two groups sit at
	// the same epoch. Delivered casts are stamped with the group name.
	// Empty means a single-group node (legacy "<base>@<epoch>" ports).
	Group string
	// Scheduler runs all of the node's channels.
	Scheduler *appia.Scheduler
	// Registry resolves layer names; nil means NewStandardRegistry().
	Registry *appiaxml.LayerRegistry
	// Events resolves wire event kinds; nil means the process default.
	Events *appia.EventKindRegistry
	// ChannelName is the data channel name in documents (default "data").
	ChannelName string
	// BasePort prefixes the per-epoch vnet port (default "data").
	BasePort string
	// QuiesceTimeout bounds the wait for view-synchronous quiescence
	// before a reconfiguration force-closes the old channel.
	QuiesceTimeout time.Duration
	// Clock times the quiescence wait. Nil means wall clock; it must be
	// the scheduler's clock so reconfigurations stay on one timeline.
	Clock clock.Clock
	// OnDeliver receives application casts from whatever channel is
	// currently deployed. Called on the scheduler goroutine.
	OnDeliver func(ev *group.CastEvent)
	// OnViewChange, when set, observes data-channel views.
	OnViewChange func(v group.View)
	// SendWindow is the per-group send window: the maximum application
	// casts in flight (credit consumed at Send, released when stability
	// gossip confirms group-wide delivery). 0 means DefaultSendWindow;
	// negative disables windowing (the pre-flow-control fire-and-forget
	// behavior — unbounded retention under overload). The window applies
	// to configurations carrying the reliable NAK layer; stacks without a
	// stability plane (e.g. pure FEC) send unwindowed.
	SendWindow int
	// SendWindowBytes is the byte-denominated companion to SendWindow: a
	// second credit window charging each accepted payload its byte cost
	// (priced by SendCost, clamped to the window capacity), released on
	// the same stability watermark as the message credit. It bounds
	// retained *bytes* where SendWindow bounds retained *messages*, so a
	// few huge casts exert the same backpressure as many small ones. 0
	// disables byte windowing; the byte window supplements the message
	// window, never replaces it.
	SendWindowBytes int
	// SendCost prices payloads against the byte window; nil charges one
	// credit per payload byte.
	SendCost *flowctl.CostModel
	// Logf receives diagnostics; nil discards them (library code never
	// writes to the global logger).
	Logf netio.Logf
}

func (c *ManagerConfig) sendWindow() int {
	if c.SendWindow == 0 {
		return DefaultSendWindow
	}
	if c.SendWindow < 0 {
		return 0
	}
	return c.SendWindow
}

func (c *ManagerConfig) sendWindowBytes() int {
	if c.SendWindowBytes <= 0 {
		return 0
	}
	return c.SendWindowBytes
}

func (c *ManagerConfig) channelName() string {
	if c.ChannelName == "" {
		return "data"
	}
	return c.ChannelName
}

func (c *ManagerConfig) basePort() string {
	if c.BasePort == "" {
		return "data"
	}
	return c.BasePort
}

// portFor computes the substrate port for one configuration epoch,
// namespaced by group when the manager serves one of many hosted groups.
func (c *ManagerConfig) portFor(epoch uint64) string {
	if c.Group == "" {
		return fmt.Sprintf("%s@%d", c.basePort(), epoch)
	}
	return fmt.Sprintf("%s/%s@%d", c.Group, c.basePort(), epoch)
}

func (c *ManagerConfig) clock() clock.Clock { return clock.Or(c.Clock) }

func (c *ManagerConfig) quiesceTimeout() time.Duration {
	if c.QuiesceTimeout <= 0 {
		return defaultQuiesceTimeout
	}
	return c.QuiesceTimeout
}

func (c *ManagerConfig) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// Manager is the Core sub-system's local module: it owns the node's data
// channel, deploys XML-described configurations, and performs the §3.3
// reconfiguration procedure — quiesce via view synchrony, tear down,
// rebuild from XML, resume buffered traffic on the new stack.
type Manager struct {
	cfg ManagerConfig
	reg *appiaxml.LayerRegistry
	// win is the group's send window (nil when windowing is disabled).
	// Credits: one per accepted application payload, held across
	// reconfiguration buffering and released by the reliable layer on
	// stability (or by the resubmit path when the payload lands on an
	// unwindowed stack).
	win *flowctl.Window
	// winB is the byte-denominated send window (nil when disabled): a
	// payload charges its byte cost on acceptance and the reliable layer
	// releases it on the same watermark as the message credit. Acquisition
	// order is fixed — message credit, then byte credits — so two
	// concurrent senders can never deadlock across the pair.
	winB  *flowctl.Window
	state struct {
		sync.Mutex
		ch         *appia.Channel
		epoch      uint64
		configName string
		members    []appia.NodeID
		// viewMembers is the membership of the data channel's most recent
		// *installed view* within the current epoch — distinct from members,
		// the epoch's deploy-time bootstrap list. Mid-epoch view changes
		// (failure evictions, late-join admissions, leave announcements)
		// land here without disturbing the deploy list the repair and
		// redeploy paths reason about. Nil until the first install.
		viewMembers []appia.NodeID
		// doc is the deployed configuration document, retained so the
		// control plane can redeploy the same configuration with a
		// narrowed membership after a member death (membership repair).
		doc      *appiaxml.Document
		buffered []heldSend // payloads held during reconfiguration
		// windowed records whether the deployed channel contains a
		// credit-releasing reliable layer; sends on unwindowed stacks
		// return their credit at insert.
		windowed bool
		// nakBase accumulates retention high-water marks of torn-down
		// epochs; FlowStats merges it with the live channel's marks.
		// nakMerged remembers the last channel folded in, so a Close
		// racing a Reconfigure cannot double-count the same epoch's
		// Evicted tally.
		nakBase   group.NakStats
		nakMerged *appia.Channel
		quiesced  chan struct{}
		// quiescentSeen remembers that the current channel already
		// reported quiescence; the flush can complete before this node's
		// Core even learns a reconfiguration is underway (control and
		// data channels are not mutually ordered), so the signal must be
		// level- rather than edge-triggered.
		quiescentSeen bool
		reconfig      bool
		// closed marks the manager permanently torn down; a reconfiguration
		// that completes after Close must discard its freshly built channel
		// instead of installing it (which would re-bind the group's ports
		// on a supposedly-left group).
		closed bool
	}
}

// heldSend is one payload buffered across a reconfiguration; credit
// records whether it holds a send-window credit, bytes how many
// byte-window credits ride along.
type heldSend struct {
	payload []byte
	credit  bool
	bytes   int
}

// NewManager returns a manager with nothing deployed yet. The standard
// wire event kinds are registered in cfg.Events (or the process default)
// so a freshly constructed manager can always decode its own traffic.
func NewManager(cfg ManagerConfig) *Manager {
	reg := cfg.Registry
	if reg == nil {
		reg = NewStandardRegistry()
	}
	RegisterAllWireEvents(cfg.Events)
	return &Manager{
		cfg:  cfg,
		reg:  reg,
		win:  flowctl.New(cfg.sendWindow(), cfg.clock()),
		winB: flowctl.New(cfg.sendWindowBytes(), cfg.clock()),
	}
}

// Window exposes the group's send window (nil when disabled).
func (m *Manager) Window() *flowctl.Window { return m.win }

// WindowBytes exposes the group's byte-denominated send window (nil when
// disabled).
func (m *Manager) WindowBytes() *flowctl.Window { return m.winB }

// Epoch returns the current configuration epoch.
func (m *Manager) Epoch() uint64 {
	m.state.Lock()
	defer m.state.Unlock()
	return m.state.epoch
}

// ConfigName returns the name of the deployed configuration.
func (m *Manager) ConfigName() string {
	m.state.Lock()
	defer m.state.Unlock()
	return m.state.configName
}

// Group returns the hosted group this manager serves ("" on single-group
// nodes).
func (m *Manager) Group() string { return m.cfg.Group }

// Members returns the membership of the deployed configuration.
func (m *Manager) Members() []appia.NodeID {
	m.state.Lock()
	defer m.state.Unlock()
	return append([]appia.NodeID(nil), m.state.members...)
}

// ViewMembers returns the membership of the data channel's most recently
// installed view — the live set, which mid-epoch view changes (evictions,
// late-join admissions, leaves) update while Members keeps reporting the
// epoch's deploy-time bootstrap list. Falls back to Members before the
// first install of an epoch.
func (m *Manager) ViewMembers() []appia.NodeID {
	m.state.Lock()
	defer m.state.Unlock()
	if m.state.viewMembers == nil {
		return append([]appia.NodeID(nil), m.state.members...)
	}
	return append([]appia.NodeID(nil), m.state.viewMembers...)
}

// Channel returns the live data channel (nil before the first Deploy).
func (m *Manager) Channel() *appia.Channel {
	m.state.Lock()
	defer m.state.Unlock()
	return m.state.ch
}

// Deploy builds and starts the data channel from the document, replacing
// nothing — it is the initial deployment. Epoch starts at 1 unless the
// caller passes a later one.
func (m *Manager) Deploy(doc *appiaxml.Document, configName string, epoch uint64, members []appia.NodeID) error {
	ch, err := m.build(doc, epoch, members)
	if err != nil {
		return err
	}
	if err := ch.Start(); err != nil {
		return err
	}
	if !ch.WaitReady(m.cfg.quiesceTimeout()) {
		return fmt.Errorf("stack: channel for epoch %d never became ready", epoch)
	}
	m.state.Lock()
	if m.state.closed {
		m.state.Unlock()
		_ = ch.Close()
		return ErrClosed
	}
	m.state.ch = ch
	m.state.epoch = epoch
	m.state.configName = configName
	m.state.members = append([]appia.NodeID(nil), members...)
	m.state.viewMembers = nil // fresh epoch: live set = deploy list until a view installs
	m.state.doc = doc
	m.state.windowed = m.channelWindowed(ch)
	m.state.Unlock()
	return nil
}

// channelWindowed reports whether a channel contains the credit-releasing
// reliable layer (and windowing is on at all).
func (m *Manager) channelWindowed(ch *appia.Channel) bool {
	return (m.win != nil || m.winB != nil) && ch.SessionFor("group.nak") != nil
}

// CurrentDocument returns the deployed configuration document (nil before
// the first Deploy). The control plane uses it for membership-repair
// redeployments of the same configuration.
func (m *Manager) CurrentDocument() *appiaxml.Document {
	m.state.Lock()
	defer m.state.Unlock()
	return m.state.doc
}

// build instantiates the channel for an epoch.
func (m *Manager) build(doc *appiaxml.Document, epoch uint64, members []appia.NodeID) (*appia.Channel, error) {
	spec, err := doc.Channel(m.cfg.channelName())
	if err != nil {
		return nil, err
	}
	env := &appiaxml.Env{
		Node:      m.cfg.Node,
		Self:      m.cfg.Self,
		Group:     m.cfg.Group,
		Members:   group.NormalizeMembers(append([]appia.NodeID(nil), members...)),
		Port:      m.cfg.portFor(epoch),
		Registry:  m.cfg.Events,
		Scheduler: m.cfg.Scheduler,
		Deliver:   m.deliver,
		Logf:      m.cfg.logf,
		Clock:     m.cfg.clock(),
	}
	if m.win != nil {
		env.Window = m.win
		env.SendWindow = m.win.Capacity()
	}
	if m.winB != nil {
		env.BytesWindow = m.winB
		env.SendWindowBytes = m.winB.Capacity()
	}
	return appiaxml.BuildChannel(spec, m.reg, env)
}

// deliver fans channel upcalls out to the application and the manager's
// own lifecycle tracking.
func (m *Manager) deliver(ev appia.Event) {
	switch e := ev.(type) {
	case *group.Quiescent:
		m.state.Lock()
		m.state.quiescentSeen = true
		q := m.state.quiesced
		m.state.Unlock()
		if q != nil {
			select {
			case <-q:
			default:
				close(q)
			}
		}
	case *group.ViewInstall:
		m.state.Lock()
		m.state.viewMembers = append([]appia.NodeID(nil), e.View.Members...)
		m.state.Unlock()
		if m.cfg.OnViewChange != nil {
			m.cfg.OnViewChange(e.View)
		}
	case *group.BlockOk:
		// informational only
	case group.Caster:
		cb := e.CastBase()
		// Stamp the group tag here as well as in the reliable layer: some
		// configurations (FEC) deliver casts without passing group.nak.
		cb.Group = m.cfg.Group
		if m.cfg.OnDeliver != nil {
			m.cfg.OnDeliver(cb)
		}
	}
}

// sendMode selects how submit waits for a send-window credit.
type sendMode int

const (
	sendBlock sendMode = iota
	sendTry
	sendCtx
)

// Send multicasts an application payload on the data channel. During a
// reconfiguration the payload is buffered and re-submitted on the new
// stack, so the application keeps its transparent-adaptation interface.
// With windowing enabled Send blocks (through the group's clock) while
// the send window is full or the scheduler mailbox is saturated; it must
// therefore not be called from the group's own scheduler goroutine
// (delivery callbacks) — use TrySend there. After Close or a group Leave
// it returns ErrGroupClosed.
func (m *Manager) Send(payload []byte) error {
	return m.submit(payload, sendBlock, nil)
}

// SendContext is Send bounded by ctx: a blocked send returns ctx.Err()
// once the context is done. (Under a virtual clock a context deadline is
// wall time; prefer Send or TrySend in deterministic runs.)
func (m *Manager) SendContext(ctx context.Context, payload []byte) error {
	return m.submit(payload, sendCtx, ctx)
}

// TrySend is the non-blocking Send: it returns ErrWindowFull instead of
// waiting when the send window is exhausted or the mailbox is saturated.
func (m *Manager) TrySend(payload []byte) error {
	return m.submit(payload, sendTry, nil)
}

func (m *Manager) submit(payload []byte, mode sendMode, ctx context.Context) error {
	m.state.Lock()
	if m.state.closed {
		m.state.Unlock()
		return ErrGroupClosed
	}
	if m.state.ch == nil {
		m.state.Unlock()
		return ErrNotDeployed
	}
	m.state.Unlock()

	// 1. Send-window credit. The credit is held until the reliable layer
	// confirms group-wide delivery (or the payload provably dies with its
	// group), bounding total in-flight retention.
	var err error
	switch mode {
	case sendTry:
		err = m.win.TryAcquire()
	case sendCtx:
		err = m.win.AcquireContext(ctx)
	default:
		err = m.win.Acquire()
	}
	if err != nil {
		if errors.Is(err, flowctl.ErrWindowClosed) {
			return ErrGroupClosed
		}
		return err // ErrWindowFull or the context's error
	}
	credit := m.win != nil

	// Byte credits, acquired strictly after the message credit (the fixed
	// order rules out deadlock between the two windows). The clamped cost
	// is remembered so acquire and release always move the same amount.
	cost := 0
	if m.winB != nil {
		cost = m.winB.Clamp(m.cfg.SendCost.Cost("data", len(payload)))
		switch mode {
		case sendTry:
			err = m.winB.TryAcquireN(cost)
		case sendCtx:
			err = m.winB.AcquireContextN(ctx, cost)
		default:
			err = m.winB.AcquireN(cost)
		}
		if err != nil {
			if credit {
				m.win.Release(1)
			}
			if errors.Is(err, flowctl.ErrWindowClosed) {
				return ErrGroupClosed
			}
			return err
		}
	}
	release := func() {
		if credit {
			m.win.Release(1)
		}
		if cost > 0 {
			m.winB.Release(cost)
		}
	}

	// 2. Mailbox admission: the bounded-mailbox gate asserts exactly this
	// external-ingress path; intra-stack and network insertions stay
	// non-blocking (see appia.Scheduler.SetMailboxBounds).
	for {
		gate := m.cfg.Scheduler.AdmitExternal()
		if gate == nil {
			break
		}
		if mode == sendTry {
			release()
			return ErrWindowFull
		}
		if mode == sendCtx && ctx != nil {
			// SendContext's contract holds at this gate too.
			if err := ctx.Err(); err != nil {
				release()
				return err
			}
			flowctl.WaitGate(m.cfg.clock(), gate, ctx)
			continue
		}
		m.cfg.clock().Wait(gate)
	}

	// 3. Insert, handling the teardown/reconfiguration races.
	var prev *appia.Channel
	for {
		m.state.Lock()
		if m.state.closed {
			m.state.Unlock()
			release()
			return ErrGroupClosed
		}
		if m.state.ch == nil {
			m.state.Unlock()
			release()
			return ErrNotDeployed
		}
		if m.state.reconfig || m.state.ch == prev {
			// Reconfiguring (or the channel closed under us without the
			// state advancing yet): buffer for resubmission on the new
			// stack. The credit rides along with the buffered payload.
			cp := make([]byte, len(payload))
			copy(cp, payload)
			m.state.buffered = append(m.state.buffered, heldSend{payload: cp, credit: credit, bytes: cost})
			m.state.Unlock()
			return nil
		}
		ch := m.state.ch
		windowed := m.state.windowed
		m.state.Unlock()

		ev := &group.CastEvent{}
		ev.Msg = appia.NewMessage(payload)
		ev.Windowed = (credit || cost > 0) && windowed
		if ev.Windowed {
			ev.WindowBytes = cost
		}
		err := ch.Insert(ev, appia.Down)
		if errors.Is(err, appia.ErrChannelClosed) {
			// Raced a teardown: loop to learn whether this was a
			// reconfiguration (buffer) or a close (ErrGroupClosed).
			prev = ch
			continue
		}
		if err != nil {
			release()
			return err
		}
		if (credit || cost > 0) && !windowed {
			// No stability plane on this stack to return the credits: the
			// send is fire-and-forget, so the credits come straight back.
			release()
		}
		return nil
	}
}

// Reconfigure performs the full §3.3 procedure synchronously:
//
//  1. stop accepting new sends (buffer them),
//  2. trigger a holding view change on the data channel — the
//     view-synchronous flush leaves every member with the same delivered
//     set and the channel quiescent,
//  3. tear the old channel down,
//  4. build and start the new configuration (fresh epoch port),
//  5. release buffered sends on the new stack.
//
// It must be called from a non-scheduler goroutine (Core spawns one per
// reconfiguration).
func (m *Manager) Reconfigure(doc *appiaxml.Document, configName string, epoch uint64, members []appia.NodeID) error {
	m.state.Lock()
	if epoch <= m.state.epoch {
		m.state.Unlock()
		return fmt.Errorf("%w: %d <= %d", ErrStaleEpoch, epoch, m.state.epoch)
	}
	if m.state.ch == nil {
		m.state.Unlock()
		return ErrNotDeployed
	}
	old := m.state.ch
	oldWindowed := m.state.windowed
	m.state.reconfig = true
	q := make(chan struct{})
	m.state.quiesced = q
	already := m.state.quiescentSeen
	m.state.Unlock()

	// Quiesce: every node injects the trigger, scoped to the membership
	// Core knows to be alive, so the flush makes progress even if the
	// data channel's own coordinator died. The channel may already be
	// quiescent if another node's flush outran this node's Prepare.
	if !already {
		trigger := &group.TriggerFlush{Hold: true, Members: append([]appia.NodeID(nil), members...)}
		if err := old.Insert(trigger, appia.Down); err != nil && !errors.Is(err, appia.ErrChannelClosed) {
			m.cfg.logf("stack[%d]: trigger flush: %v", m.cfg.Self, err)
		}
		if !m.cfg.clock().WaitTimeout(q, m.cfg.quiesceTimeout()) {
			m.cfg.logf("stack[%d]: quiescence timeout at epoch %d; force-closing", m.cfg.Self, epoch)
		}
	}
	if err := old.Close(); err != nil {
		m.cfg.logf("stack[%d]: close old channel: %v", m.cfg.Self, err)
	}
	// Rescue casts the old channel's GMS was still holding: a send that
	// raced a *remotely initiated* flush lands in the GMS pending buffer
	// (blocked) before this node's Core has even set the manager to
	// buffering mode, and would otherwise die with the channel. They never
	// reached the reliable layer (so the teardown release above did not
	// cover their credits — they keep them through the buffer), and
	// resubmitting them on the new stack is lossless and duplicate-free.
	// Prepended: they predate everything buffered after the Prepare
	// arrived.
	if rescued := pendingPayloads(old); len(rescued) > 0 {
		held := make([]heldSend, len(rescued))
		for i, p := range rescued {
			held[i] = heldSend{payload: p, credit: oldWindowed && m.win != nil}
			if oldWindowed && m.winB != nil {
				// The byte cost is a pure function of the payload, so the
				// rescued cast re-derives exactly what submit charged.
				held[i].bytes = m.winB.Clamp(m.cfg.SendCost.Cost("data", len(p)))
			}
		}
		m.state.Lock()
		m.state.buffered = append(held, m.state.buffered...)
		m.state.Unlock()
	}
	// Fold the dead epoch's retention high-water marks into the running
	// aggregate (reading the closed channel's session is safe, as above).
	m.mergeNakStats(old)

	ch, err := m.build(doc, epoch, members)
	if err != nil {
		m.finishReconfig(nil, nil, "", epoch, nil)
		return err
	}
	if err := ch.Start(); err != nil {
		m.finishReconfig(nil, nil, "", epoch, nil)
		return err
	}
	ch.WaitReady(m.cfg.quiesceTimeout())
	m.finishReconfig(ch, doc, configName, epoch, members)
	return nil
}

// finishReconfig installs the new channel and flushes buffered sends.
func (m *Manager) finishReconfig(ch *appia.Channel, doc *appiaxml.Document, configName string, epoch uint64, members []appia.NodeID) {
	m.state.Lock()
	if m.state.closed {
		// Raced with Close: the group is gone — do not install (that would
		// re-bind its ports); discard the freshly built channel instead.
		// Buffered credits are surrendered with it (the window is closed,
		// the release is bookkeeping only).
		m.state.reconfig = false
		m.state.quiesced = nil
		discarded := m.state.buffered
		m.state.buffered = nil
		m.state.Unlock()
		m.releaseHeld(discarded)
		if ch != nil {
			_ = ch.Close()
		}
		return
	}
	if ch == nil {
		// Rebuild failed with the old channel already gone. Keep the
		// buffered sends (including any rescued GMS-pending casts, and
		// their window credits) for the next epoch's attempt rather than
		// dropping them silently, and remember the channel is trivially
		// quiescent so that attempt does not stall on a flush of a closed
		// channel.
		held := len(m.state.buffered)
		m.state.reconfig = false
		m.state.quiesced = nil
		m.state.quiescentSeen = true
		m.state.Unlock()
		m.cfg.logf("stack[%d]: epoch %d rebuild failed; holding %d buffered sends for the next deployment",
			m.cfg.Self, epoch, held)
		return
	}
	windowed := m.channelWindowed(ch)
	m.state.ch = ch
	m.state.configName = configName
	m.state.epoch = epoch
	m.state.members = append([]appia.NodeID(nil), members...)
	m.state.viewMembers = nil // fresh epoch: live set = deploy list until a view installs
	m.state.doc = doc
	m.state.windowed = windowed
	m.state.reconfig = false
	m.state.quiesced = nil
	m.state.quiescentSeen = false // fresh channel, fresh lifecycle
	buffered := m.state.buffered
	m.state.buffered = nil

	// Resubmit the buffered sends before the lock drops: a concurrent Send
	// that observes the new channel must queue behind them, or it would
	// overtake them and break per-origin FIFO. Insert only posts to the
	// scheduler mailbox, so holding the lock across it cannot block.
	var refund []heldSend
	for _, hs := range buffered {
		ev := &group.CastEvent{}
		ev.Msg = appia.NewMessage(hs.payload)
		// Credits held through the buffer transfer to the new stack's
		// reliable layer; on an unwindowed stack they return below.
		ev.Windowed = (hs.credit || hs.bytes > 0) && windowed
		if ev.Windowed {
			ev.WindowBytes = hs.bytes
		}
		if err := ch.Insert(ev, appia.Down); err != nil {
			m.cfg.logf("stack[%d]: resubmit buffered send: %v", m.cfg.Self, err)
			refund = append(refund, hs)
			continue
		}
		if (hs.credit || hs.bytes > 0) && !windowed {
			refund = append(refund, hs)
		}
	}
	m.state.Unlock()
	// Credits go back after the lock drops, so the windows' locks never
	// nest inside the state lock.
	m.releaseHeld(refund)
}

// releaseHeld returns the credits of buffered sends that no reliable
// layer will release: discarded ones, and ones resubmitted onto a stack
// without a stability plane.
func (m *Manager) releaseHeld(held []heldSend) {
	n, b := 0, 0
	for _, hs := range held {
		if hs.credit {
			n++
		}
		b += hs.bytes
	}
	m.win.Release(n)
	if b > 0 {
		m.winB.Release(b)
	}
}

// pendingPayloads extracts application casts stranded in a closed
// channel's GMS pending buffer. Only pure CastEvents are rescued: control
// subtypes (ordering batches, flush traffic) are stale the moment the
// epoch changes and are regenerated by the new stack. Reading the session
// is safe here because Close has completed — the closed-channel handoff
// orders this read after the scheduler's last touch.
func pendingPayloads(ch *appia.Channel) [][]byte {
	type pender interface{ Pending() []appia.Event }
	gs, ok := ch.SessionFor("group.gms").(pender)
	if !ok {
		return nil
	}
	var out [][]byte
	for _, ev := range gs.Pending() {
		ce, ok := ev.(*group.CastEvent)
		if !ok || ce.Dest != appia.NoNode || ce.Msg == nil {
			continue
		}
		out = append(out, append([]byte(nil), ce.Msg.Bytes()...))
	}
	return out
}

// Close tears down the current channel and marks the manager closed: an
// in-flight reconfiguration that completes afterwards discards its new
// channel instead of installing it. Sends blocked on the window or
// submitted afterwards fail with ErrGroupClosed.
func (m *Manager) Close() error {
	m.state.Lock()
	ch := m.state.ch
	m.state.ch = nil
	m.state.closed = true
	discarded := m.state.buffered
	m.state.buffered = nil
	m.state.Unlock()
	var err error
	if ch != nil {
		err = ch.Close()
		m.mergeNakStats(ch)
	}
	m.releaseHeld(discarded)
	m.win.Close()
	m.winB.Close()
	return err
}

// nakStatser is the stats surface of the reliable layer's session.
type nakStatser interface{ Stats() group.NakStats }

// mergeNakStats folds a (closed) channel's retention marks into the
// running aggregate, exactly once per channel.
func (m *Manager) mergeNakStats(ch *appia.Channel) {
	ns, ok := ch.SessionFor("group.nak").(nakStatser)
	if !ok {
		return
	}
	st := ns.Stats()
	m.state.Lock()
	if m.state.nakMerged != ch {
		m.state.nakBase = m.state.nakBase.Merge(st)
		m.state.nakMerged = ch
	}
	m.state.Unlock()
}

// FlowStats is the manager's flow-control observability surface: the send
// window's credit counters, the group scheduler's mailbox depth marks,
// and the reliable layer's retention high-water marks aggregated across
// configuration epochs. Under a virtual clock every field is a
// deterministic function of the run.
type FlowStats struct {
	Window flowctl.Stats
	// WindowBytes is the byte-denominated window's counters (zero value
	// when byte windowing is disabled).
	WindowBytes      flowctl.Stats
	MailboxDepth     int
	MailboxHighWater int
	Nak              group.NakStats
	// BufferedSends is the resubmit buffer's current length (each entry
	// holds a window credit on windowed stacks).
	BufferedSends int
}

// FlowStats snapshots the group's flow-control state (any goroutine).
func (m *Manager) FlowStats() FlowStats {
	fs := FlowStats{
		Window:           m.win.Stats(),
		WindowBytes:      m.winB.Stats(),
		MailboxDepth:     m.cfg.Scheduler.MailboxDepth(),
		MailboxHighWater: m.cfg.Scheduler.MailboxHighWater(),
	}
	m.state.Lock()
	ch := m.state.ch
	merged := m.state.nakMerged
	fs.Nak = m.state.nakBase
	fs.BufferedSends = len(m.state.buffered)
	m.state.Unlock()
	// During a reconfiguration (and after a failed rebuild) state.ch still
	// points at the torn-down channel whose marks are already folded into
	// nakBase — merging it again would double-count Evicted.
	if ch != nil && ch != merged {
		if ns, ok := ch.SessionFor("group.nak").(nakStatser); ok {
			fs.Nak = fs.Nak.Merge(ns.Stats())
		}
	}
	return fs
}
