// Package morpheus is a Go reproduction of the Morpheus middleware
// framework from "Context Adaptation of the Communication Stack" (Mocito,
// Rosa, Almeida, Miranda, Rodrigues, Lopes — DI/FCUL TR-05-5, 2005).
//
// Morpheus supports communication protocols that adapt at run time to the
// *distributed* execution context. It combines:
//
//   - a protocol composition and execution kernel in the style of Appia
//     (internal/appia) with XML-described, runtime-instantiable channels
//     (internal/appia/appiaxml);
//   - Cocaditem, a context capture and dissemination sub-system
//     (internal/cocaditem);
//   - Core, a control and reconfiguration sub-system whose coordinator
//     applies global adaptation policies and redeploys protocol stacks
//     through view-synchronous quiescence (internal/core, internal/stack);
//   - adaptive protocols, notably the Mecho best-effort multicast
//     (internal/mecho) that relays mobile traffic through fixed nodes.
//
// This package is the façade, and a Node is a *group-hosting runtime*: one
// process participates in any number of concurrently hosted groups, each
// with its own membership, protocol stack, configuration epoch and
// adaptation policies, while sharing a single network endpoint, context
// sensor plane, control scheduler and failure detector. Start assembles
// the shared control plane plus a default group from Config.Members;
// Node.Join adds further groups at run time, each returning a Group handle
// (Send / Leave / per-group traffic counters). Any substrate implementing
// netio.Endpoint works: the virtual testbed (internal/vnet), the
// in-process loopback (internal/netio/loopnet), or real UDP sockets
// (internal/netio/udpnet). Config.Endpoint selects the substrate; the
// World/ID/Kind/Segments fields remain as the vnet convenience path the
// experiments use.
package morpheus

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"

	"time"

	"morpheus/internal/appia"
	"morpheus/internal/appia/appiaxml"
	"morpheus/internal/clock"
	"morpheus/internal/cocaditem"
	"morpheus/internal/core"
	"morpheus/internal/group"
	"morpheus/internal/netio"
	"morpheus/internal/stack"
	"morpheus/internal/transport"
	"morpheus/internal/vnet"
)

// Re-exported fundamental types, so applications rarely need the internal
// import paths.
type (
	// NodeID identifies a participant.
	NodeID = appia.NodeID
	// View is an agreed group membership epoch.
	View = group.View
	// CastEvent is a delivered group multicast (origin, sequence number,
	// group tag, payload).
	CastEvent = group.CastEvent
	// Sample is one context observation.
	Sample = cocaditem.Sample
	// Policy decides when and how to adapt.
	Policy = core.Policy
	// Decision is a policy verdict.
	Decision = core.Decision
	// PolicyInput is what policies evaluate.
	PolicyInput = core.PolicyInput
	// Document is an XML channel description.
	Document = appiaxml.Document
	// World is the simulated network.
	World = vnet.World
	// Endpoint is a node's attachment to any network substrate.
	Endpoint = netio.Endpoint
	// Network is a substrate's endpoint factory.
	Network = netio.Network
	// Kind classifies devices as fixed or mobile.
	Kind = netio.Kind
	// Counters is a snapshot of class-keyed traffic counts.
	Counters = netio.Counters
	// Clock is a node's time plane (internal/clock): the wall clock for
	// live runs, or a deterministic virtual clock for bit-reproducible
	// experiments.
	Clock = clock.Clock
	// VirtualClock is the deterministic discrete-event clock.
	VirtualClock = clock.Virtual
	// FlowStats is a group's flow-control observability snapshot: send
	// window credits, scheduler mailbox depth marks, reliable-layer
	// retention high-water marks.
	FlowStats = stack.FlowStats
)

// DefaultSendWindow is the send-window capacity used when SendWindow is 0.
const DefaultSendWindow = stack.DefaultSendWindow

// WallClock returns the process-wide wall clock.
func WallClock() Clock { return clock.Wall() }

// NewVirtualClock returns a deterministic virtual clock; see clock.Virtual
// for the actor discipline it imposes. Pair it with NewWorldWithClock and
// stop it once the run's results are harvested.
func NewVirtualClock() *VirtualClock { return clock.NewVirtual() }

// NewWorldWithClock creates a simulated network on an explicit time plane;
// nodes started on it inherit the clock.
func NewWorldWithClock(seed int64, clk Clock) *World {
	return vnet.NewWorldWithClock(seed, clk)
}

// Device kinds.
const (
	Fixed  = netio.Fixed
	Mobile = netio.Mobile
)

// Message delivery classes (transmission accounting).
const (
	ClassData    = appia.ClassData
	ClassControl = appia.ClassControl
)

// DefaultGroup is the name of the group Start joins implicitly from
// Config.Members; Node.Send and friends operate on it.
const DefaultGroup = core.DefaultGroup

// NewWorld creates a simulated network with a deterministic seed.
func NewWorld(seed int64) *World { return vnet.NewWorld(seed) }

// Config assembles one Morpheus node.
type Config struct {
	// Endpoint is the node's network attachment on any netio substrate
	// (udpnet for live runs, loopnet for tests, a pre-built vnet node).
	// When set it wins: World, ID, Kind, Segments and Energy are ignored
	// and identity is read from the endpoint.
	Endpoint Endpoint
	// World is the virtual network the node lives in — the vnet
	// convenience path: Start attaches the endpoint itself from ID, Kind,
	// Segments and Energy. Ignored when Endpoint is set.
	World *World
	// ID is the node's identifier; the lowest ID in the control group is
	// the adaptation coordinator.
	ID NodeID
	// Kind is the device class (Fixed or Mobile).
	Kind Kind
	// Segments attaches the node to network segments; the first is
	// primary. Defaults to ["lan"] for fixed and ["wlan"] for mobile.
	Segments []string
	// Energy, when non-nil, meters the node's battery.
	Energy *netio.EnergyConfig
	// Clock is the node's time plane: every timer-driven layer (scheduler
	// timeouts, heartbeats and failure detection, NAK keepalives, context
	// sampling, policy ticks) runs on it. Nil defaults to the endpoint's
	// clock when the substrate has one (a vnet world built with
	// NewWorldWithClock — so nodes on a virtual-clock world virtualize
	// automatically), and to the wall clock otherwise.
	Clock Clock
	// Members is the bootstrap membership of the control group and of the
	// default data group.
	Members []NodeID
	// NoDefaultGroup starts the node without the implicit default group: a
	// pure control-plane bootstrap for processes that enter every group
	// late via JoinVia (typically with Members of just the node itself, the
	// singleton control group a control-plane JoinVia then grows out of).
	NoDefaultGroup bool
	// InitialConfig is the default group's first data stack (default
	// core.PlainConfig).
	InitialConfig *Document
	// InitialConfigName names it (default "plain").
	InitialConfigName string
	// Policies drive the default group's adaptation; leave empty for a
	// non-adaptive node.
	Policies []Policy
	// Retrievers adds context sources beyond the built-in battery and
	// device-class retrievers.
	Retrievers []cocaditem.Retriever
	// ContextInterval is the Cocaditem sampling period (default 100ms).
	ContextInterval time.Duration
	// PublishOnChange reduces context traffic to changes plus keepalives.
	PublishOnChange bool
	// EvalInterval is the Core policy evaluation period (default 200ms).
	EvalInterval time.Duration
	// OnMessage receives application payloads delivered by the default
	// group (on the group's scheduler goroutine: return quickly).
	OnMessage func(from NodeID, payload []byte)
	// OnViewChange observes default group views.
	OnViewChange func(v View)
	// OnReconfigured observes completed default-group reconfigurations
	// (coordinator only).
	OnReconfigured func(epoch uint64, configName string, took time.Duration)
	// QuiesceTimeout bounds reconfiguration flushes (default 5s).
	QuiesceTimeout time.Duration
	// Heartbeat configures the control group failure detector period.
	Heartbeat time.Duration
	// SuspectAfter is the control group failure detection threshold.
	SuspectAfter time.Duration
	// NackDelay tunes the control channel's retransmission timer.
	NackDelay time.Duration
	// StableInterval tunes the control channel's stability gossip period.
	// Negative values are rejected by Start: disabling stability gossip
	// would let the control channel's retransmission buffers grow without
	// bound (see group.NakConfig.UnboundedBuffers for the test-only
	// escape hatch at the layer level).
	StableInterval time.Duration
	// SendWindow is the default group's send window: the maximum
	// application casts in flight before Send blocks (TrySend returns
	// ErrWindowFull). 0 means DefaultSendWindow; negative disables
	// windowing. See GroupConfig.SendWindow.
	SendWindow int
	// SendWindowBytes is the default group's byte-denominated send
	// window. See GroupConfig.SendWindowBytes. 0 disables it.
	SendWindowBytes int
	// SchedulerWorkers sizes the node's shared scheduler pool: the fixed
	// set of worker goroutines that execute every hosted group's protocol
	// stack (the control plane runs on a worker of its own, so heartbeats
	// and adaptation never queue behind data traffic). Group count and
	// worker count are decoupled — a node hosting 1,000 groups runs the
	// same few goroutines as one hosting 10, and idle groups cost
	// nothing. 0 means GOMAXPROCS, overridable by a worker count in the
	// MORPHEUS_POOL environment variable (the CI determinism matrix uses
	// it); negative values are rejected. Under a virtual clock the pool
	// dispatches deterministically, so experiment results are identical at
	// every setting.
	SchedulerWorkers int
	// Logf receives diagnostics; nil discards them.
	Logf func(format string, args ...any)
}

// GroupConfig describes one hosted group to Join.
type GroupConfig struct {
	// Members is the group's bootstrap membership; every member must join
	// the group under the same name with the same list. Empty means the
	// node's control-group membership.
	Members []NodeID
	// InitialConfig is the group's first stack (default core.PlainConfig).
	// All members must join with the same initial configuration.
	InitialConfig *Document
	// InitialConfigName names it (default "plain").
	InitialConfigName string
	// Policies drive this group's adaptation, evaluated independently of
	// every other group's; empty means a non-adaptive group.
	Policies []Policy
	// QuiesceTimeout bounds this group's reconfiguration flushes
	// (default 5s).
	QuiesceTimeout time.Duration
	// OnMessage receives payloads delivered in this group (on the group's
	// scheduler goroutine: return quickly).
	OnMessage func(from NodeID, payload []byte)
	// OnCast, when set, receives the full delivered cast event (origin,
	// sequence number, group tag) in addition to OnMessage.
	OnCast func(ev *CastEvent)
	// OnViewChange observes the group's data-channel views.
	OnViewChange func(v View)
	// OnReconfigured observes completed reconfigurations of this group
	// (group coordinator only).
	OnReconfigured func(epoch uint64, configName string, took time.Duration)
	// SendWindow bounds this group's in-flight application casts: a
	// credit is consumed by each accepted Send and released once the
	// reliable layer's stability gossip confirms every member delivered
	// the cast, which in turn bounds the scheduler mailbox, the NAK
	// retransmission buffers and the reconfiguration resubmit buffer (the
	// bounded-memory runtime). When the window is full, Send blocks
	// through the group's clock, SendContext honours its context, and
	// TrySend returns ErrWindowFull. 0 means DefaultSendWindow; negative
	// disables windowing (unbounded retention, the pre-flow-control
	// behavior). Configurations without the reliable NAK layer (pure FEC)
	// send unwindowed regardless.
	SendWindow int
	// SendWindowBytes supplements SendWindow with byte-accurate
	// backpressure: each accepted Send also charges its payload length
	// (clamped to the window) against a byte-denominated credit window,
	// released on the same stability watermark as the message credit, so
	// a few large casts exert the same pressure as many small ones and
	// retained bytes — not just retained messages — stay bounded. 0
	// disables the byte window (message credits alone govern).
	SendWindowBytes int
}

// Node is a running Morpheus participant: the shared control plane of a
// group-hosting runtime.
type Node struct {
	cfg      Config
	endpoint Endpoint
	pool     *appia.Pool      // shared executor for every group's stack
	ctlPool  *appia.Pool      // one-worker executor of ctlSched alone
	ctlSched *appia.Scheduler // control-plane scheduler (heartbeats, adaptation)
	ctl      *appia.Channel
	ctx      *cocaditem.Session
	coreSes  *core.Session

	mu      sync.Mutex
	groups  map[string]*Group
	closed  bool
	ctlView View // latest control-group view (updated on the ctl scheduler)
}

// Group is one hosted group on a Node: an independent protocol stack,
// membership, epoch counter and adaptation pipeline sharing the node's
// endpoint and control plane.
type Group struct {
	name    string
	node    *Node
	cfg     GroupConfig
	ep      *groupEndpoint
	sched   *appia.Scheduler
	manager *stack.Manager
}

// Facade errors.
var (
	// ErrNoMembers reports a Start without bootstrap membership.
	ErrNoMembers = errors.New("morpheus: Config.Members must not be empty")
	// ErrBadGroupName reports a Join with an empty or unusable group name.
	ErrBadGroupName = errors.New("morpheus: group name must be non-empty and free of '/' and '@'")
	// ErrGroupExists reports a Join of an already hosted group.
	ErrGroupExists = errors.New("morpheus: group already joined")
	// ErrNodeClosed reports an operation on a closed node.
	ErrNodeClosed = errors.New("morpheus: node closed")
	// ErrNoGroup reports an operation on a group the node does not host.
	ErrNoGroup = errors.New("morpheus: group not joined")
	// ErrGroupClosed reports a send on a group that was left or whose
	// node closed: the payload was NOT accepted. Sends racing Leave/Close
	// return it deterministically (they never buffer into a dead group).
	ErrGroupClosed = stack.ErrGroupClosed
	// ErrWindowFull is TrySend's backpressure signal: the group's send
	// window has no free credit (or the group scheduler's mailbox is
	// saturated).
	ErrWindowFull = stack.ErrWindowFull
)

// ControlPort is the substrate port of the (never reconfigured) control
// channel.
const ControlPort = "ctl"

// PoolStats is a snapshot of the node scheduler pool's dispatch counters.
type PoolStats = appia.PoolStats

// resolveWorkers maps Config.SchedulerWorkers (and the MORPHEUS_POOL
// environment override used by the CI determinism matrix) to a pool size;
// 0 lets NewPool default to GOMAXPROCS.
func resolveWorkers(n int) int {
	if n != 0 {
		return n
	}
	if k, err := strconv.Atoi(os.Getenv("MORPHEUS_POOL")); err == nil && k > 0 {
		return k
	}
	return 0
}

// Start builds, deploys and starts a node: the shared control plane plus
// the default group.
func Start(cfg Config) (*Node, error) {
	if len(cfg.Members) == 0 {
		return nil, ErrNoMembers
	}
	if cfg.StableInterval < 0 {
		// A negative interval silently disables the only mechanism that
		// bounds control-channel retransmission buffers; reject it instead
		// of leaking by default (group.NakConfig.UnboundedBuffers is the
		// layer-level opt-in for short-lived test channels).
		return nil, fmt.Errorf("morpheus: %w", group.ErrUnboundedNak)
	}
	if cfg.SchedulerWorkers < 0 {
		return nil, fmt.Errorf("morpheus: SchedulerWorkers %d is negative", cfg.SchedulerWorkers)
	}
	logf := netio.Logf(cfg.Logf).Or()
	ep := cfg.Endpoint
	if ep == nil {
		// vnet convenience path: attach the endpoint ourselves.
		if cfg.World == nil {
			return nil, errors.New("morpheus: Config.Endpoint or Config.World is required")
		}
		segments := cfg.Segments
		if len(segments) == 0 {
			if cfg.Kind == Mobile {
				segments = []string{"wlan"}
			} else {
				segments = []string{"lan"}
			}
		}
		var err error
		ep, err = cfg.World.Attach(netio.EndpointConfig{
			ID:       cfg.ID,
			Kind:     cfg.Kind,
			Segments: segments,
			Energy:   cfg.Energy,
		})
		if err != nil {
			return nil, err
		}
	} else {
		// Identity lives on the endpoint.
		cfg.ID = ep.ID()
		cfg.Kind = ep.Kind()
	}
	if cfg.Clock == nil {
		// Inherit the substrate's time plane: a vnet world built on a
		// virtual clock virtualizes the whole node.
		if c, ok := ep.(interface{ Clock() clock.Clock }); ok {
			cfg.Clock = c.Clock()
		}
	}
	cfg.Clock = clock.Or(cfg.Clock)

	stack.RegisterAllWireEvents(nil)
	cocaditem.RegisterWireEvents(nil)
	core.RegisterWireEvents(nil)

	n := &Node{
		cfg:      cfg,
		endpoint: ep,
		pool:     appia.NewPool(resolveWorkers(cfg.SchedulerWorkers), cfg.Clock),
		// The control plane gets a worker of its own, so heartbeats and
		// adaptation never queue behind data traffic. A pool rather than an
		// unpooled scheduler: its one long-lived worker keeps a grown
		// stack, where a fresh goroutine per wake-up regrows it each time.
		ctlPool: appia.NewPool(1, cfg.Clock),
		groups:  make(map[string]*Group),
	}
	n.ctlSched = n.ctlPool.NewScheduler()
	// Every scheduler of the node flushes the wire plane when it runs out
	// of work, so a lone frame leaves at once instead of waiting out the
	// substrate's delay bound. One hook per scheduler, not per channel:
	// channels come and go with every reconfiguration epoch.
	n.ctlSched.SetIdleHook(ep.Flush)

	// The default group rides on Config for backwards compatibility: a
	// single-group node keeps the original Start(Members, Policies,
	// OnMessage) shape. Late-joining processes opt out via NoDefaultGroup
	// and enter their groups through JoinVia instead.
	var coreGroups []core.GroupRuntime
	if !cfg.NoDefaultGroup {
		g, err := n.buildGroup(DefaultGroup, GroupConfig{
			Members:           cfg.Members,
			InitialConfig:     cfg.InitialConfig,
			InitialConfigName: cfg.InitialConfigName,
			Policies:          cfg.Policies,
			QuiesceTimeout:    cfg.QuiesceTimeout,
			OnMessage:         cfg.OnMessage,
			OnViewChange:      cfg.OnViewChange,
			OnReconfigured:    cfg.OnReconfigured,
			SendWindow:        cfg.SendWindow,
			SendWindowBytes:   cfg.SendWindowBytes,
		})
		if err != nil {
			n.teardownEarly()
			return nil, fmt.Errorf("morpheus: deploy initial config: %w", err)
		}
		n.groups[DefaultGroup] = g
		coreGroups = []core.GroupRuntime{g.runtime()}
	}

	// Control channel: static composition, never reconfigured (§3.2);
	// Cocaditem and Core share it. Every hosted group hangs off this one
	// channel: one membership service, one failure detector, one context
	// plane, N policy evaluators.
	retrievers := []cocaditem.Retriever{
		cocaditem.BatteryRetriever(ep),
		cocaditem.DeviceClassRetriever(ep),
	}
	retrievers = append(retrievers, cfg.Retrievers...)

	ctlLayers := []appia.Layer{
		transport.NewPTPLayer(transport.Config{Node: ep, Port: ControlPort, Logf: logf}),
		group.NewFanoutLayer(group.FanoutConfig{Self: cfg.ID, InitialMembers: cfg.Members}),
		group.NewNakLayer(group.NakConfig{
			Self:           cfg.ID,
			InitialMembers: cfg.Members,
			NackDelay:      cfg.NackDelay,
			StableInterval: cfg.StableInterval,
		}),
		group.NewGMSLayer(group.GMSConfig{
			Self:              cfg.ID,
			InitialMembers:    cfg.Members,
			EnableFD:          true,
			HeartbeatInterval: cfg.Heartbeat,
			SuspectAfter:      cfg.SuspectAfter,
			Clock:             cfg.Clock,
			OnView:            n.onCtlView,
		}),
		cocaditem.NewLayer(cocaditem.Config{
			Self:            cfg.ID,
			Interval:        cfg.ContextInterval,
			Retrievers:      retrievers,
			PublishOnChange: cfg.PublishOnChange,
			Clock:           cfg.Clock,
		}),
		core.NewLayer(core.Config{
			Self:         cfg.ID,
			Groups:       coreGroups,
			EvalInterval: cfg.EvalInterval,
			Clock:        cfg.Clock,
			Logf:         logf,
		}),
	}
	qos, err := appia.NewQoS("control", ctlLayers...)
	if err != nil {
		n.teardownEarly()
		return nil, err
	}
	n.ctl = qos.CreateChannel("ctl", n.ctlSched)
	if err := n.ctl.Start(); err != nil {
		n.teardownEarly()
		return nil, err
	}
	if !n.ctl.WaitReady(5 * time.Second) {
		n.teardownEarly()
		return nil, errors.New("morpheus: control channel never became ready")
	}
	if s, ok := n.ctl.SessionFor("cocaditem").(*cocaditem.Session); ok {
		n.ctx = s
	}
	if s, ok := n.ctl.SessionFor("core").(*core.Session); ok {
		n.coreSes = s
	}
	return n, nil
}

// teardownEarly releases partially-started resources.
func (n *Node) teardownEarly() {
	for _, g := range n.groups {
		if g != nil {
			g.teardown()
		}
	}
	n.closeExecutors()
}

// closeExecutors stops the control-plane scheduler and both pools. It runs
// last in every teardown: every group scheduler has fully drained by then,
// so the workers are idle.
func (n *Node) closeExecutors() {
	n.ctlSched.Close()
	n.ctlPool.Close()
	n.pool.Close()
}

// buildGroup constructs and deploys one hosted group: its own scheduler
// (so one group's backlog never delays another's, nor the control plane),
// its own stack manager in the group's port namespace, and a per-group
// transmission-accounting view of the shared endpoint.
func (n *Node) buildGroup(name string, gc GroupConfig) (*Group, error) {
	members := gc.Members
	if len(members) == 0 {
		members = n.cfg.Members
	}
	// Normalized once here: the group's effective view, its coordinator
	// election and the protocol layers all assume a sorted, deduplicated
	// membership.
	members = group.NormalizeMembers(append([]NodeID(nil), members...))
	gc.Members = members
	initialDoc := gc.InitialConfig
	initialName := gc.InitialConfigName
	if initialDoc == nil {
		initialDoc = core.PlainConfig()
		initialName = core.PlainConfigName
	}
	if initialName == "" {
		initialName = "custom"
	}
	return n.buildGroupAt(name, gc, initialDoc, initialName, 1, members)
}

// buildGroupAt is buildGroup with the deployment pinned: the stack comes up
// running configuration doc at the given epoch with deployMembers as its
// bootstrap view. The two member lists differ only for a late joiner, which
// deploys a singleton view of itself (gc.Members carries the full configured
// membership it is about to be admitted into) and lets the join protocol
// grow the view instead of colliding with the survivors' sequence spaces.
func (n *Node) buildGroupAt(name string, gc GroupConfig, doc *Document, configName string, epoch uint64, deployMembers []NodeID) (*Group, error) {
	if name == "" || strings.ContainsAny(name, "/@") {
		return nil, ErrBadGroupName
	}
	logf := netio.Logf(n.cfg.Logf).Or()
	g := &Group{
		name: name,
		node: n,
		ep:   &groupEndpoint{Endpoint: n.endpoint},
	}
	g.sched = n.pool.NewScheduler()
	g.sched.SetIdleHook(n.endpoint.Flush)
	g.manager = stack.NewManager(stack.ManagerConfig{
		Node:            g.ep,
		Self:            n.cfg.ID,
		Group:           name,
		Scheduler:       g.sched,
		QuiesceTimeout:  gc.QuiesceTimeout,
		SendWindow:      gc.SendWindow,
		SendWindowBytes: gc.SendWindowBytes,
		Clock:           n.cfg.Clock,
		OnDeliver: func(ev *group.CastEvent) {
			if gc.OnCast != nil {
				gc.OnCast(ev)
			}
			if gc.OnMessage != nil {
				gc.OnMessage(ev.Origin, ev.Msg.Bytes())
			}
		},
		OnViewChange: gc.OnViewChange,
		Logf:         logf,
	})
	if win := g.manager.Window(); win != nil {
		// Bounded-mailbox mode rides along with the send window: external
		// ingress (this group's sends) is gated once the mailbox holds
		// several windows' worth of hops, while intra-stack and network
		// insertions stay non-blocking.
		high, low := stack.MailboxBounds(win.Capacity())
		g.sched.SetMailboxBounds(high, low)
	}
	g.cfg = gc
	if err := g.manager.Deploy(doc, configName, epoch, deployMembers); err != nil {
		g.teardown()
		return nil, err
	}
	return g, nil
}

// Join adds the node to a named group: deploys the group's initial stack
// and registers it with the control plane so its policies evaluate (and
// its reconfigurations run) independently of every other hosted group.
// Every member of the group must Join it under the same name with the same
// bootstrap membership and initial configuration, exactly as with
// Config.Members at Start.
func (n *Node) Join(name string, gc GroupConfig) (*Group, error) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil, ErrNodeClosed
	}
	if _, dup := n.groups[name]; dup {
		n.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrGroupExists, name)
	}
	// Reserve the name while the stack deploys outside the lock.
	n.groups[name] = nil
	n.mu.Unlock()

	g, err := n.buildGroup(name, gc)
	if err == nil {
		if rerr := n.coreSes.Register(g.runtime()); rerr != nil {
			g.teardown()
			g, err = nil, rerr
		}
	}
	n.mu.Lock()
	// Re-check closed: a Close that ran while the stack was deploying has
	// already torn down (and replaced) the group map, so this group must
	// not be installed — it would leak its scheduler and keep its ports
	// bound on a dead node.
	if err == nil && n.closed {
		err = ErrNodeClosed
	}
	if err != nil {
		delete(n.groups, name)
		n.mu.Unlock()
		if g != nil {
			n.coreSes.Unregister(name)
			g.teardown()
		}
		return nil, err
	}
	n.groups[name] = g
	n.mu.Unlock()
	return g, nil
}

// JoinVia enters a *running* group late, through one seed member, instead of
// taking part in its bootstrap. The joiner is first admitted to the control
// group (via the seed, if it is not already a control member), announces
// itself to the group's configured membership, fetches the group's current
// deployment (configuration, epoch, members) from the seed, deploys a
// matching stack as a singleton, and asks the group's coordinator for
// admission. Admission arrives as a state transfer: the current view plus
// the delivered-vector frontier, so the joiner starts gap-free at the
// frontier with no history replay. gc.Members and gc.InitialConfig are
// ignored — the running group dictates both.
func (n *Node) JoinVia(name string, seed NodeID, gc GroupConfig) (*Group, error) {
	if seed == appia.NoNode || seed == n.cfg.ID {
		return nil, fmt.Errorf("morpheus: join of %q needs a seed other than self", name)
	}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil, ErrNodeClosed
	}
	if _, dup := n.groups[name]; dup {
		n.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrGroupExists, name)
	}
	// Reserve the name while the join runs outside the lock.
	n.groups[name] = nil
	n.mu.Unlock()

	g, err := n.joinVia(name, seed, gc)
	n.mu.Lock()
	if err == nil && n.closed {
		err = ErrNodeClosed
	}
	if err != nil {
		delete(n.groups, name)
		n.mu.Unlock()
		if g != nil {
			n.coreSes.Unregister(name)
			g.teardown()
		}
		return nil, err
	}
	n.groups[name] = g
	n.mu.Unlock()
	return g, nil
}

// joinVia runs the late-join protocol for JoinVia (the name is already
// reserved). On success the returned group is registered with the control
// plane; on failure the join announcement has been retracted.
func (n *Node) joinVia(name string, seed NodeID, gc GroupConfig) (*Group, error) {
	if name == "" || strings.ContainsAny(name, "/@") {
		return nil, ErrBadGroupName
	}
	clk := n.cfg.Clock
	step := gc.QuiesceTimeout
	if step <= 0 {
		step = 5 * time.Second
	}

	// 1. Control-plane admission. Group membership is slaved to the control
	// group (a data view never admits a node the control plane cannot see),
	// so the joiner must be control-live before any survivor counts it.
	if v := n.CtlView(); !v.Contains(n.cfg.ID) || !v.Contains(seed) {
		if err := n.ctl.Insert(&group.JoinVia{Seed: seed}, appia.Down); err != nil {
			return nil, err
		}
		if !n.waitCtl(step, func(v View) bool {
			return v.Contains(n.cfg.ID) && v.Contains(seed)
		}) {
			return nil, fmt.Errorf("morpheus: control-group admission via %d timed out", seed)
		}
	}

	// 2. Announce the join BEFORE requesting data admission, so no survivor
	// can hold a data view containing us while its configured membership
	// does not — the control plane's membership repair would evict us right
	// back out.
	if err := n.coreSes.AnnounceJoin(name, n.cfg.ID); err != nil {
		return nil, err
	}
	retract := func() { _ = n.coreSes.AnnounceLeave(name, n.cfg.ID) }

	// 3. Discover the deployment and request admission; a reconfiguration
	// racing the join moves the group's port namespace to a new epoch, so an
	// admission timeout re-fetches the deployment and retries there.
	deadline := clk.Now().Add(3 * step)
	for {
		info, ok := n.fetchGroupInfo(seed, name, step)
		if !ok {
			retract()
			return nil, fmt.Errorf("morpheus: no deployment info for group %q from seed %d", name, seed)
		}
		g, admitted, err := n.joinEpoch(name, seed, gc, info, step)
		if err != nil {
			retract()
			return nil, err
		}
		if admitted {
			return g, nil
		}
		g.teardown()
		if clk.Now().After(deadline) {
			retract()
			return nil, fmt.Errorf("morpheus: admission to group %q via %d timed out", name, seed)
		}
	}
}

// joinEpoch deploys the discovered configuration as a singleton and waits for
// the group to install a view admitting this node. admitted=false with a nil
// error means the attempt timed out (likely an epoch race) and the caller
// owns the returned group's teardown.
func (n *Node) joinEpoch(name string, seed NodeID, gc GroupConfig, info core.GroupInfo, step time.Duration) (g *Group, admitted bool, err error) {
	doc, err := appiaxml.ParseString(info.XML)
	if err != nil {
		return nil, false, fmt.Errorf("morpheus: group %q deployment info: %w", name, err)
	}
	full := group.NormalizeMembers(append(append([]NodeID(nil), info.Members...), n.cfg.ID))
	gc.Members = full
	gc.InitialConfig = nil
	gc.InitialConfigName = ""
	g, err = n.buildGroupAt(name, gc, doc, info.ConfigName, info.Epoch, []NodeID{n.cfg.ID})
	if err != nil {
		return nil, false, err
	}
	// Register the runtime with the control plane BEFORE requesting data
	// admission: from the instant the gms can install a view containing this
	// node, a racing reconfiguration (membership repair after a real crash, a
	// policy flip) must be able to reach this node's stack — an unregistered
	// group drops the Prepare, stranding the joiner on a dead epoch while the
	// survivors move on.
	if rerr := n.coreSes.Register(g.runtime()); rerr != nil {
		g.teardown()
		return nil, false, rerr
	}
	// The data-plane seed must be a current data member; fall back to the
	// group's coordinator when the control seed does not host this group.
	dataSeed := seed
	if !info.Contains(seed) && len(info.Members) > 0 {
		dataSeed = info.Members[0]
	}
	if err := g.manager.Channel().Insert(&group.JoinVia{Seed: dataSeed}, appia.Down); err != nil {
		n.coreSes.Unregister(name)
		g.teardown()
		return nil, false, err
	}
	clk := n.cfg.Clock
	deadline := clk.Now().Add(step)
	for {
		// The deploy-time view is the singleton {self}; the admission view
		// delivered by the state transfer is the first with anyone else in it
		// (a racing reconfiguration that already lists us deploys the same
		// multi-member view directly).
		if vm := g.manager.ViewMembers(); len(vm) > 1 {
			return g, true, nil
		}
		if clk.Now().After(deadline) {
			n.coreSes.Unregister(name)
			return g, false, nil
		}
		clk.Sleep(20 * time.Millisecond)
	}
}

// fetchGroupInfo polls the seed for the group's current deployment record.
func (n *Node) fetchGroupInfo(seed NodeID, name string, step time.Duration) (core.GroupInfo, bool) {
	n.coreSes.ForgetGroupInfo(name)
	clk := n.cfg.Clock
	deadline := clk.Now().Add(step)
	for {
		_ = n.coreSes.RequestGroupInfo(seed, name)
		clk.Sleep(50 * time.Millisecond)
		if info, ok := n.coreSes.LastGroupInfo(name); ok {
			return info, true
		}
		if clk.Now().After(deadline) {
			return core.GroupInfo{}, false
		}
	}
}

// onCtlView records each installed control-group view (called on the control
// scheduler).
func (n *Node) onCtlView(v View) {
	n.mu.Lock()
	n.ctlView = v
	n.mu.Unlock()
}

// CtlView returns the latest installed control-group view.
func (n *Node) CtlView() View {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.ctlView.Clone()
}

// waitCtl polls the control view until pred holds or timeout elapses.
func (n *Node) waitCtl(timeout time.Duration, pred func(View) bool) bool {
	clk := n.cfg.Clock
	deadline := clk.Now().Add(timeout)
	for {
		if pred(n.CtlView()) {
			return true
		}
		if clk.Now().After(deadline) {
			return false
		}
		clk.Sleep(20 * time.Millisecond)
	}
}

// Group returns the named hosted group, or nil.
func (n *Node) Group(name string) *Group {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.groups[name]
}

// Groups returns the hosted groups (excluding any mid-Join reservations),
// sorted by name so callers iterate them in a deterministic order.
func (n *Node) Groups() []*Group {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]*Group, 0, len(n.groups))
	for _, g := range n.groups {
		if g != nil {
			out = append(out, g)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// ID returns the node's identifier.
func (n *Node) ID() NodeID { return n.cfg.ID }

// Clock returns the node's time plane.
func (n *Node) Clock() Clock { return n.cfg.Clock }

// Endpoint exposes the node's network attachment (identity, traffic
// counters) on whatever substrate it runs.
func (n *Node) Endpoint() Endpoint { return n.endpoint }

// PoolStats snapshots the node scheduler pool's dispatch counters (worker
// batches, wake-ups, steals).
func (n *Node) PoolStats() PoolStats { return n.pool.Stats() }

// VNode exposes the virtual network attachment (counters, battery, crash
// injection) when the node runs on the vnet convenience path; it returns
// nil for nodes started on another substrate via Config.Endpoint.
func (n *Node) VNode() *vnet.Node {
	vn, _ := n.endpoint.(*vnet.Node)
	return vn
}

// defaultGroup returns the default group, or nil after it was left.
func (n *Node) defaultGroup() *Group { return n.Group(DefaultGroup) }

// Send multicasts an application payload to the default group; during
// reconfigurations it is buffered transparently. On a closed node it
// returns ErrGroupClosed (deterministically — never a silent accept).
func (n *Node) Send(payload []byte) error {
	g := n.defaultGroup()
	if g == nil {
		n.mu.Lock()
		closed := n.closed
		n.mu.Unlock()
		if closed {
			return ErrGroupClosed
		}
		return fmt.Errorf("%w: %q", ErrNoGroup, DefaultGroup)
	}
	return g.Send(payload)
}

// Context exposes the node's Cocaditem store (Latest, Snapshot, Subscribe).
func (n *Node) Context() *cocaditem.Session { return n.ctx }

// Core exposes the node's control-plane session (group registry,
// per-group deployment state).
func (n *Node) Core() *core.Session { return n.coreSes }

// Manager exposes the default group's stack manager.
func (n *Node) Manager() *stack.Manager {
	g := n.defaultGroup()
	if g == nil {
		return nil
	}
	return g.manager
}

// ConfigName returns the default group's deployed configuration.
func (n *Node) ConfigName() string {
	g := n.defaultGroup()
	if g == nil {
		return ""
	}
	return g.ConfigName()
}

// Epoch returns the default group's configuration epoch.
func (n *Node) Epoch() uint64 {
	g := n.defaultGroup()
	if g == nil {
		return 0
	}
	return g.Epoch()
}

// Close stops the node: control channel, then every hosted group.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	groups := make([]*Group, 0, len(n.groups))
	for _, g := range n.groups {
		if g != nil {
			groups = append(groups, g)
		}
	}
	// Tear down in name order: group teardown posts events, and under the
	// virtual clock a map-ordered shutdown would be the run's only
	// schedule nondeterminism.
	sort.Slice(groups, func(i, j int) bool { return groups[i].name < groups[j].name })
	n.groups = make(map[string]*Group)
	n.mu.Unlock()

	var firstErr error
	if n.ctl != nil {
		if err := n.ctl.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for _, g := range groups {
		if err := g.teardown(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	n.closeExecutors()
	return firstErr
}

// --- Group ------------------------------------------------------------------

// runtime describes the group to the control plane.
func (g *Group) runtime() core.GroupRuntime {
	return core.GroupRuntime{
		Group:          g.name,
		Manager:        g.manager,
		Policies:       g.cfg.Policies,
		Members:        g.cfg.Members,
		OnReconfigured: g.cfg.OnReconfigured,
	}
}

// Name returns the group's name.
func (g *Group) Name() string { return g.name }

// Send multicasts an application payload to this group; during the group's
// reconfigurations it is buffered transparently. With the send window
// enabled (the default) it blocks, through the group's clock, while the
// window is full — so it must not be called from the group's own delivery
// callbacks (use TrySend there). After Leave or node Close it returns
// ErrGroupClosed.
func (g *Group) Send(payload []byte) error { return g.manager.Send(payload) }

// SendContext is Send bounded by ctx: a send blocked on the window
// returns ctx.Err() once the context is done. (A context deadline is wall
// time — prefer Send or TrySend under a virtual clock.)
func (g *Group) SendContext(ctx context.Context, payload []byte) error {
	return g.manager.SendContext(ctx, payload)
}

// TrySend is the non-blocking Send: it returns ErrWindowFull instead of
// waiting when the group's send window is exhausted or its scheduler
// mailbox is saturated, and ErrGroupClosed after Leave or node Close.
func (g *Group) TrySend(payload []byte) error { return g.manager.TrySend(payload) }

// FlowStats snapshots the group's flow-control state: send-window credit
// counters, scheduler mailbox depth marks, and the reliable layer's
// retention high-water marks (aggregated across configuration epochs).
func (g *Group) FlowStats() FlowStats { return g.manager.FlowStats() }

// Manager exposes the group's stack manager (epoch, configuration name).
func (g *Group) Manager() *stack.Manager { return g.manager }

// ConfigName returns the group's deployed configuration.
func (g *Group) ConfigName() string { return g.manager.ConfigName() }

// Epoch returns the group's configuration epoch.
func (g *Group) Epoch() uint64 { return g.manager.Epoch() }

// Counters snapshots the group's share of the endpoint's transmissions:
// what this group's stack put on the wire, keyed by class. (Receptions are
// accounted on the shared endpoint only — the per-group view counts cost,
// which is what the paper's Figure 3 measures.)
func (g *Group) Counters() Counters { return g.ep.counters.Snapshot() }

// ResetCounters zeroes the group's transmission counters (between
// experiment phases).
func (g *Group) ResetCounters() { g.ep.counters.Reset() }

// Leave withdraws the node from the group: adaptation stops, the stack is
// torn down, the group's ports unbind. The departure is announced through
// the control plane first, so the survivors install a view excluding this
// node within one stability round — releasing any casts, window credits and
// byte budget held against it — instead of waiting for failure-detector
// eviction. A rejoin under the same name goes through JoinVia.
func (g *Group) Leave() error {
	n := g.node
	n.mu.Lock()
	if n.groups[g.name] != g {
		n.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrNoGroup, g.name)
	}
	delete(n.groups, g.name)
	n.mu.Unlock()
	if n.coreSes != nil {
		n.coreSes.Unregister(g.name)
		// Announced while the leaver's stack is still up: the reliable cast
		// needs its origin alive long enough to reach stability on the
		// control channel, which outlives this group's teardown.
		if err := n.coreSes.AnnounceLeave(g.name, n.cfg.ID); err != nil && n.cfg.Logf != nil {
			n.cfg.Logf("morpheus: leave announcement for %q: %v", g.name, err)
		}
	}
	return g.teardown()
}

// teardown releases the group's resources.
func (g *Group) teardown() error {
	err := g.manager.Close()
	g.sched.Close()
	return err
}

// groupEndpoint is a per-group view of the shared endpoint: sends delegate
// to the substrate and are additionally accounted per group, so a node
// hosting many groups can attribute its radio cost — the quantity Figure 3
// measures — to each one. Self-sends are not accounted, mirroring the
// substrate contract (they never touch the NIC).
type groupEndpoint struct {
	netio.Endpoint
	counters netio.CounterSet
}

// Send implements netio.Endpoint.
func (g *groupEndpoint) Send(dst NodeID, port, class string, payload []byte) error {
	err := g.Endpoint.Send(dst, port, class, payload)
	if err == nil && dst != g.Endpoint.ID() {
		g.counters.AddTx(class, len(payload))
	}
	return err
}

// Multicast implements netio.Endpoint. Unlike Send, there is no self-send
// exemption to mirror: the netio contract (pinned by the conformance
// suite on vnet, loopnet and udpnet alike) counts a native multicast as
// exactly one transmission regardless of the receiver set and never
// delivers it back to the sender, so the unconditional accounting here
// matches the substrate one-for-one — TestGroupEndpointAccountingParity
// asserts the equality on all three backends.
func (g *groupEndpoint) Multicast(segment, port, class string, payload []byte) error {
	err := g.Endpoint.Multicast(segment, port, class, payload)
	if err == nil {
		g.counters.AddTx(class, len(payload))
	}
	return err
}
