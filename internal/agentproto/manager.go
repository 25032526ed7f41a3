package agentproto

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mpr/internal/core"
	"mpr/internal/telemetry"
	"mpr/internal/telemetry/hdr"
)

// Metric names the manager registers.
const (
	// MetricAgentEvents counts agent lifecycle events, labeled "connect",
	// "disconnect", or "rejected".
	MetricAgentEvents = "mpr_agent_events_total"
	// MetricAgentsConnected gauges the currently registered agents.
	MetricAgentsConnected = "mpr_agents_connected"
	// MetricBidRTT is the RespondBid round-trip HDR histogram in
	// seconds: price broadcast to bid receipt, per agent per round.
	// Registered as an hdr.Histogram (log-bucketed, ~1 ns–100 s, ≤3.1%
	// relative error), so tail quantiles are answerable without guessing
	// bucket bounds up front.
	MetricBidRTT = "mpr_agent_bid_rtt_seconds"
	// MetricMalformed counts protocol violations: bad hellos, unexpected
	// message types, stale-round bids, and unclearable bids.
	MetricMalformed = "mpr_agent_malformed_messages_total"
	// MetricMarkets counts finished RunMarket invocations; MetricRounds
	// the price rounds across them.
	MetricMarkets = "mpr_manager_markets_total"
	MetricRounds  = "mpr_manager_rounds_total"
	// MetricBidTimeouts counts unanswered bid requests: one per roster
	// member per round that had not bid when its shard harvested, members
	// that dropped mid-market included — so bids received = agents × rounds
	// − this.
	MetricBidTimeouts = "mpr_manager_bid_timeouts_total"
	// MetricStreamUpdates counts incremental re-clears in streaming
	// markets: one per incoming bid applied to the stream engine.
	MetricStreamUpdates = "mpr_manager_stream_updates_total"
	// MetricEvictions counts slow-agent evictions, labeled by
	// DisconnectReason ("deadline_budget", "write_stall").
	MetricEvictions = "mpr_mgr_evictions_total"
	// MetricCoalescedBids counts bids coalesced away by the one-slot
	// mailboxes: an agent that sends k bids within one round contributes
	// k−1 here and exactly one bid to the clear.
	MetricCoalescedBids = "mpr_mgr_coalesced_bids_total"
	// MetricWireAgents counts registrations by negotiated transport,
	// labeled "json" or "binary".
	MetricWireAgents = "mpr_mgr_wire_agents_total"
)

// A market has converged when a round moves the price by at most
// priceTolerance, relatively (core.Iterate's stop rule).
const priceTolerance = 1e-4

// ManagerConfig parameterizes the market manager daemon.
type ManagerConfig struct {
	// MaxRounds bounds the price iterations per market. Default 50.
	MaxRounds int
	// RoundTimeout bounds how long the manager waits for each round's
	// bids — the paper's safety timeout ("e.g., 30 seconds" overall).
	// It doubles as the write deadline on price/order broadcasts.
	// Default 2 s per round.
	RoundTimeout time.Duration
	// Shards is the number of connection-manager shards. Each shard runs
	// a bounded event loop that owns all writes, bid harvesting, and
	// eviction decisions for its slice of the fleet; agents are assigned
	// round-robin at registration. Clearing prices are bit-identical for
	// any shard count (bids are merged in roster order before the clear
	// — TestShardDeterminism). Default min(GOMAXPROCS, 16).
	Shards int
	// EvictAfterMisses is the slow-agent deadline-miss budget: an agent
	// that misses this many consecutive round deadlines is evicted with
	// ReasonDeadlineBudget (typed error on the wire, counted in
	// mpr_mgr_evictions_total). Default 3; negative disables eviction.
	EvictAfterMisses int
	// Logf, when set, receives protocol diagnostics. Nil is safe and
	// logs nothing — library users need not wire logging.
	Logf func(format string, args ...interface{})
	// Telemetry, when set, receives the manager's connection, latency,
	// and protocol metrics. Nil disables them.
	Telemetry *telemetry.Registry
	// Tracer, when set, receives one "market_round" event per price
	// iteration (trace "m<seq>.r<round>") and one "market_clear" per
	// finished market — the feed behind mprd's /debug/market.
	Tracer *telemetry.Tracer
	// Streaming adds a per-bid price feed: every accepted bid is also
	// applied to a core.StreamMarket, which re-clears incrementally in
	// O(log M) and publishes the would-be clearing price (one
	// "stream_update" trace event each). The wire protocol, the rounds and
	// the round's clear are unchanged, so a fleet clears to the same bits
	// with Streaming on or off.
	Streaming bool
}

func (c *ManagerConfig) normalize() {
	if c.MaxRounds <= 0 {
		c.MaxRounds = 50
	}
	if c.RoundTimeout <= 0 {
		c.RoundTimeout = 2 * time.Second
	}
	if c.Shards <= 0 {
		c.Shards = runtime.GOMAXPROCS(0)
		if c.Shards > 16 {
			c.Shards = 16
		}
	}
	if c.EvictAfterMisses == 0 {
		c.EvictAfterMisses = 3
	}
	if c.Logf == nil {
		c.Logf = func(string, ...interface{}) {}
	}
}

// Wire transport names, as negotiated per connection.
const (
	WireJSON   = "json"
	WireBinary = "binary"
)

// agentConn is one connected bidding agent.
type agentConn struct {
	conn  net.Conn
	codec wireCodec
	hello Message
	wire  string // WireJSON or WireBinary
	shard *shard

	// dropped flips exactly once when the connection is closed by either
	// side; it gates shard writes and double-eviction.
	dropped atomic.Bool
	// installed flips when the connection first joins a market's roster.
	// Every later roster holds it until it drops, so while a market is in
	// flight a connection not yet installed is one that registered after
	// the market began: it was never sent a price, and a bid from it
	// answers nothing.
	installed atomic.Bool

	// Loop-owned round state (only the owning shard's event loop touches
	// these): roster index of the in-flight market and consecutive
	// deadline misses toward the eviction budget.
	idx    int
	missed int

	// mbMu guards the inbound mailbox plus the last-accepted-bid record
	// (fed by harvests and by a restored snapshot, read by snapshots and
	// market seeding).
	mbMu    sync.Mutex
	mb      mailbox
	lastBid core.Bid
	hasLast bool
}

// readWriter splits a connection whose read side is buffered (for the
// transport sniff) from its write side.
type readWriter struct {
	io.Reader
	io.Writer
}

// Manager is the market facilitator: it accepts agent registrations over
// TCP and clears interactive markets on demand.
type Manager struct {
	cfg      ManagerConfig
	listener net.Listener

	mu        sync.Mutex
	agents    map[string]*agentConn
	restored  map[string]AgentState // snapshot agents awaiting reconnect
	lastPrice float64
	nextShard int
	closed    bool

	shards []*shard
	stop   chan struct{}
	wg     sync.WaitGroup

	// marketMu serializes RunMarket: rounds own the shard loops.
	marketMu sync.Mutex

	// curRound is the round number bids must echo to be accepted; 0
	// outside a market.
	curRound atomic.Int64

	// marketSeq numbers RunMarket invocations; it seeds each market's
	// trace ID ("m<seq>") and the per-round IDs broadcast on the wire.
	marketSeq atomic.Uint64

	evictTotal atomic.Int64

	// Telemetry handles; all nil (no-op) without a configured registry.
	connects        *telemetry.Counter
	disconnects     *telemetry.Counter
	rejected        *telemetry.Counter
	connected       *telemetry.Gauge
	bidRTT          *hdr.Histogram
	malformed       *telemetry.Counter
	markets         *telemetry.Counter
	rounds          *telemetry.Counter
	timeouts        *telemetry.Counter
	streamUpdates   *telemetry.Counter
	coalesced       *telemetry.Counter
	evictDeadline   *telemetry.Counter
	evictWriteStall *telemetry.Counter
	wireJSON        *telemetry.Counter
	wireBinary      *telemetry.Counter
}

// logf forwards to cfg.Logf when set; safe even on an un-normalized
// config so a nil Logf can never panic a market.
func (m *Manager) logf(format string, args ...interface{}) {
	if m.cfg.Logf != nil {
		m.cfg.Logf(format, args...)
	}
}

// NewManager starts a manager listening on addr (e.g. "127.0.0.1:0").
func NewManager(addr string, cfg ManagerConfig) (*Manager, error) {
	cfg.normalize()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("agentproto: listen: %w", err)
	}
	m := &Manager{cfg: cfg, listener: ln, agents: make(map[string]*agentConn), stop: make(chan struct{})}
	if reg := cfg.Telemetry; reg != nil {
		events := reg.CounterFamily(MetricAgentEvents, "Agent lifecycle events.", "event")
		m.connects = events.With("connect")
		m.disconnects = events.With("disconnect")
		m.rejected = events.With("rejected")
		m.connected = reg.Gauge(MetricAgentsConnected, "Currently registered agents.")
		m.bidRTT = reg.HDR(MetricBidRTT, "RespondBid round-trip latency in seconds (HDR).")
		m.malformed = reg.Counter(MetricMalformed, "Protocol violations: bad hellos, unexpected types, stale-round or unclearable bids.")
		m.markets = reg.Counter(MetricMarkets, "Finished RunMarket invocations.")
		m.rounds = reg.Counter(MetricRounds, "Price rounds across all markets.")
		m.timeouts = reg.Counter(MetricBidTimeouts, "Bid requests unanswered at harvest: one per roster member per round.")
		m.streamUpdates = reg.Counter(MetricStreamUpdates, "Incremental re-clears applied by streaming markets.")
		m.coalesced = reg.Counter(MetricCoalescedBids, "Bids coalesced away by one-slot per-agent mailboxes.")
		evictions := reg.CounterFamily(MetricEvictions, "Slow-agent evictions by typed reason.", "reason")
		m.evictDeadline = evictions.With(string(ReasonDeadlineBudget))
		m.evictWriteStall = evictions.With(string(ReasonWriteStall))
		wires := reg.CounterFamily(MetricWireAgents, "Agent registrations by negotiated transport.", "wire")
		m.wireJSON = wires.With(WireJSON)
		m.wireBinary = wires.With(WireBinary)
	}
	m.shards = make([]*shard, cfg.Shards)
	for i := range m.shards {
		m.shards[i] = newShard(m, i)
		m.wg.Add(1)
		go m.shards[i].loop()
	}
	m.wg.Add(1)
	go m.acceptLoop()
	return m, nil
}

// Addr returns the listen address for agents to dial.
func (m *Manager) Addr() string { return m.listener.Addr().String() }

// AgentCount reports the number of registered agents.
func (m *Manager) AgentCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.agents)
}

// Shards reports the configured shard count.
func (m *Manager) Shards() int { return len(m.shards) }

// Evictions reports the total slow-agent evictions across all typed
// reasons — the scalar mprd samples into its eviction time series.
func (m *Manager) Evictions() int64 { return m.evictTotal.Load() }

// Close shuts the manager down and disconnects all agents.
func (m *Manager) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	agents := make([]*agentConn, 0, len(m.agents))
	for _, a := range m.agents {
		agents = append(agents, a)
	}
	m.mu.Unlock()
	close(m.stop)
	err := m.listener.Close()
	for _, a := range agents {
		a.conn.Close()
	}
	m.wg.Wait()
	return err
}

func (m *Manager) acceptLoop() {
	defer m.wg.Done()
	for {
		conn, err := m.listener.Accept()
		if err != nil {
			return // listener closed
		}
		m.wg.Add(1)
		go m.serve(conn)
	}
}

// serve sniffs the transport (a binary agent's first byte is the 'M' of
// the negotiation preamble; a JSON-lines hello starts with '{'),
// completes version negotiation when binary, validates the hello, and
// then runs the connection's read loop, feeding bids into the agent's
// mailbox. All writes after registration happen on the owning shard's
// event loop.
func (m *Manager) serve(conn net.Conn) {
	defer m.wg.Done()
	br := bufio.NewReaderSize(conn, 512)
	first, err := br.Peek(1)
	if err != nil {
		conn.Close()
		return
	}
	var codec wireCodec
	wire := WireJSON
	if first[0] == preambleMagicReq[0] {
		if _, err := negotiateServer(br, conn); err != nil {
			m.malformed.Inc()
			m.rejected.Inc()
			m.logf("binary negotiation failed: %v", err)
			conn.Close()
			return
		}
		codec = NewFrameCodec(br, conn)
		wire = WireBinary
	} else {
		codec = NewCodec(readWriter{Reader: br, Writer: conn})
	}
	hello, err := codec.Recv()
	if err != nil || hello.Type != MsgHello || hello.JobID == "" {
		m.malformed.Inc()
		m.rejected.Inc()
		_ = codec.Send(Message{Type: MsgError, Reason: "expected hello with job_id"})
		conn.Close()
		return
	}
	// Written so NaN and +Inf fail: mprbin/v1 carries raw float bits, and
	// one NaN watts-per-core would turn the whole fleet's SuppliedW to NaN.
	positive := func(x float64) bool { return x > 0 && x <= math.MaxFloat64 }
	if !positive(hello.Cores) || !positive(hello.WattsPerCore) || !positive(hello.MaxFrac) {
		m.malformed.Inc()
		m.rejected.Inc()
		_ = codec.Send(Message{Type: MsgError, Reason: "hello needs finite positive cores, watts_per_core, max_frac"})
		conn.Close()
		return
	}
	a := &agentConn{conn: conn, codec: codec, hello: hello, wire: wire}

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		conn.Close()
		return
	}
	if _, dup := m.agents[hello.JobID]; dup {
		m.mu.Unlock()
		m.rejected.Inc()
		_ = codec.Send(Message{Type: MsgError, Reason: "duplicate job_id"})
		conn.Close()
		return
	}
	a.shard = m.shards[m.nextShard%len(m.shards)]
	m.nextShard++
	if r, ok := m.restored[hello.JobID]; ok {
		delete(m.restored, hello.JobID)
		if r.HasBid { // a is in no roster yet: nothing else reads its bid
			a.lastBid, a.hasLast = core.Bid{Delta: r.Delta, B: r.B}, true
		}
	}
	m.agents[hello.JobID] = a
	n := len(m.agents)
	m.mu.Unlock()
	m.connects.Inc()
	if wire == WireBinary {
		m.wireBinary.Inc()
	} else {
		m.wireJSON.Inc()
	}
	m.connected.Set(float64(n))
	m.logf("agent %s registered (%.0f cores, %s)", hello.JobID, hello.Cores, wire)

	for {
		msg, err := codec.Recv()
		if err != nil {
			// EOF and transport errors are a peer that left; bytes that
			// arrived and did not decode are a protocol violation, and the
			// stream cannot be resynchronised after one, so the drop below
			// is the same.
			if errors.Is(err, errMalformed) {
				m.malformed.Inc()
				m.logf("agent %s sent an undecodable message: %v", hello.JobID, err)
			}
			break
		}
		if msg.Type == MsgBid {
			m.noteBid(a, msg)
		} else {
			// Agents only ever send hellos and bids; anything else is a
			// confused or hostile peer worth counting.
			m.malformed.Inc()
			m.logf("agent %s sent unexpected %s", hello.JobID, msg.Type)
		}
	}
	m.drop(a, ReasonPeerClosed, false)
}

// noteBid lands an inbound bid in the agent's one-slot mailbox. Bids for
// any round but the one in flight, or from a connection outside the
// market's roster, are discarded; a second bid within the same round
// overwrites the first (coalesced); an unclearable bid (e.g. negative Δ)
// still answers the round — so the shard doesn't wait out the deadline —
// but is flagged invalid and the agent's previous bid stands.
func (m *Manager) noteBid(a *agentConn, msg Message) {
	round := int(m.curRound.Load())
	if round == 0 || msg.Round != round || !a.installed.Load() {
		// Bids must echo the round they answer, from a member of the
		// roster that was asked; anything else is stale (or fabricated)
		// and is discarded — counted as an answer, it would end the
		// shard's harvest before a real member answered.
		m.malformed.Inc()
		return
	}
	bid := core.Bid{Delta: msg.Delta, B: msg.B}
	valid := true
	if err := bid.Validate(); err != nil {
		valid = false
		m.malformed.Inc()
		m.logf("agent %s bid rejected: %v", a.hello.JobID, err)
	}
	now := time.Now().UnixNano()
	a.mbMu.Lock()
	first := !(a.mb.has && a.mb.round == round)
	a.mb = mailbox{round: round, has: true, valid: valid, bid: bid, trace: msg.TraceID, recvNS: now}
	a.mbMu.Unlock()
	if first {
		a.shard.answered.Add(1)
		select {
		case a.shard.wake <- struct{}{}:
		default:
		}
	} else {
		m.coalesced.Inc()
		// Coalescing is an anomaly worth a flight-recorder breadcrumb:
		// an agent re-bidding within one round means its first answer
		// raced the deadline. Ring emission allocates nothing.
		m.cfg.Tracer.Emit(telemetry.Event{Name: "coalesced_bid", Round: round, Label: a.hello.JobID})
	}
}

// drop closes an agent connection exactly once. Evictions (slow agents
// only — drop is otherwise bookkeeping for a peer that already left)
// send the typed reason on the wire and count it.
func (m *Manager) drop(a *agentConn, reason DisconnectReason, evict bool) {
	if !a.dropped.CompareAndSwap(false, true) {
		return
	}
	if evict {
		_ = a.conn.SetWriteDeadline(time.Now().Add(100 * time.Millisecond))
		_ = a.codec.Send(Message{Type: MsgError, Reason: EvictedPrefix + string(reason)})
		m.evictTotal.Add(1)
		switch reason {
		case ReasonDeadlineBudget:
			m.evictDeadline.Inc()
		case ReasonWriteStall:
			m.evictWriteStall.Inc()
		}
		m.logf("agent %s evicted: %s", a.hello.JobID, reason)
		// Evictions feed the shared tracer ring so a flight bundle
		// triggered by an EvictionBurst alert carries the per-agent
		// evidence (who, why) from the seconds before the dump.
		m.cfg.Tracer.Emit(telemetry.Event{Name: "eviction", Label: a.hello.JobID + ":" + string(reason)})
	}
	a.conn.Close()
	m.mu.Lock()
	if cur, ok := m.agents[a.hello.JobID]; ok && cur == a {
		delete(m.agents, a.hello.JobID)
	}
	n := len(m.agents)
	m.mu.Unlock()
	m.disconnects.Inc()
	m.connected.Set(float64(n))
	m.logf("agent %s disconnected (%s)", a.hello.JobID, reason)
}

// ServeConn registers an agent connection that was established out of
// band — typically one end of a net.Pipe from an in-process load
// generator, which costs no file descriptors and still exercises the
// full wire path (JSON or negotiated binary). The manager owns conn from
// here on and serves it exactly like an accepted TCP connection.
func (m *Manager) ServeConn(conn net.Conn) error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		conn.Close()
		return fmt.Errorf("agentproto: manager closed")
	}
	m.wg.Add(1)
	m.mu.Unlock()
	go m.serve(conn)
	return nil
}

// MarketOutcome is the result of one interactive market run over the
// connected agents.
type MarketOutcome struct {
	Result *core.ClearingResult
	// Orders maps job IDs to awarded reductions (cores).
	Orders map[string]float64
	// TraceID is the market's trace identifier ("m<seq>") — the prefix of
	// the per-round IDs stamped on this market's price broadcasts.
	TraceID string
}

// RunMarket clears an interactive market for the given power-reduction
// target over the currently registered agents, sends reduction orders,
// and returns the outcome.
//
// Each round is a scatter over the shards: every shard event loop
// broadcasts the price to its members, collects their bids (one-slot
// mailboxes, coalescing floods to the newest), and harvests them into the
// market's roster slots at the deadline or as soon as all members
// answered. The slots are applied in roster order before the clear, so
// the clearing price is bit-identical for any shard count and any bid
// arrival order. A non-positive target asks nobody: the outcome has
// Rounds 0 and every agent is ordered to reduce 0.
func (m *Manager) RunMarket(targetW float64) (*MarketOutcome, error) {
	if math.IsNaN(targetW) || math.IsInf(targetW, 0) {
		return nil, fmt.Errorf("agentproto: market target must be finite, got %v W", targetW)
	}
	m.marketMu.Lock()
	defer m.marketMu.Unlock()

	m.mu.Lock()
	agents := make([]*agentConn, 0, len(m.agents))
	for _, a := range m.agents {
		agents = append(agents, a)
	}
	m.mu.Unlock()
	sort.Slice(agents, func(i, j int) bool { return agents[i].hello.JobID < agents[j].hello.JobID })
	if len(agents) == 0 {
		return nil, core.ErrNoParticipants
	}

	parts := make([]*core.Participant, len(agents))
	members := make([][]*agentConn, len(m.shards))
	for i, a := range agents {
		a.idx = i
		parts[i] = &core.Participant{
			JobID:        a.hello.JobID,
			Cores:        a.hello.Cores,
			WattsPerCore: a.hello.WattsPerCore,
			MaxFrac:      a.hello.MaxFrac,
		}
		// The paper's timeout rule, extended across markets and restarts:
		// until an agent bids this market, the clear proceeds on its last
		// known bid (zero for a fresh connection).
		a.mbMu.Lock()
		if a.hasLast {
			parts[i].Bid = a.lastBid
		}
		a.mbMu.Unlock()
		members[a.shard.id] = append(members[a.shard.id], a)
	}

	reply := make(chan struct{}, len(m.shards))
	if !m.scatter(shardCmd{kind: cmdInstall, members: members, reply: reply}) {
		return nil, fmt.Errorf("agentproto: manager closed")
	}
	res, marketTrace, err := m.priceRounds(agents, parts, targetW, reply)
	if err != nil {
		return nil, err
	}
	clearLabel := "converged"
	if !res.Converged {
		clearLabel = "budget_exhausted"
	}
	m.cfg.Tracer.Emit(telemetry.Event{Name: "market_clear", Trace: marketTrace, Round: res.Rounds,
		Price: res.Price, TargetW: targetW, SuppliedW: res.SuppliedW, Label: clearLabel})

	out := &MarketOutcome{Result: res, Orders: make(map[string]float64, len(agents)), TraceID: marketTrace}
	orders := make([][]memberMsg, len(m.shards))
	for i, a := range agents {
		red := res.Reductions[i]
		out.Orders[a.hello.JobID] = red
		orders[a.shard.id] = append(orders[a.shard.id], memberMsg{a: a, msg: Message{
			Type:           MsgOrder,
			Price:          res.Price,
			ReductionCores: red,
			PaymentRate:    res.Price * red,
		}})
	}
	m.scatter(shardCmd{kind: cmdDeliver, msgs: orders, timeout: m.cfg.RoundTimeout, reply: reply})
	return out, nil
}

// priceRounds iterates the market's price to its fixpoint over the
// installed roster (parts[i] is agents[i]) through core.Iterate and
// returns the final clear with the market's trace ID. Whichever way it
// exits, the market span is closed and bids stop being accepted.
func (m *Manager) priceRounds(agents []*agentConn, parts []*core.Participant, targetW float64, reply chan struct{}) (*core.ClearingResult, string, error) {
	// Every market gets a trace ID "m<seq>"; each round extends it to
	// "m<seq>.r<round>" and stamps that on the price broadcast and the
	// round's event. Agents echo it on their bids, which lets the merge
	// below attribute a bid to the exact broadcast that prompted it and
	// record a per-agent respond_bid span linked under the round.
	marketTrace := "m" + strconv.FormatUint(m.marketSeq.Add(1), 10)

	// The market runs as a span tree — market → market_round →
	// respond_bids, plus one externally-timed respond_bid{agent} child
	// per traced bid — so /debug/spans shows where wall-time went, and
	// the scatter/gather carries the "mpr_span" pprof label.
	mkSpan := m.cfg.Tracer.StartSpan("market", nil)
	mkSpan.SetAttr("trace", marketTrace)
	mkSpan.SetAttr("target_w", strconv.FormatFloat(targetW, 'g', -1, 64))
	mkSpan.SetAttr("agents", strconv.Itoa(len(agents)))
	mkSpan.SetAttr("shards", strconv.Itoa(len(m.shards)))
	defer func() {
		m.curRound.Store(0)
		mkSpan.End()
	}()

	// Streaming mode feeds every accepted bid to a continuously-clearing
	// engine, which publishes the would-be clearing price after each one.
	// The round itself clears through Iterate's index in both modes.
	var stream *core.StreamMarket
	if m.cfg.Streaming {
		var err error
		if stream, err = core.NewStreamMarket(parts, targetW); err != nil {
			return nil, "", err
		}
		mkSpan.SetAttr("mode", "streaming")
	}

	slots := make([]roundBid, len(agents))
	// Iterate emits a round's event after that round's ask, which set
	// roundTrace.
	var roundTrace string
	emit := func(e telemetry.Event) {
		e.Trace = roundTrace
		m.cfg.Tracer.Emit(e)
	}
	ask := func(round int, price float64, bids []core.Bid, roundSpan *telemetry.ActiveSpan) error {
		roundTrace = marketTrace + ".r" + strconv.Itoa(round)
		roundSpan.SetAttr("trace", roundTrace)
		// The round's price broadcast is identical for every member, so it
		// is encoded exactly once per round — in both wire formats — and
		// the shard loops write the shared bytes raw per connection.
		pre, err := encodeMsg(Message{Type: MsgPrice, Round: round, Price: price, TargetW: targetW, TraceID: roundTrace})
		if err != nil {
			return err
		}
		bidSpan := roundSpan.StartChild("respond_bids")
		ok := false
		telemetry.WithPprofLabels("respond_bids", func() {
			m.curRound.Store(int64(round))
			// A slot is one round's answer: left set, an agent that went
			// quiet would have its last bid re-applied and counted again.
			for i := range slots {
				slots[i].has = false
			}
			ok = m.scatter(shardCmd{kind: cmdRound, round: round, pre: pre, slots: slots,
				timeout: m.cfg.RoundTimeout, reply: reply})
		})
		bidSpan.End()
		if !ok {
			return fmt.Errorf("agentproto: manager closed")
		}

		// Merge in roster order: identical clearing inputs no matter how
		// bids raced across shards. A member without a valid answer keeps
		// its last bid.
		for i := range slots {
			e := &slots[i]
			if !e.has {
				continue
			}
			jobID := agents[i].hello.JobID
			m.bidRTT.Record(float64(e.recvNS-e.bcastNS) / 1e9)
			if e.trace == roundTrace {
				// The agent echoed our trace ID: link a per-agent
				// respond_bid span under this round, from the start of the
				// shard's broadcast to this bid's receipt. Old-format agents never
				// echo (empty TraceID) and simply stay untraced.
				m.cfg.Tracer.RecordSpan("respond_bid", roundSpan,
					e.bcastNS, e.recvNS,
					telemetry.Attr{Key: "agent", Value: jobID},
					telemetry.Attr{Key: "trace", Value: roundTrace})
			}
			if !e.valid {
				// Unclearable bid (counted malformed at receipt).
				continue
			}
			if stream != nil {
				p, _, err := stream.Apply(core.ParticipantDelta{Index: i, Bid: e.bid})
				if err != nil {
					m.malformed.Inc()
					m.logf("agent %s bid rejected: %v", jobID, err)
					continue
				}
				m.streamUpdates.Inc()
				m.cfg.Tracer.Emit(telemetry.Event{Name: "stream_update", Trace: roundTrace, Round: round,
					Price: p, TargetW: targetW, Label: jobID})
			}
			bids[i] = e.bid
		}
		return nil
	}

	res, err := core.Iterate(parts, targetW, m.cfg.MaxRounds, priceTolerance, mkSpan, emit, ask)
	if err != nil {
		return nil, "", err
	}
	m.rounds.Add(int64(res.Rounds))
	m.markets.Inc()
	m.mu.Lock()
	m.lastPrice = res.Price
	m.mu.Unlock()
	mkSpan.SetAttr("rounds", strconv.Itoa(res.Rounds))
	mkSpan.SetAttr("converged", strconv.FormatBool(res.Converged))
	return res, marketTrace, nil
}

// scatter is the one fan-out/fan-in: it hands cmd to every shard loop
// and waits for all of them to ack on cmd.reply. False when the manager
// shut down mid-flight.
func (m *Manager) scatter(cmd shardCmd) bool {
	for _, s := range m.shards {
		if !s.dispatch(cmd) {
			return false
		}
	}
	for range m.shards {
		select {
		case <-cmd.reply:
		case <-m.stop:
			return false
		}
	}
	return true
}

// Lift broadcasts the end of the emergency.
func (m *Manager) Lift() {
	m.mu.Lock()
	lifts := make([][]memberMsg, len(m.shards))
	for _, a := range m.agents {
		lifts[a.shard.id] = append(lifts[a.shard.id], memberMsg{a: a, msg: Message{Type: MsgLift}})
	}
	m.mu.Unlock()
	m.scatter(shardCmd{kind: cmdDeliver, msgs: lifts, timeout: m.cfg.RoundTimeout, reply: make(chan struct{}, len(m.shards))})
}
