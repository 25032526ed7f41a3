package agentproto

import (
	"errors"
	"net"
	"sync/atomic"
	"time"

	"mpr/internal/core"
)

// DisconnectReason is the typed reason the manager closes an agent
// connection. Evictions send the reason to the agent as an error message
// ("evicted: <reason>") and count it in mpr_mgr_evictions_total{reason}.
type DisconnectReason string

const (
	// ReasonDeadlineBudget: the agent missed EvictAfterMisses consecutive
	// round deadlines — a stalled or glacial bidder holding rounds at the
	// timeout floor.
	ReasonDeadlineBudget DisconnectReason = "deadline_budget"
	// ReasonWriteStall: a broadcast write to the agent missed its
	// deadline — the peer stopped draining its socket, so every further
	// send would block the shard's event loop.
	ReasonWriteStall DisconnectReason = "write_stall"
	// ReasonPeerClosed: the agent hung up (or its stream errored); not an
	// eviction.
	ReasonPeerClosed DisconnectReason = "peer_closed"
)

// EvictedPrefix prefixes the Reason of the MsgError an evicted agent
// receives; the suffix is the DisconnectReason.
const EvictedPrefix = "evicted: "

// mailbox is one agent's bounded inbound bid queue: a single slot holding
// the latest bid for the round in flight. Agents that flood bids within a
// round coalesce to the newest (counted in mpr_mgr_coalesced_bids_total);
// readers therefore never block on the market, which is the backpressure
// story — there is no unbounded queue anywhere between a socket and the
// clearing engine.
type mailbox struct {
	round  int
	has    bool
	valid  bool // bid passed core.Bid validation (invalid still answers the round)
	bid    core.Bid
	trace  string
	recvNS int64
}

// roundBid is one roster slot of the market in flight: the mailbox its
// owning shard harvested this round (has is false when the agent did not
// answer) plus when that shard started its price broadcast. Shards own
// disjoint roster indices, so each writes its members' slots unlocked and
// RunMarket reads them once the shard has acked the round. At 64 bytes a
// slot is a cache line, so neighbours written by different shards barely
// share one.
type roundBid struct {
	mailbox
	bcastNS int64
}

type shardCmdKind int

const (
	cmdInstall shardCmdKind = iota // adopt cmd.members as the market roster
	cmdRound                       // broadcast price, collect bids until deadline
	cmdDeliver                     // write prepared messages (orders, lifts)
)

// shardCmd is the same value for every shard: each takes its own row of
// the per-shard tables and acks on reply when done.
type shardCmd struct {
	kind    shardCmdKind
	members [][]*agentConn // cmdInstall: the roster, by shard
	round   int
	pre     *encodedMsg // price broadcast for cmdRound, encoded once per fleet
	slots   []roundBid  // cmdRound: where harvested bids land, by roster index
	timeout time.Duration
	msgs    [][]memberMsg // cmdDeliver payload, by shard
	reply   chan struct{}
}

type memberMsg struct {
	a   *agentConn
	msg Message
}

// shard is one connection manager: a bounded event loop that owns all
// writes to its slice of the fleet. Readers stay one goroutine per
// connection (they block in kernel reads), but everything they produce
// lands in one-slot mailboxes, and all protocol writes, bid harvesting,
// and eviction decisions happen on the loop — single-writer, no
// per-connection write locks, no unbounded fan-out.
type shard struct {
	m  *Manager
	id int

	cmds chan shardCmd
	// wake is a one-token doorbell: readers ring it after the first bid
	// fill of a round; the loop re-checks the answered count per ring.
	wake     chan struct{}
	answered atomic.Int32

	members []*agentConn // market roster slice; loop-owned
}

func newShard(m *Manager, id int) *shard {
	return &shard{m: m, id: id, cmds: make(chan shardCmd, 4), wake: make(chan struct{}, 1)}
}

// dispatch enqueues a command unless the manager is shutting down.
func (s *shard) dispatch(cmd shardCmd) bool {
	select {
	case s.cmds <- cmd:
		return true
	case <-s.m.stop:
		return false
	}
}

func (s *shard) loop() {
	defer s.m.wg.Done()
	for {
		select {
		case <-s.m.stop:
			return
		case cmd := <-s.cmds:
			switch cmd.kind {
			case cmdInstall:
				s.members = cmd.members[s.id]
				// Clear leftover mailboxes so a bid stranded after a prior
				// market's harvest can never alias a same-numbered round.
				for _, a := range s.members {
					a.mbMu.Lock()
					a.mb.has = false
					a.mbMu.Unlock()
					a.missed = 0
				}
			case cmdRound:
				s.runRound(cmd)
			case cmdDeliver:
				for _, mm := range cmd.msgs[s.id] {
					s.send(mm.a, cmd.timeout, func() error { return mm.a.codec.Send(mm.msg) })
				}
			}
			cmd.reply <- struct{}{}
		}
	}
}

// send performs one write to a member on the loop — a per-member message
// through its codec (cmdDeliver) or a round's fleet-shared pre-encoded
// bytes, raw (runRound) — with a per-send deadline (a shared absolute
// deadline would let one stalled peer poison every member after it in
// the loop), classifying failures: a write timeout means the peer
// stopped draining and is evicted (write_stall); any other error is a
// dead peer.
func (s *shard) send(a *agentConn, timeout time.Duration, write func() error) bool {
	if a.dropped.Load() {
		return false
	}
	_ = a.conn.SetWriteDeadline(time.Now().Add(timeout))
	err := write()
	if err == nil {
		return true
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		s.m.logf("agent %s write stalled: %v", a.hello.JobID, err)
		s.m.drop(a, ReasonWriteStall, true)
	} else {
		s.m.logf("send to %s failed: %v", a.hello.JobID, err)
		s.m.drop(a, ReasonPeerClosed, false)
	}
	return false
}

// runRound broadcasts the round's price to the shard's members, waits
// until every live member has answered (or the round deadline), then
// harvests the mailboxes straight into the market's roster slots.
// Deadline-missing members burn one unit of their miss budget and are
// evicted when it runs out.
func (s *shard) runRound(cmd shardCmd) {
	s.answered.Store(0)
	select { // drain a stale doorbell token from a late prior-round bid
	case <-s.wake:
	default:
	}
	// Stamped before the first write: an early member's bid can arrive
	// while the loop below is still writing to the rest, and round-trip
	// times measured from any later instant would go negative for it.
	broadcastNS := time.Now().UnixNano()
	live := int32(0)
	for _, a := range s.members {
		// The bytes for the connection's negotiated transport, skipping
		// the per-member re-encode.
		raw := cmd.pre.bytesFor(a.wire)
		if s.send(a, cmd.timeout, func() error { _, err := a.conn.Write(raw); return err }) {
			live++
		}
	}
	// The collect timeout starts when the broadcast ends, mirroring the
	// old collector, so huge shards aren't charged their own send time.
	timer := time.NewTimer(cmd.timeout)
wait:
	for s.answered.Load() < live {
		select {
		case <-s.wake:
		case <-timer.C:
			break wait
		case <-s.m.stop:
			break wait
		}
	}
	timer.Stop()

	for _, a := range s.members {
		a.mbMu.Lock()
		mb := a.mb
		got := mb.has && mb.round == cmd.round
		if got {
			a.mb.has = false
			if mb.valid {
				a.lastBid, a.hasLast = mb.bid, true
			}
		}
		a.mbMu.Unlock()
		if !got {
			// One timeout per unanswered member per round — including
			// already-dropped ones, matching the old per-connection
			// collector's accounting.
			s.m.timeouts.Inc()
			s.m.logf("round %d: timeout waiting for %s", cmd.round, a.hello.JobID)
			if a.dropped.Load() {
				continue
			}
			a.missed++
			if budget := s.m.cfg.EvictAfterMisses; budget > 0 && a.missed >= budget {
				s.m.drop(a, ReasonDeadlineBudget, true)
			}
			continue
		}
		a.missed = 0
		cmd.slots[a.idx] = roundBid{mailbox: mb, bcastNS: broadcastNS}
	}
}
