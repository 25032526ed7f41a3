package agentproto

import (
	"io"
	"math"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"mpr/internal/core"
	"mpr/internal/perf"
	"mpr/internal/telemetry"
)

// pipeManager builds a closed manager config suitable for deterministic
// in-process tests.
func pipeManager(t *testing.T, cfg ManagerConfig) *Manager {
	t.Helper()
	m, err := NewManager("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

// dialPipe attaches one strategy-driven agent over net.Pipe.
func dialPipe(t *testing.T, m *Manager, cfg AgentConfig) *Agent {
	t.Helper()
	mgrEnd, agentEnd := net.Pipe()
	if err := m.ServeConn(mgrEnd); err != nil {
		t.Fatal(err)
	}
	a, err := DialConn(agentEnd, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	return a
}

// scriptConn attaches a hand-rolled agent (no Agent loop) over net.Pipe
// with the chosen wire, sends the hello, and returns its codec.
func scriptConn(t *testing.T, m *Manager, wire string, hello Message) (net.Conn, wireCodec) {
	t.Helper()
	mgrEnd, agentEnd := net.Pipe()
	if err := m.ServeConn(mgrEnd); err != nil {
		t.Fatal(err)
	}
	var c wireCodec
	if wire == WireBinary {
		if _, err := negotiateClient(agentEnd, agentEnd); err != nil {
			t.Fatal(err)
		}
		c = NewFrameCodec(agentEnd, agentEnd)
	} else {
		c = NewCodec(agentEnd)
	}
	if err := c.Send(hello); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { agentEnd.Close() })
	return agentEnd, c
}

// fleetSpec describes one deterministic strategy-driven agent.
type fleetSpec struct {
	job   string
	app   string
	cores float64
	wire  string
}

func fleetSpecs(n int) []fleetSpec {
	apps := []string{"XSBench", "RSBench", "SimpleMOC", "CoMD"}
	specs := make([]fleetSpec, n)
	for i := range specs {
		specs[i] = fleetSpec{
			job:   "fleet-" + itoa(i),
			app:   apps[i%len(apps)],
			cores: float64(32 + 16*(i%5)),
			wire:  WireJSON,
		}
	}
	return specs
}

func dialFleet(t *testing.T, m *Manager, specs []fleetSpec) {
	t.Helper()
	for _, s := range specs {
		prof, err := perf.ProfileByName(s.app)
		if err != nil {
			t.Fatal(err)
		}
		model := perf.NewCostModel(prof, 1, perf.CostLinear)
		dialPipe(t, m, AgentConfig{
			JobID: s.job, Cores: s.cores, WattsPerCore: 125, MaxFrac: prof.MaxReduction(),
			Strategy: &core.RationalBidder{Cores: s.cores, Model: model},
			Wire:     s.wire,
		})
	}
	waitAgents(t, m, len(specs))
}

// marketTrail runs one market and returns the per-round clearing prices
// (bit patterns) from the market_round spans plus the outcome.
func marketTrail(t *testing.T, m *Manager, tracer *telemetry.Tracer, targetW float64) ([]uint64, *MarketOutcome) {
	t.Helper()
	out, err := m.RunMarket(targetW)
	if err != nil {
		t.Fatal(err)
	}
	return roundPrices(t, tracer), out
}

// roundPrices is the per-round clearing price trail of the tracer's
// market_round spans, as bits.
func roundPrices(t *testing.T, tracer *telemetry.Tracer) []uint64 {
	t.Helper()
	var trail []uint64
	for _, s := range tracer.Spans() {
		if s.Name != "market_round" {
			continue
		}
		p, err := strconv.ParseFloat(s.Attr("price"), 64)
		if err != nil {
			t.Fatalf("market_round span %d: %v", s.ID, err)
		}
		trail = append(trail, math.Float64bits(p))
	}
	return trail
}

// TestShardDeterminism pins the clearing prices bit-identical across
// shard counts 1/4/16: sharding is an execution layout, not a market
// semantic. Every round's price and every order must match exactly.
func TestShardDeterminism(t *testing.T) {
	specs := fleetSpecs(24)
	const targetW = 30000
	type run struct {
		trail  []uint64
		orders map[string]float64
		rounds int
	}
	runs := map[int]run{}
	for _, shards := range []int{1, 4, 16} {
		tracer := telemetry.NewTracer(4096)
		m := pipeManager(t, ManagerConfig{
			RoundTimeout: 2 * time.Second,
			Shards:       shards,
			Tracer:       tracer,
		})
		if m.Shards() != shards {
			t.Fatalf("manager shards = %d, want %d", m.Shards(), shards)
		}
		dialFleet(t, m, specs)
		trail, out := marketTrail(t, m, tracer, targetW)
		if !out.Result.Converged {
			t.Fatalf("shards=%d: market did not converge", shards)
		}
		runs[shards] = run{trail: trail, orders: out.Orders, rounds: out.Result.Rounds}
		m.Close()
	}
	base := runs[1]
	if len(base.trail) == 0 {
		t.Fatal("no market_round spans recorded")
	}
	for _, shards := range []int{4, 16} {
		r := runs[shards]
		if !reflect.DeepEqual(r.trail, base.trail) {
			t.Errorf("shards=%d: price trail diverges from shards=1:\n got  %v\n want %v", shards, r.trail, base.trail)
		}
		if r.rounds != base.rounds {
			t.Errorf("shards=%d: rounds = %d, want %d", shards, r.rounds, base.rounds)
		}
		for job, red := range base.orders {
			if got := r.orders[job]; math.Float64bits(got) != math.Float64bits(red) {
				t.Errorf("shards=%d: order[%s] = %v, want %v", shards, job, got, red)
			}
		}
	}
}

// TestTracerDoesNotChangeMarket: a traced manager clears every round in
// full, an untraced one only the round that ends the market; over the
// same fleet both reach the same price, supply, rounds and orders, bit
// for bit — for two markets in a row (the second opening on the first's
// last bids) and for a round budget that runs out.
func TestTracerDoesNotChangeMarket(t *testing.T) {
	specs := fleetSpecs(24)
	targets := []float64{30000, 12000}
	for _, maxRounds := range []int{0, 3} {
		outs := map[bool][]*MarketOutcome{}
		for _, traced := range []bool{false, true} {
			cfg := ManagerConfig{RoundTimeout: 2 * time.Second, Shards: 4, MaxRounds: maxRounds}
			if traced {
				cfg.Tracer = telemetry.NewTracer(4096)
			}
			m := pipeManager(t, cfg)
			dialFleet(t, m, specs)
			for _, target := range targets {
				out, err := m.RunMarket(target)
				if err != nil {
					t.Fatal(err)
				}
				outs[traced] = append(outs[traced], out)
			}
			m.Close()
		}
		exhausted := false
		for i, target := range targets {
			plain, traced := outs[false][i].Result, outs[true][i].Result
			exhausted = exhausted || !plain.Converged
			if plain.Rounds != traced.Rounds || plain.Converged != traced.Converged ||
				math.Float64bits(plain.Price) != math.Float64bits(traced.Price) ||
				math.Float64bits(plain.SuppliedW) != math.Float64bits(traced.SuppliedW) {
				t.Errorf("max=%d target %v: untraced %+v, traced %+v", maxRounds, target, plain, traced)
			}
			for job, red := range outs[true][i].Orders {
				if got := outs[false][i].Orders[job]; math.Float64bits(got) != math.Float64bits(red) {
					t.Errorf("max=%d target %v: untraced order[%s] = %v, traced %v", maxRounds, target, job, got, red)
				}
			}
		}
		if maxRounds == 3 && !exhausted {
			t.Error("a 3-round budget ran out in no market")
		}
	}
}

// mixedMarket runs one market under cfg over a fleet with the given wires
// plus a scripted JSON quitter that bids round 1 and hangs up mid-market.
func mixedMarket(t *testing.T, cfg ManagerConfig, wires []string) *MarketOutcome {
	t.Helper()
	m := pipeManager(t, cfg)
	specs := fleetSpecs(len(wires))
	for i := range specs {
		specs[i].wire = wires[i]
	}
	dialFleet(t, m, specs)

	// The quitter bids round 1 with a fixed supply function, then closes
	// mid-market: rounds ≥2 proceed on its round-1 bid (the paper's
	// timeout rule), identically in every run.
	qconn, qc := scriptConn(t, m, WireJSON, Message{Type: MsgHello, JobID: "quitter", Cores: 64, WattsPerCore: 125, MaxFrac: 0.4})
	waitAgents(t, m, len(specs)+1)
	quitDone := make(chan error, 1)
	go func() {
		defer qconn.Close()
		msg, err := qc.Recv()
		if err != nil {
			quitDone <- err
			return
		}
		if msg.Type != MsgPrice {
			quitDone <- io.ErrUnexpectedEOF
			return
		}
		quitDone <- qc.Send(Message{Type: MsgBid, Round: msg.Round, TraceID: msg.TraceID, Delta: 12, B: 0.35})
	}()

	out, err := m.RunMarket(30000)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-quitDone; err != nil {
		t.Fatalf("quitter: %v", err)
	}
	return out
}

// mixedTrail is mixedMarket on four shards, returning the per-round
// clearing prices too. The equilibrium must not depend on the transport
// mix.
func mixedTrail(t *testing.T, wires []string) ([]uint64, *MarketOutcome) {
	t.Helper()
	tracer := telemetry.NewTracer(4096)
	out := mixedMarket(t, ManagerConfig{RoundTimeout: 2 * time.Second, Shards: 4, Tracer: tracer}, wires)
	return roundPrices(t, tracer), out
}

// TestMixedFleetEquilibrium pins transport equivalence end to end:
// JSON-fallback agents and binary agents in one market — including a
// mid-round disconnect — reach bit-identical per-round prices and orders
// vs an all-JSON fleet.
func TestMixedFleetEquilibrium(t *testing.T) {
	const n = 8
	allJSON := make([]string, n)
	mixed := make([]string, n)
	allBinary := make([]string, n)
	for i := range allJSON {
		allJSON[i] = WireJSON
		allBinary[i] = WireBinary
		if i%2 == 0 {
			mixed[i] = WireBinary
		} else {
			mixed[i] = WireJSON
		}
	}
	baseTrail, baseOut := mixedTrail(t, allJSON)
	if len(baseTrail) < 2 {
		t.Fatalf("market cleared in %d rounds; the disconnect needs ≥2", len(baseTrail))
	}
	for name, wires := range map[string][]string{"mixed": mixed, "all-binary": allBinary} {
		trail, out := mixedTrail(t, wires)
		if !reflect.DeepEqual(trail, baseTrail) {
			t.Errorf("%s fleet: price trail diverges from all-JSON:\n got  %v\n want %v", name, trail, baseTrail)
		}
		for job, red := range baseOut.Orders {
			if got := out.Orders[job]; math.Float64bits(got) != math.Float64bits(red) {
				t.Errorf("%s fleet: order[%s] = %v, want %v", name, job, got, red)
			}
		}
	}
}

// TestEveryAnswerCountedOnce: a roster slot is one round's answer. The
// quitter bids round 1 only, so over a market of r rounds the manager
// receives n·r + 1 bids, and each must be timed, traced and (streaming)
// applied exactly once. A slot that outlives its round re-applies an
// identical bid — invisible in prices, visible only in these counts.
func TestEveryAnswerCountedOnce(t *testing.T) {
	const n = 8
	wires := make([]string, n)
	for i := range wires {
		wires[i] = WireJSON
	}
	for _, streaming := range []bool{false, true} {
		for _, shards := range []int{1, 4} {
			reg := telemetry.NewRegistry()
			tracer := telemetry.NewTracer(4096)
			out := mixedMarket(t, ManagerConfig{RoundTimeout: 2 * time.Second, Shards: shards,
				Streaming: streaming, Telemetry: reg, Tracer: tracer}, wires)
			if out.Result.Rounds < 2 {
				t.Fatalf("market cleared in %d rounds; the disconnect needs ≥2", out.Result.Rounds)
			}
			bids := int64(n*out.Result.Rounds + 1)
			var spans, updates int64
			for _, s := range tracer.Spans() {
				if s.Name == "respond_bid" {
					spans++
				}
			}
			if streaming {
				updates = bids
			}
			snap := reg.Snapshot()
			for _, c := range []struct {
				what      string
				got, want int64
			}{
				{MetricBidRTT + " count", snap.HDR(MetricBidRTT).Count, bids},
				{"respond_bid spans", spans, bids},
				{MetricStreamUpdates, snap.Counter(MetricStreamUpdates), updates},
			} {
				if c.got != c.want {
					t.Errorf("streaming=%v shards=%d: %s = %d, want %d", streaming, shards, c.what, c.got, c.want)
				}
			}
		}
	}
}

// TestNonFiniteBidMalformed: binary frames carry raw float bits, so a
// hostile agent can put NaN or ±Inf on the wire. Each such bid must be
// counted malformed and leave the agent on its last known bid (none, for
// this fresh connection) — the market's per-round prices and orders are
// bit-identical to the same fleet without the hostile agent, in both
// clearing modes.
func TestNonFiniteBidMalformed(t *testing.T) {
	const targetW = 30000
	for _, streaming := range []bool{false, true} {
		run := func(hostile bool) ([]uint64, *MarketOutcome, int64) {
			tracer, reg := telemetry.NewTracer(4096), telemetry.NewRegistry()
			m := pipeManager(t, ManagerConfig{RoundTimeout: 2 * time.Second, Shards: 4, Tracer: tracer, Telemetry: reg, Streaming: streaming})
			specs := fleetSpecs(8)
			for i := range specs {
				specs[i].wire = WireBinary
			}
			dialFleet(t, m, specs)
			done := make(chan error, 1)
			if hostile {
				_, hc := scriptConn(t, m, WireBinary, Message{Type: MsgHello, JobID: "hostile", Cores: 64, WattsPerCore: 125, MaxFrac: 0.4})
				waitAgents(t, m, len(specs)+1)
				go func() {
					bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
					for {
						msg, err := hc.Recv()
						if err != nil || msg.Type == MsgOrder {
							done <- err
							return
						}
						if msg.Type != MsgPrice {
							continue
						}
						bid := Message{Type: MsgBid, Round: msg.Round, TraceID: msg.TraceID, Delta: 12, B: bad[msg.Round%3]}
						if msg.Round%2 == 0 {
							bid.Delta, bid.B = bid.B, 0.35
						}
						if err := hc.Send(bid); err != nil {
							done <- err
							return
						}
					}
				}()
			} else {
				done <- nil
			}
			trail, out := marketTrail(t, m, tracer, targetW)
			if err := <-done; err != nil {
				t.Fatalf("hostile agent: %v", err)
			}
			return trail, out, reg.Snapshot().Counter(MetricMalformed)
		}
		wantTrail, want, _ := run(false)
		trail, out, malformed := run(true)
		if want.Result.Rounds < 2 {
			t.Fatalf("streaming=%v: market cleared in %d rounds; the bad bids need ≥2", streaming, want.Result.Rounds)
		}
		if malformed != int64(out.Result.Rounds) {
			t.Errorf("streaming=%v: malformed = %d, want one per round (%d)", streaming, malformed, out.Result.Rounds)
		}
		if !reflect.DeepEqual(trail, wantTrail) {
			t.Errorf("streaming=%v: price trail with non-finite bids diverges:\n got  %v\n want %v", streaming, trail, wantTrail)
		}
		if red := out.Orders["hostile"]; red != 0 {
			t.Errorf("streaming=%v: hostile agent ordered to reduce %v, want 0", streaming, red)
		}
		for job, red := range want.Orders {
			if got := out.Orders[job]; math.Float64bits(got) != math.Float64bits(red) {
				t.Errorf("streaming=%v: order[%s] = %v, want %v", streaming, job, got, red)
			}
		}
	}
}

// The same hole at registration: the hello's cores, watts_per_core and
// max_frac ride the binary wire as raw float bits too, and "x <= 0" lets
// NaN and +Inf through — one agent registered with NaN watts-per-core
// turned every later SuppliedW for the whole fleet into NaN. Such hellos
// must be refused like any other malformed hello (MsgError, counted
// malformed and rejected), and the market over the rest stays finite.
func TestNonFiniteHelloRejected(t *testing.T) {
	m := pipeManager(t, ManagerConfig{RoundTimeout: 2 * time.Second, Telemetry: telemetry.NewRegistry()})
	specs := fleetSpecs(4)
	for i := range specs {
		specs[i].wire = WireBinary
	}
	dialFleet(t, m, specs)
	waitAgents(t, m, len(specs))

	good := Message{Type: MsgHello, Cores: 64, WattsPerCore: 125, MaxFrac: 0.4}
	for _, v := range []float64{math.NaN(), math.Inf(1)} {
		for field, set := range map[string]func(*Message){
			"cores":          func(h *Message) { h.Cores = v },
			"watts_per_core": func(h *Message) { h.WattsPerCore = v },
			"max_frac":       func(h *Message) { h.MaxFrac = v },
		} {
			hello := good
			hello.JobID = "bad-" + field
			set(&hello)
			malformed, rejected := m.malformed.Value(), m.rejected.Value()
			conn, c := scriptConn(t, m, WireBinary, hello)
			// An accepted hello hears nothing until a market opens.
			_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
			if reply, err := c.Recv(); err != nil || reply.Type != MsgError {
				t.Fatalf("hello with %s = %v: reply %+v, %v; want an error message", field, v, reply, err)
			}
			if dm, dr := m.malformed.Value()-malformed, m.rejected.Value()-rejected; dm != 1 || dr != 1 {
				t.Errorf("hello with %s = %v: malformed +%d, rejected +%d, want +1, +1", field, v, dm, dr)
			}
		}
	}
	if n := m.AgentCount(); n != len(specs) {
		t.Fatalf("agents = %d after the refused hellos, want %d", n, len(specs))
	}
	out, err := m.RunMarket(8000)
	if err != nil {
		t.Fatal(err)
	}
	if p := out.Result.Price; !(p > 0 && p <= math.MaxFloat64) {
		t.Errorf("clearing price %v, want finite and positive", p)
	}
	if w := out.Result.SuppliedW; !(w > 0 && w <= math.MaxFloat64) {
		t.Errorf("supplied %v W, want finite and positive", w)
	}
	if len(out.Orders) != len(specs) {
		t.Errorf("%d orders, want one per accepted agent (%d)", len(out.Orders), len(specs))
	}
}

// TestBinaryAgentTCP exercises negotiation over real TCP: a binary fleet
// registers (version 1), clears a market, and lands in the binary wire
// counter.
func TestBinaryAgentTCP(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := pipeManager(t, ManagerConfig{RoundTimeout: time.Second, Telemetry: reg})
	for i := 0; i < 4; i++ {
		prof, err := perf.ProfileByName("XSBench")
		if err != nil {
			t.Fatal(err)
		}
		model := perf.NewCostModel(prof, 1, perf.CostLinear)
		a, err := Dial(m.Addr(), AgentConfig{
			JobID: "tcp-bin-" + itoa(i), Cores: 64, WattsPerCore: 125, MaxFrac: prof.MaxReduction(),
			Strategy: &core.RationalBidder{Cores: 64, Model: model},
			Wire:     WireBinary,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()
		if v := a.WireVersion(); v != FrameVersion {
			t.Fatalf("negotiated version = %d, want %d", v, FrameVersion)
		}
	}
	waitAgents(t, m, 4)
	out, err := m.RunMarket(8000)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Result.Converged {
		t.Error("binary TCP market did not converge")
	}
	if got := m.wireBinary.Value(); got != 4 {
		t.Errorf("binary wire registrations = %d, want 4", got)
	}
	if got := m.wireJSON.Value(); got != 0 {
		t.Errorf("json wire registrations = %d, want 0", got)
	}
}

// TestEvictionDeadlineBudget: a stalled agent (registers, reads prices,
// never bids) burns its deadline-miss budget, is evicted with the typed
// reason on the wire, the market still clears, and the eviction counter
// increments.
func TestEvictionDeadlineBudget(t *testing.T) {
	reg := telemetry.NewRegistry()
	tracer := telemetry.NewTracer(64)
	m := pipeManager(t, ManagerConfig{
		RoundTimeout:     150 * time.Millisecond,
		EvictAfterMisses: 2,
		Telemetry:        reg,
		Tracer:           tracer,
	})
	dialFleet(t, m, fleetSpecs(3))

	conn, sc := scriptConn(t, m, WireJSON, Message{Type: MsgHello, JobID: "stalled", Cores: 64, WattsPerCore: 125, MaxFrac: 0.4})
	_ = conn
	waitAgents(t, m, 4)
	// The stalled agent keeps reading (so writes to it never stall) but
	// never answers; capture the typed eviction error when it lands.
	evictErr := make(chan string, 1)
	go func() {
		for {
			msg, err := sc.Recv()
			if err != nil {
				evictErr <- ""
				return
			}
			if msg.Type == MsgError {
				evictErr <- msg.Reason
				return
			}
		}
	}()

	out, err := m.RunMarket(10000)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Result.Converged {
		t.Error("market with stalled agent did not converge")
	}
	if out.Result.Rounds < 2 {
		t.Fatalf("market cleared in %d rounds; budget test needs ≥2", out.Result.Rounds)
	}
	select {
	case reason := <-evictErr:
		if want := EvictedPrefix + string(ReasonDeadlineBudget); reason != want {
			t.Errorf("eviction reason on the wire = %q, want %q", reason, want)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("stalled agent never received its eviction error")
	}
	if got := m.evictDeadline.Value(); got != 1 {
		t.Errorf("%s{reason=%q} = %d, want 1", MetricEvictions, ReasonDeadlineBudget, got)
	}
	if got := m.Evictions(); got != 1 {
		t.Errorf("Evictions() = %d, want 1", got)
	}
	// The eviction left a flight-recorder breadcrumb in the span ring
	// naming the agent and the typed reason.
	foundSpan := false
	for _, s := range tracer.Spans() {
		if s.Name == "eviction" {
			foundSpan = true
			if s.Attr("agent") != "stalled" || s.Attr("reason") != string(ReasonDeadlineBudget) || s.Parent != 0 || s.Duration() != 0 {
				t.Errorf("eviction span %+v, want a zero-length root naming stalled and %s", s, ReasonDeadlineBudget)
			}
		}
	}
	if !foundSpan {
		t.Error("no eviction span reached the tracer ring")
	}
	deadline := time.Now().Add(2 * time.Second)
	for m.AgentCount() != 3 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := m.AgentCount(); got != 3 {
		t.Errorf("agents after eviction = %d, want 3", got)
	}
}

// TestWriteStallEviction: an agent that stops draining its socket trips
// the write deadline on the price broadcast and is evicted with
// reason=write_stall; the round still clears for the healthy fleet.
func TestWriteStallEviction(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := pipeManager(t, ManagerConfig{
		RoundTimeout: 150 * time.Millisecond,
		Telemetry:    reg,
	})
	dialFleet(t, m, fleetSpecs(3))
	// Register, then never read again: the next broadcast to this pipe
	// blocks until the shard's write deadline.
	scriptConn(t, m, WireJSON, Message{Type: MsgHello, JobID: "deaf", Cores: 64, WattsPerCore: 125, MaxFrac: 0.4})
	waitAgents(t, m, 4)

	out, err := m.RunMarket(10000)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Result.Converged {
		t.Error("market with write-stalled agent did not converge")
	}
	if got := m.evictWriteStall.Value(); got != 1 {
		t.Errorf("%s{reason=%q} = %d, want 1", MetricEvictions, ReasonWriteStall, got)
	}
}

// TestBackpressureCoalescing: an agent that floods k bids within one
// round contributes exactly one bid to the clear — the newest — and k−1
// to the coalesced counter. The one-slot mailbox is the bounded queue:
// flooding cannot grow manager memory or stall the round.
func TestBackpressureCoalescing(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := pipeManager(t, ManagerConfig{
		RoundTimeout: 2 * time.Second,
		MaxRounds:    1,
		Telemetry:    reg,
		// One shard, so the slowpoke holds the flooder's harvest back: a
		// shard harvests once its own members answered, and with the
		// default (one shard per core, up to 16) the flooder can sit alone
		// in a shard that harvests on its first bid.
		Shards: 1,
	})
	_, fc := scriptConn(t, m, WireBinary, Message{Type: MsgHello, JobID: "flooder", Cores: 64, WattsPerCore: 125, MaxFrac: 0.5})
	_, slowc := scriptConn(t, m, WireJSON, Message{Type: MsgHello, JobID: "slowpoke", Cores: 64, WattsPerCore: 125, MaxFrac: 0.5})
	waitAgents(t, m, 2)

	const floods = 6
	go func() {
		msg, err := fc.Recv()
		if err != nil || msg.Type != MsgPrice {
			return
		}
		for i := 1; i <= floods; i++ {
			// Last flood wins: delta climbs so the harvested bid is 6.
			if fc.Send(Message{Type: MsgBid, Round: msg.Round, TraceID: msg.TraceID, Delta: float64(i), B: 0.25}) != nil {
				return
			}
		}
		fc.Recv() // drain the order
	}()
	go func() {
		msg, err := slowc.Recv()
		if err != nil || msg.Type != MsgPrice {
			return
		}
		// Bid late enough that the flooder's burst is fully coalesced
		// before the round harvests.
		time.Sleep(300 * time.Millisecond)
		slowc.Send(Message{Type: MsgBid, Round: msg.Round, TraceID: msg.TraceID, Delta: 2, B: 0.25})
		slowc.Recv()
	}()

	if _, err := m.RunMarket(5000); err != nil {
		t.Fatal(err)
	}
	if got := m.coalesced.Value(); got != floods-1 {
		t.Errorf("%s = %d, want %d", MetricCoalescedBids, got, floods-1)
	}
	st := m.SnapshotState(0)
	var flooder *AgentState
	for i := range st.Agents {
		if st.Agents[i].JobID == "flooder" {
			flooder = &st.Agents[i]
		}
	}
	if flooder == nil || !flooder.HasBid {
		t.Fatalf("flooder missing from snapshot: %+v", st.Agents)
	}
	if flooder.Delta != floods {
		t.Errorf("harvested flooder bid delta = %v, want %v (the newest)", flooder.Delta, float64(floods))
	}
}

// TestNonMemberBidDoesNotEndHarvest: a connection that registers while a
// market is in flight is not in its roster, so a bid it sends for the
// current round must not count as an answer. Counted, it would end the
// shard's harvest before the real member answered, charging that member
// a bid timeout and a miss toward eviction.
func TestNonMemberBidDoesNotEndHarvest(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := pipeManager(t, ManagerConfig{
		RoundTimeout: 2 * time.Second,
		MaxRounds:    1,
		Telemetry:    reg,
		// One shard holds both connections, so the intruder's bid lands
		// in the member's harvest.
		Shards: 1,
	})
	_, mc := scriptConn(t, m, WireJSON, Message{Type: MsgHello, JobID: "member", Cores: 64, WattsPerCore: 125, MaxFrac: 0.5})
	waitAgents(t, m, 1)

	priced := make(chan Message, 1)
	go func() {
		msg, err := mc.Recv()
		if err != nil || msg.Type != MsgPrice {
			close(priced)
			return
		}
		priced <- msg
		time.Sleep(300 * time.Millisecond)
		mc.Send(Message{Type: MsgBid, Round: msg.Round, TraceID: msg.TraceID, Delta: 2, B: 0.25})
		mc.Recv() // drain the order
	}()
	done := make(chan error, 1)
	go func() {
		_, err := m.RunMarket(5000)
		done <- err
	}()

	price, ok := <-priced
	if !ok {
		t.Fatal("member never saw the round's price")
	}
	_, ic := scriptConn(t, m, WireJSON, Message{Type: MsgHello, JobID: "intruder", Cores: 64, WattsPerCore: 125, MaxFrac: 0.5})
	if err := ic.Send(Message{Type: MsgBid, Round: price.Round, Delta: 1, B: 0.25}); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot().Counter(MetricBidTimeouts); got != 0 {
		t.Errorf("%s = %d, want 0: the non-member's bid ended the harvest early", MetricBidTimeouts, got)
	}
	st := m.SnapshotState(0)
	for _, a := range st.Agents {
		if a.JobID == "member" && (!a.HasBid || a.Delta != 2) {
			t.Errorf("member's bid was not harvested: %+v", a)
		}
	}
}

// TestSnapshotRestore is the crash test: run a market, snapshot, kill
// the manager, restore into a fresh one, reconnect the fleet silently,
// and verify the next clear resumes at the identical price (bit for
// bit) from the restored bids — plus the strict file round trip.
func TestSnapshotRestore(t *testing.T) {
	specs := fleetSpecs(4)
	m := pipeManager(t, ManagerConfig{RoundTimeout: 2 * time.Second})
	dialFleet(t, m, specs)
	const targetW = 9000
	out, err := m.RunMarket(targetW)
	if err != nil {
		t.Fatal(err)
	}
	p1 := out.Result.Price

	st := m.SnapshotState(123456789)
	if st.Schema != StateSchema {
		t.Fatalf("snapshot schema = %q, want %q", st.Schema, StateSchema)
	}
	if st.MarketSeq != 1 {
		t.Errorf("snapshot market_seq = %d, want 1", st.MarketSeq)
	}
	if math.Float64bits(st.LastPrice) != math.Float64bits(p1) {
		t.Errorf("snapshot last_price = %v, want %v", st.LastPrice, p1)
	}
	if len(st.Agents) != len(specs) {
		t.Fatalf("snapshot agents = %d, want %d", len(st.Agents), len(specs))
	}
	for i := range st.Agents {
		if !st.Agents[i].HasBid {
			t.Errorf("snapshot agent %s has no bid", st.Agents[i].JobID)
		}
		if i > 0 && st.Agents[i-1].JobID >= st.Agents[i].JobID {
			t.Errorf("snapshot roster not sorted at %d", i)
		}
	}

	// File round trip (atomic write, strict read).
	path := filepath.Join(t.TempDir(), "mprd.state")
	if err := WriteStateFile(path, st); err != nil {
		t.Fatal(err)
	}
	st2, err := ReadStateFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st, st2) {
		t.Fatalf("state file round trip diverged:\n got  %+v\n want %+v", st2, st)
	}

	// Kill the manager mid-flight and restore into a fresh one.
	m.Close()
	m2 := pipeManager(t, ManagerConfig{
		RoundTimeout:     100 * time.Millisecond,
		MaxRounds:        1,
		EvictAfterMisses: -1,
	})
	if err := m2.RestoreState(st2); err != nil {
		t.Fatal(err)
	}
	if got := m2.RestoredPending(); got != len(specs) {
		t.Fatalf("restored pending = %d, want %d", got, len(specs))
	}
	if got := m2.LastPrice(); math.Float64bits(got) != math.Float64bits(p1) {
		t.Errorf("restored last price = %v, want %v", got, p1)
	}
	// The fleet reconnects but stays silent: the first post-restore round
	// must clear on the restored bids alone.
	for _, s := range specs {
		_, c := scriptConn(t, m2, WireJSON, Message{Type: MsgHello, JobID: s.job, Cores: s.cores, WattsPerCore: 125, MaxFrac: 0.9})
		go func(c wireCodec) {
			for {
				if _, err := c.Recv(); err != nil {
					return
				}
			}
		}(c)
	}
	waitAgents(t, m2, len(specs))
	if got := m2.RestoredPending(); got != 0 {
		t.Errorf("restored pending after reconnect = %d, want 0", got)
	}
	out2, err := m2.RunMarket(targetW)
	if err != nil {
		t.Fatal(err)
	}
	if got := math.Float64bits(out2.Result.Price); got != math.Float64bits(p1) {
		t.Errorf("post-restore clearing price = %v, want %v (bit-identical resume)", out2.Result.Price, p1)
	}
	if out2.TraceID != "m2" {
		t.Errorf("post-restore trace = %q, want m2 (market_seq resumed)", out2.TraceID)
	}
}

// TestStateValidation covers the strict reader: schema drift, duplicate
// jobs, bad specs, unknown fields and trailing bytes all fail loudly.
func TestStateValidation(t *testing.T) {
	good := &State{Schema: StateSchema, Agents: []AgentState{
		{JobID: "a", Cores: 4, WattsPerCore: 100, MaxFrac: 0.4, HasBid: true, Delta: 1, B: 0.2},
	}}
	if err := good.Validate(); err != nil {
		t.Fatalf("good state: %v", err)
	}
	bads := []*State{
		{Schema: "mprstate/v0", Agents: good.Agents},
		{Schema: StateSchema, Agents: []AgentState{{JobID: "", Cores: 4, WattsPerCore: 1, MaxFrac: 0.4}}},
		{Schema: StateSchema, Agents: []AgentState{{JobID: "a", Cores: -4, WattsPerCore: 1, MaxFrac: 0.4}}},
		{Schema: StateSchema, Agents: []AgentState{
			{JobID: "a", Cores: 4, WattsPerCore: 1, MaxFrac: 0.4},
			{JobID: "a", Cores: 4, WattsPerCore: 1, MaxFrac: 0.4},
		}},
		{Schema: StateSchema, Agents: []AgentState{{JobID: "a", Cores: 4, WattsPerCore: 1, MaxFrac: 0.4, HasBid: true, Delta: -1}}},
	}
	for i, st := range bads {
		if err := st.Validate(); err == nil {
			t.Errorf("bad state %d validated", i)
		}
	}
	// Unknown fields are schema drift, not forward compatibility.
	path := filepath.Join(t.TempDir(), "drift.state")
	if err := os.WriteFile(path, []byte(`{"schema":"mprstate/v1","saved_unix_ns":1,"market_seq":0,"agents":[],"surprise":true}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadStateFile(path); err == nil || !strings.Contains(err.Error(), "surprise") {
		t.Errorf("unknown field accepted: %v", err)
	}
	// A valid state followed by anything but white space is a damaged file.
	if err := WriteStateFile(path, good); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(raw, "garbage{"...), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadStateFile(path); err == nil {
		t.Error("state file with trailing bytes accepted")
	}
}

// TestManagerCloseLeaksNoGoroutines: every goroutine the manager starts —
// accept loop, shard loops, one reader per connection — is accounted for
// at shutdown. With agents registered over net.Pipe (both wires) and TCP
// and a market behind them, Close must bring the process's goroutine
// count back to what it was before NewManager; the agents' own loops end
// on the closed connections.
func TestManagerCloseLeaksNoGoroutines(t *testing.T) {
	baseline := runtime.NumGoroutine()

	m := pipeManager(t, ManagerConfig{Shards: 2, RoundTimeout: 500 * time.Millisecond})
	prof, err := perf.ProfileByName("XSBench")
	if err != nil {
		t.Fatal(err)
	}
	model := perf.NewCostModel(prof, 1, perf.CostLinear)
	var agents []*Agent
	for i, wire := range []string{WireJSON, WireBinary, WireJSON, WireBinary, WireJSON, WireBinary} {
		agents = append(agents, dialPipe(t, m, AgentConfig{
			JobID: "pipe-" + itoa(i), Cores: 32, WattsPerCore: 125, MaxFrac: prof.MaxReduction(),
			Strategy: &core.RationalBidder{Cores: 32, Model: model},
			Wire:     wire,
		}))
	}
	for i := 0; i < 4; i++ {
		agents = append(agents, dialAgent(t, m, "tcp-"+itoa(i), "XSBench", 32))
	}
	waitAgents(t, m, len(agents))
	if _, err := m.RunMarket(500); err != nil {
		t.Fatal(err)
	}

	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(5 * time.Second)
	for _, a := range agents {
		select {
		case <-a.Done():
		case <-deadline:
			t.Fatal("an agent's connection outlived Manager.Close")
		}
	}
	for until := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(until) {
			stacks := make([]byte, 1<<16)
			stacks = stacks[:runtime.Stack(stacks, true)]
			t.Fatalf("%d goroutines after Close, %d before NewManager:\n%s", runtime.NumGoroutine(), baseline, stacks)
		}
	}
}

// openFDs counts the process's open file descriptors, or returns -1 where
// /proc/self/fd cannot be read.
func openFDs() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(ents)
}

// TestManagerCloseLeaksNoFDs is the descriptor half of leak-free shutdown:
// the listener and every accepted socket are closed by Close, and the
// agents' own ends by their loops once the manager hangs up. With TCP
// agents registered on both wires, in both shards, streaming on, and a
// market behind them, the process's descriptor count must come back to
// what it was before NewManager.
func TestManagerCloseLeaksNoFDs(t *testing.T) {
	if openFDs() < 0 {
		t.Skip("/proc/self/fd is not readable here")
	}
	// The first socket of a process also opens the network poller's own
	// descriptors, which stay: have them open before the baseline.
	warm, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	warm.Close()
	baseline := openFDs()

	m := pipeManager(t, ManagerConfig{Shards: 2, Streaming: true, RoundTimeout: 500 * time.Millisecond})
	prof, err := perf.ProfileByName("XSBench")
	if err != nil {
		t.Fatal(err)
	}
	model := perf.NewCostModel(prof, 1, perf.CostLinear)
	var agents []*Agent
	for i, wire := range []string{WireJSON, WireBinary, WireJSON, WireBinary, WireJSON, WireBinary} {
		a, err := Dial(m.Addr(), AgentConfig{
			JobID: "tcp-" + itoa(i), Cores: 32, WattsPerCore: 125, MaxFrac: prof.MaxReduction(),
			Strategy: &core.RationalBidder{Cores: 32, Model: model},
			Wire:     wire,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { a.Close() })
		agents = append(agents, a)
	}
	waitAgents(t, m, len(agents))
	if got := openFDs(); got < baseline+1+2*len(agents) {
		t.Fatalf("%d descriptors with a listener and %d connections open, %d before: the count does not see sockets", got, len(agents), baseline)
	}
	if _, err := m.RunMarket(500); err != nil {
		t.Fatal(err)
	}

	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(5 * time.Second)
	for _, a := range agents {
		select {
		case <-a.Done():
		case <-deadline:
			t.Fatal("an agent's connection outlived Manager.Close")
		}
	}
	for until := time.Now().Add(5 * time.Second); openFDs() > baseline; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(until) {
			t.Fatalf("%d descriptors open after Close, %d before NewManager", openFDs(), baseline)
		}
	}
}

// TestUndecodableMessageCountedMalformed: bytes that arrive but do not
// decode used to end the read loop like a hang-up — the agent dropped as
// a plain peer_closed with mpr_agent_malformed_messages_total untouched.
// On both wires such a message now counts malformed exactly once before
// the unchanged drop, a clean EOF still counts nothing, and the next
// market over the survivors clears at the price of a fleet whose extra
// agent simply hung up.
func TestUndecodableMessageCountedMalformed(t *testing.T) {
	const targetW = 20000
	run := func(t *testing.T, wire string, garbage []byte) (price uint64, malformed int64) {
		reg := telemetry.NewRegistry()
		m := pipeManager(t, ManagerConfig{RoundTimeout: 2 * time.Second, Shards: 2, Telemetry: reg})
		specs := fleetSpecs(4)
		for i := range specs {
			specs[i].wire = wire
		}
		dialFleet(t, m, specs)
		conn, _ := scriptConn(t, m, wire, Message{Type: MsgHello, JobID: "garbler", Cores: 64, WattsPerCore: 125, MaxFrac: 0.4})
		waitAgents(t, m, len(specs)+1)
		if len(garbage) > 0 {
			if _, err := conn.Write(garbage); err != nil {
				t.Fatal(err)
			}
		}
		conn.Close()
		waitAgents(t, m, len(specs))
		out, err := m.RunMarket(targetW)
		if err != nil {
			t.Fatal(err)
		}
		if _, ordered := out.Orders["garbler"]; ordered {
			t.Error("the dropped agent is still on the market roster")
		}
		s := reg.Snapshot()
		if got := s.Counter(MetricAgentEvents + `{event="disconnect"}`); got != 1 {
			t.Errorf("disconnects = %d, want 1", got)
		}
		if got := m.Evictions(); got != 0 {
			t.Errorf("evictions = %d, want 0 (an undecodable message is a drop, not an eviction)", got)
		}
		if got := s.Gauges[MetricAgentsConnected]; got != float64(len(specs)) {
			t.Errorf("connected gauge = %g, want %d", got, len(specs))
		}
		return math.Float64bits(out.Result.Price), s.Counter(MetricMalformed)
	}
	for _, tc := range []struct {
		name, wire string
		garbage    []byte
	}{
		{"json/not json", WireJSON, []byte("not json\n")},
		{"json/float out of range", WireJSON, []byte(`{"type":"bid","round":1,"b":1e999}` + "\n")},
		{"json/truncated object", WireJSON, []byte(`{"type":"bid","round":1`)},
		{"binary/unknown type byte", WireBinary, []byte{frameMagic, 0x63, 0, 0, 0, 2, 0, 0}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			wantPrice, cleanMalformed := run(t, tc.wire, nil)
			if cleanMalformed != 0 {
				t.Errorf("clean hang-up counted %d malformed, want 0", cleanMalformed)
			}
			price, malformed := run(t, tc.wire, tc.garbage)
			if malformed != 1 {
				t.Errorf("malformed = %d, want 1", malformed)
			}
			if price != wantPrice {
				t.Errorf("clearing price %v after the undecodable message, %v after a clean hang-up",
					math.Float64frombits(price), math.Float64frombits(wantPrice))
			}
		})
	}
}
