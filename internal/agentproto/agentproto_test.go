package agentproto

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mpr/internal/check/floats"
	"mpr/internal/core"
	"mpr/internal/perf"
	"mpr/internal/telemetry"
)

func TestCodecRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	c := NewCodec(struct {
		io.Reader
		io.Writer
	}{&buf, &buf})
	want := Message{Type: MsgBid, Round: 3, Delta: 1.5, B: 0.25}
	if err := c.Send(want); err != nil {
		t.Fatal(err)
	}
	got, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("round trip: %+v != %+v", got, want)
	}
	if _, err := c.Recv(); err != io.EOF {
		t.Errorf("want EOF at end, got %v", err)
	}
}

func TestCodecBadJSON(t *testing.T) {
	c := NewCodec(struct {
		io.Reader
		io.Writer
	}{strings.NewReader("not-json\n"), io.Discard})
	if _, err := c.Recv(); err == nil {
		t.Error("bad JSON accepted")
	}
}

func startManager(t *testing.T) *Manager {
	t.Helper()
	m, err := NewManager("127.0.0.1:0", ManagerConfig{RoundTimeout: 500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

func dialAgent(t *testing.T, m *Manager, jobID, app string, cores float64) *Agent {
	t.Helper()
	prof, err := perf.ProfileByName(app)
	if err != nil {
		t.Fatal(err)
	}
	model := perf.NewCostModel(prof, 1, perf.CostLinear)
	a, err := Dial(m.Addr(), AgentConfig{
		JobID:        jobID,
		Cores:        cores,
		WattsPerCore: 125,
		MaxFrac:      prof.MaxReduction(),
		Strategy:     &core.RationalBidder{Cores: cores, Model: model},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	return a
}

func waitAgents(t *testing.T, m *Manager, n int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for m.AgentCount() != n {
		if time.Now().After(deadline) {
			t.Fatalf("agents = %d, want %d", m.AgentCount(), n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestMarketOverTCP(t *testing.T) {
	m := startManager(t)
	apps := []string{"XSBench", "RSBench", "SimpleMOC", "CoMD"}
	var orderMu sync.Mutex
	payments := map[string]float64{}
	for i, app := range apps {
		prof, _ := perf.ProfileByName(app)
		model := perf.NewCostModel(prof, 1, perf.CostLinear)
		id := app
		a, err := Dial(m.Addr(), AgentConfig{
			JobID: id, Cores: 16, WattsPerCore: 125, MaxFrac: prof.MaxReduction(),
			Strategy: &core.RationalBidder{Cores: 16, Model: model},
			OnOrder: func(red, price, pay float64) {
				orderMu.Lock()
				payments[id] = pay
				orderMu.Unlock()
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { a.Close() })
		_ = i
	}
	waitAgents(t, m, len(apps))

	target := 2000.0
	out, err := m.RunMarket(target)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Result.Converged {
		t.Errorf("market did not converge in %d rounds", out.Result.Rounds)
	}
	if out.Result.SuppliedW < target-1e-6 {
		t.Errorf("supplied %v < target %v", out.Result.SuppliedW, target)
	}
	if len(out.Orders) != len(apps) {
		t.Errorf("orders = %d", len(out.Orders))
	}
	// Sensitive SimpleMOC reduces less than insensitive RSBench.
	if out.Orders["SimpleMOC"] >= out.Orders["RSBench"] {
		t.Errorf("SimpleMOC %v should reduce less than RSBench %v",
			out.Orders["SimpleMOC"], out.Orders["RSBench"])
	}
	// Orders were delivered to agents.
	deadline := time.Now().Add(2 * time.Second)
	for {
		orderMu.Lock()
		n := len(payments)
		orderMu.Unlock()
		if n == len(apps) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d agents got orders", n, len(apps))
		}
		time.Sleep(5 * time.Millisecond)
	}
	for id, pay := range payments {
		want := out.Result.Price * out.Orders[id]
		if !floats.AbsEqual(pay, want, 1e-9) {
			t.Errorf("%s payment %v != %v", id, pay, want)
		}
	}
	m.Lift()
}

func TestMarketNoAgents(t *testing.T) {
	m := startManager(t)
	if _, err := m.RunMarket(100); err != core.ErrNoParticipants {
		t.Errorf("err = %v, want ErrNoParticipants", err)
	}
}

func TestDuplicateJobIDRejected(t *testing.T) {
	m := startManager(t)
	a1 := dialAgent(t, m, "job1", "XSBench", 8)
	waitAgents(t, m, 1)
	_ = a1
	prof, _ := perf.ProfileByName("CoMD")
	model := perf.NewCostModel(prof, 1, perf.CostLinear)
	a2, err := Dial(m.Addr(), AgentConfig{
		JobID: "job1", Cores: 8, WattsPerCore: 125, MaxFrac: prof.MaxReduction(),
		Strategy: &core.RationalBidder{Cores: 8, Model: model},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a2.Close()
	select {
	case <-a2.Done():
		if a2.Err() == nil || !strings.Contains(a2.Err().Error(), "duplicate") {
			t.Errorf("err = %v, want duplicate job_id", a2.Err())
		}
	case <-time.After(2 * time.Second):
		t.Fatal("duplicate agent not rejected")
	}
	if m.AgentCount() != 1 {
		t.Errorf("agent count = %d", m.AgentCount())
	}
}

func TestAgentDisconnectUnregisters(t *testing.T) {
	m := startManager(t)
	a := dialAgent(t, m, "gone", "HPCCG", 4)
	waitAgents(t, m, 1)
	a.Close()
	waitAgents(t, m, 0)
}

func TestMarketSurvivesSilentAgent(t *testing.T) {
	m := startManager(t)
	dialAgent(t, m, "good", "RSBench", 32)
	// A raw connection that says hello but never bids.
	conn, err := net.Dial("tcp", m.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	codec := NewCodec(conn)
	if err := codec.Send(Message{Type: MsgHello, JobID: "mute", Cores: 8, WattsPerCore: 125, MaxFrac: 0.7}); err != nil {
		t.Fatal(err)
	}
	waitAgents(t, m, 2)
	// Small target the good agent can cover alone.
	out, err := m.RunMarket(500)
	if err != nil {
		t.Fatal(err)
	}
	if out.Result.SuppliedW < 500-1e-6 {
		t.Errorf("supplied %v despite silent agent", out.Result.SuppliedW)
	}
	if out.Orders["mute"] != 0 {
		t.Errorf("mute agent got order %v, want 0", out.Orders["mute"])
	}
}

func TestHelloValidation(t *testing.T) {
	m := startManager(t)
	conn, err := net.Dial("tcp", m.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	codec := NewCodec(conn)
	if err := codec.Send(Message{Type: MsgHello, JobID: "bad", Cores: 0}); err != nil {
		t.Fatal(err)
	}
	msg, err := codec.Recv()
	if err != nil || msg.Type != MsgError {
		t.Errorf("want error reply, got %+v, %v", msg, err)
	}
}

func TestDialValidation(t *testing.T) {
	if _, err := Dial("127.0.0.1:1", AgentConfig{}); err == nil {
		t.Error("empty config accepted")
	}
	prof, _ := perf.ProfileByName("XSBench")
	model := perf.NewCostModel(prof, 1, perf.CostLinear)
	cfg := AgentConfig{JobID: "x", Cores: 1, WattsPerCore: 125, MaxFrac: 0.7,
		Strategy: &core.RationalBidder{Cores: 1, Model: model}}
	if _, err := Dial("127.0.0.1:1", cfg); err == nil {
		t.Error("dial to dead port should fail")
	}
	cfg.Strategy = nil
	if _, err := Dial("127.0.0.1:1", cfg); err == nil {
		t.Error("missing strategy accepted")
	}
}

// A misbehaving agent that floods stale bids from old rounds must not
// corrupt the current round's clearing.
func TestStaleBidsDiscarded(t *testing.T) {
	m := startManager(t)
	dialAgent(t, m, "good", "RSBench", 32)
	conn, err := net.Dial("tcp", m.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	codec := NewCodec(conn)
	if err := codec.Send(Message{Type: MsgHello, JobID: "stale", Cores: 8, WattsPerCore: 125, MaxFrac: 0.7}); err != nil {
		t.Fatal(err)
	}
	waitAgents(t, m, 2)
	// The stale agent answers every price announcement with a bid
	// stamped round 0... actually with an old round number and an
	// absurd supply, which the manager must ignore.
	go func() {
		for {
			msg, err := codec.Recv()
			if err != nil {
				return
			}
			if msg.Type == MsgPrice {
				// Answer with a stale round number (msg.Round - 1).
				_ = codec.Send(Message{Type: MsgBid, Round: msg.Round - 1, Delta: 1e9, B: 0})
			}
		}
	}()
	out, err := m.RunMarket(500)
	if err != nil {
		t.Fatal(err)
	}
	// The stale agent's absurd Δ=1e9 bids (always one round behind)
	// must never be accepted for the current round, so its order stays
	// sane: at most its declared max reduction (8 cores × 0.7).
	if out.Orders["stale"] > 8*0.7+1e-6 {
		t.Errorf("stale agent order = %v, stale bid leaked in", out.Orders["stale"])
	}
	if out.Result.SuppliedW < 500-1e-6 {
		t.Errorf("supplied %v", out.Result.SuppliedW)
	}
}

// Streaming mode: each incoming bid must trigger an incremental re-clear
// (one stream_update event and one counted stream update per bid), and
// the market must clear to the same bits as the batch-per-round path over
// the same agent population.
func TestMarketStreamingOverTCP(t *testing.T) {
	reg := telemetry.NewRegistry()
	tracer := telemetry.NewTracer(4096)
	m, err := NewManager("127.0.0.1:0", ManagerConfig{
		RoundTimeout: 500 * time.Millisecond,
		Streaming:    true,
		Telemetry:    reg,
		Tracer:       tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	apps := []string{"XSBench", "RSBench", "SimpleMOC", "CoMD"}
	for i, app := range apps {
		dialAgent(t, m, fmt.Sprintf("s%d", i), app, 16)
	}
	waitAgents(t, m, len(apps))

	target := 2000.0
	out, err := m.RunMarket(target)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Result.Converged {
		t.Errorf("streaming market did not converge in %d rounds", out.Result.Rounds)
	}
	if out.Result.SuppliedW < target-1e-6 {
		t.Errorf("supplied %v < target %v", out.Result.SuppliedW, target)
	}
	var updates []float64
	for _, e := range tracer.Events() {
		if e.Name != "stream_update" {
			continue
		}
		if e.Label == "" || e.Round < 1 {
			t.Errorf("bad stream update: job %q round %d", e.Label, e.Round)
		}
		updates = append(updates, e.Price)
	}
	if tracer.Dropped() != 0 {
		t.Fatalf("tracer dropped %d events; enlarge the ring", tracer.Dropped())
	}
	n := len(updates)
	// Every answered bid re-clears: at least one update per agent per
	// round, and the final published price is the market's price.
	if n == 0 || n < len(apps)*out.Result.Rounds {
		t.Fatalf("observed %d stream updates, want ≥ %d", n, len(apps)*out.Result.Rounds)
	}
	if last := updates[n-1]; !floats.RelEqual(last, out.Result.Price, 1e-9) {
		t.Errorf("last streamed price %v != clearing price %v", last, out.Result.Price)
	}
	if got := reg.Snapshot().Counter(MetricStreamUpdates); got != int64(n) {
		t.Errorf("stream update counter = %d, events = %d", got, n)
	}

	// The batch-per-round manager over an identical population reaches
	// the same equilibrium price.
	mb := startManager(t)
	for i, app := range apps {
		dialAgent(t, mb, fmt.Sprintf("b%d", i), app, 16)
	}
	waitAgents(t, mb, len(apps))
	batch, err := mb.RunMarket(target)
	if err != nil {
		t.Fatal(err)
	}
	// The round clears through the same index in both modes, so the feed
	// changes nothing: same price, same orders, bit for bit (the roster is
	// sorted by job ID, and s<i> and b<i> sort alike).
	if math.Float64bits(out.Result.Price) != math.Float64bits(batch.Result.Price) {
		t.Errorf("streaming price %v vs batch %v", out.Result.Price, batch.Result.Price)
	}
	for i := range apps {
		s, b := out.Orders[fmt.Sprintf("s%d", i)], batch.Orders[fmt.Sprintf("b%d", i)]
		if math.Float64bits(s) != math.Float64bits(b) {
			t.Errorf("agent %d: streaming order %v vs batch %v", i, s, b)
		}
	}

	// A 24-agent pipe fleet, where the treap's summation order has more
	// room to differ from the index's.
	fleet := func(streaming bool) ([]uint64, *MarketOutcome) {
		tracer := telemetry.NewTracer(4096)
		m := pipeManager(t, ManagerConfig{RoundTimeout: 2 * time.Second, Shards: 4, Tracer: tracer, Streaming: streaming})
		dialFleet(t, m, fleetSpecs(24))
		return marketTrail(t, m, tracer, 30000)
	}
	batchTrail, batchOut := fleet(false)
	streamTrail, streamOut := fleet(true)
	if !reflect.DeepEqual(streamTrail, batchTrail) {
		t.Errorf("24 agents: streaming price trail %v vs batch %v", streamTrail, batchTrail)
	}
	for job, red := range batchOut.Orders {
		if got := streamOut.Orders[job]; math.Float64bits(got) != math.Float64bits(red) {
			t.Errorf("24 agents: streaming order[%s] = %v, batch %v", job, got, red)
		}
	}
}

// A market with nothing to buy asks nobody: no price broadcast, Rounds 0,
// and every agent still receives its zero order.
func TestNonPositiveTargetAsksNobody(t *testing.T) {
	var prices, orders atomic.Int64
	m := pipeManager(t, ManagerConfig{RoundTimeout: 500 * time.Millisecond})
	specs := fleetSpecs(4)
	for _, s := range specs {
		prof, err := perf.ProfileByName(s.app)
		if err != nil {
			t.Fatal(err)
		}
		dialPipe(t, m, AgentConfig{
			JobID: s.job, Cores: s.cores, WattsPerCore: 125, MaxFrac: prof.MaxReduction(),
			Strategy: countingBidder{
				Bidder: &core.RationalBidder{Cores: s.cores, Model: perf.NewCostModel(prof, 1, perf.CostLinear)},
				prices: &prices,
			},
			OnOrder: func(red, price, pay float64) {
				if red != 0 || price != 0 || pay != 0 {
					t.Errorf("order (%v cores at %v, pay %v) for nothing to buy", red, price, pay)
				}
				orders.Add(1)
			},
		})
	}
	waitAgents(t, m, len(specs))
	for k, target := range []float64{0, -500} {
		out, err := m.RunMarket(target)
		if err != nil {
			t.Fatal(err)
		}
		if out.Result.Rounds != 0 || !out.Result.Converged || out.Result.Price != 0 || len(out.Orders) != len(specs) {
			t.Fatalf("target %v: %+v, %d orders", target, out.Result, len(out.Orders))
		}
		if out.Result.TargetW != target {
			t.Fatalf("target %v: TargetW = %v, want the request echoed", target, out.Result.TargetW)
		}
		for job, red := range out.Orders {
			if red != 0 {
				t.Fatalf("target %v: %s ordered to reduce %v", target, job, red)
			}
		}
		want := int64((k + 1) * len(specs))
		deadline := time.Now().Add(2 * time.Second)
		for orders.Load() < want && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		if got := orders.Load(); got != want {
			t.Fatalf("target %v: %d orders delivered, want %d", target, got, want)
		}
	}
	if n := prices.Load(); n != 0 {
		t.Fatalf("agents answered %d prices for nothing to buy", n)
	}
}

// countingBidder counts the price messages its agent answered.
type countingBidder struct {
	core.Bidder
	prices *atomic.Int64
}

func (b countingBidder) RespondBid(price float64) core.Bid {
	b.prices.Add(1)
	return b.Bidder.RespondBid(price)
}

// A non-finite target is refused by the manager's own validation before
// any shard command — not by the price encoder after the roster was
// installed — and leaves the manager as it found it: the next finite
// market lands on the price a fresh manager finds.
func TestRunMarketRefusesNonFiniteTarget(t *testing.T) {
	apps := []string{"XSBench", "RSBench", "SimpleMOC", "CoMD"}
	var prices atomic.Int64
	fleet := func(t *testing.T, streaming bool) *Manager {
		m, err := NewManager("127.0.0.1:0", ManagerConfig{RoundTimeout: 500 * time.Millisecond, Streaming: streaming})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { m.Close() })
		for i, app := range apps {
			prof, err := perf.ProfileByName(app)
			if err != nil {
				t.Fatal(err)
			}
			a, err := Dial(m.Addr(), AgentConfig{
				JobID: fmt.Sprintf("j%d", i), Cores: 16, WattsPerCore: 125, MaxFrac: prof.MaxReduction(),
				Strategy: countingBidder{
					Bidder: &core.RationalBidder{Cores: 16, Model: perf.NewCostModel(prof, 1, perf.CostLinear)},
					prices: &prices,
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { a.Close() })
		}
		waitAgents(t, m, len(apps))
		return m
	}
	for _, streaming := range []bool{false, true} {
		for _, target := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			t.Run(fmt.Sprintf("streaming=%v/%v", streaming, target), func(t *testing.T) {
				prices.Store(0)
				m := fleet(t, streaming)
				out, err := m.RunMarket(target)
				if err == nil {
					t.Fatalf("target %v accepted: %+v", target, out.Result)
				}
				if !strings.Contains(err.Error(), "target must be finite") || strings.Contains(err.Error(), "encode") {
					t.Fatalf("refused by %q, want the manager's own target validation", err)
				}
				if n := prices.Load(); n != 0 {
					t.Fatalf("agents answered %d price messages of a refused market", n)
				}
				if r := m.curRound.Load(); r != 0 {
					t.Fatalf("curRound = %d after a refused market, want 0", r)
				}
				got, err := m.RunMarket(2000)
				if err != nil {
					t.Fatal(err)
				}
				if r := m.curRound.Load(); r != 0 {
					t.Fatalf("curRound = %d after a finished market, want 0", r)
				}
				want, err := fleet(t, streaming).RunMarket(2000)
				if err != nil {
					t.Fatal(err)
				}
				if !got.Result.Converged || got.Result.Rounds != want.Result.Rounds ||
					!floats.RelEqual(got.Result.Price, want.Result.Price, 1e-9) {
					t.Fatalf("market after a refusal: price %v in %d rounds (converged %v), fresh manager %v in %d",
						got.Result.Price, got.Result.Rounds, got.Result.Converged, want.Result.Price, want.Result.Rounds)
				}
			})
		}
	}
}
