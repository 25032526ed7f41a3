package agentproto

import (
	"bytes"
	"net"
	"testing"
	"time"

	"mpr/internal/core"
	"mpr/internal/perf"
	"mpr/internal/telemetry"
)

// TestWireFormatPinned pins the wire encoding byte-for-byte: messages
// without a trace ID must encode exactly as the pre-trace protocol did
// (the field is omitempty), and old-format bytes must decode to the same
// Message as before with an empty TraceID. This is the backward
// compatibility contract for mixed old/new fleets.
func TestWireFormatPinned(t *testing.T) {
	cases := []struct {
		name string
		msg  Message
		want string // exact bytes Send produces, including trailing newline
	}{
		{
			name: "bid untraced (old format)",
			msg:  Message{Type: MsgBid, Round: 3, Delta: 1.5, B: 0.25},
			want: `{"type":"bid","round":3,"delta":1.5,"b":0.25}` + "\n",
		},
		{
			name: "price untraced (old format)",
			msg:  Message{Type: MsgPrice, Round: 1, Price: 0.1, TargetW: 400},
			want: `{"type":"price","round":1,"price":0.1,"target_w":400}` + "\n",
		},
		{
			name: "bid traced",
			msg:  Message{Type: MsgBid, Round: 3, TraceID: "m1.r3", Delta: 1.5, B: 0.25},
			want: `{"type":"bid","round":3,"trace":"m1.r3","delta":1.5,"b":0.25}` + "\n",
		},
		{
			name: "price traced",
			msg:  Message{Type: MsgPrice, Round: 2, Price: 0.5, TargetW: 400, TraceID: "m7.r2"},
			want: `{"type":"price","round":2,"price":0.5,"target_w":400,"trace":"m7.r2"}` + "\n",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			c := NewCodec(&buf)
			if err := c.Send(tc.msg); err != nil {
				t.Fatal(err)
			}
			if got := buf.String(); got != tc.want {
				t.Errorf("encoded bytes:\n got %q\nwant %q", got, tc.want)
			}
			got, err := c.Recv()
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.msg {
				t.Errorf("decode round trip: %+v != %+v", got, tc.msg)
			}
		})
	}

	// Version negotiation is part of the wire ABI too: a binary agent's
	// very first bytes are "MPRB"+maxVersion, the manager answers
	// "MPRA"+chosenVersion, and a JSON-lines connection sends neither —
	// its first byte is the '{' of the hello, which is how the manager
	// tells the transports apart. Pin all three facts.
	t.Run("binary negotiation preamble", func(t *testing.T) {
		var agentOut bytes.Buffer
		v, err := negotiateClient(bytes.NewReader([]byte("MPRA\x01")), &agentOut)
		if err != nil || v != 1 {
			t.Fatalf("negotiateClient: v=%d err=%v", v, err)
		}
		if got := agentOut.String(); got != "MPRB\x01" {
			t.Errorf("client preamble %q, want %q", got, "MPRB\x01")
		}
		var mgrOut bytes.Buffer
		v, err = negotiateServer(bytes.NewReader([]byte("MPRB\x01")), &mgrOut)
		if err != nil || v != 1 {
			t.Fatalf("negotiateServer: v=%d err=%v", v, err)
		}
		if got := mgrOut.String(); got != "MPRA\x01" {
			t.Errorf("server ack %q, want %q", got, "MPRA\x01")
		}
		// The sniff byte that keeps old JSON agents working unchanged:
		// every JSON hello opens with '{', never the preamble magic 'M'.
		var jbuf bytes.Buffer
		if err := NewCodec(&jbuf).Send(Message{Type: MsgHello, JobID: "j1", Cores: 1, WattsPerCore: 1, MaxFrac: 0.4}); err != nil {
			t.Fatal(err)
		}
		if jbuf.Bytes()[0] != '{' || jbuf.Bytes()[0] == 'M' {
			t.Errorf("JSON hello first byte %q collides with the binary sniff", jbuf.Bytes()[0])
		}
	})
}

// TestTracePropagationSpans runs a traced market and checks that every
// responding agent yields a respond_bid span linked under its round's
// market_round span, with the agent's job ID as an attribute.
func TestTracePropagationSpans(t *testing.T) {
	tracer := telemetry.NewTracer(1024)
	m, err := NewManager("127.0.0.1:0", ManagerConfig{
		RoundTimeout: 500 * time.Millisecond,
		Tracer:       tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	jobs := []string{"j-alpha", "j-beta", "j-gamma"}
	for _, job := range jobs {
		prof, err := perf.ProfileByName("XSBench")
		if err != nil {
			t.Fatal(err)
		}
		model := perf.NewCostModel(prof, 1, perf.CostLinear)
		a, err := Dial(m.Addr(), AgentConfig{
			JobID: job, Cores: 128, WattsPerCore: 125, MaxFrac: prof.MaxReduction(),
			Strategy: &core.RationalBidder{Cores: 128, Model: model},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()
	}
	waitAgents(t, m, len(jobs))

	out, err := m.RunMarket(400)
	if err != nil {
		t.Fatal(err)
	}
	if out.TraceID != "m1" {
		t.Errorf("outcome trace = %q, want m1", out.TraceID)
	}

	// Index the span tree: market_round span IDs, and respond_bid spans
	// grouped by parent.
	spans := tracer.Spans()
	roundIDs := map[uint64]bool{}
	for _, s := range spans {
		if s.Name == "market_round" {
			roundIDs[s.ID] = true
		}
	}
	if len(roundIDs) != out.Result.Rounds {
		t.Fatalf("market_round spans = %d, want %d", len(roundIDs), out.Result.Rounds)
	}
	perRound := map[uint64]map[string]bool{}
	for _, s := range spans {
		if s.Name != "respond_bid" {
			continue
		}
		if !roundIDs[s.Parent] {
			t.Fatalf("respond_bid span %d has parent %d, not a market_round", s.ID, s.Parent)
		}
		if s.EndNS < s.StartNS {
			t.Errorf("respond_bid span %d ends before it starts", s.ID)
		}
		var agent string
		for _, a := range s.Attrs {
			if a.Key == "agent" {
				agent = a.Value
			}
		}
		if agent == "" {
			t.Fatalf("respond_bid span %d has no agent attr", s.ID)
		}
		if perRound[s.Parent] == nil {
			perRound[s.Parent] = map[string]bool{}
		}
		perRound[s.Parent][agent] = true
	}
	// Every round should have one respond_bid per agent (no timeouts in
	// this in-process test).
	if len(perRound) != out.Result.Rounds {
		t.Fatalf("rounds with respond_bid spans = %d, want %d", len(perRound), out.Result.Rounds)
	}
	for parent, agents := range perRound {
		if len(agents) != len(jobs) {
			t.Errorf("round span %d: respond_bid agents = %d, want %d", parent, len(agents), len(jobs))
		}
		for _, job := range jobs {
			if !agents[job] {
				t.Errorf("round span %d: no respond_bid span for %s", parent, job)
			}
		}
	}

	// Round and market spans carry the hierarchical trace IDs.
	round := 0
	for _, s := range spans {
		switch s.Name {
		case "market_round":
			round++
			if want := "m1.r" + itoa(round); s.Attr("trace") != want {
				t.Errorf("market_round span trace = %q, want %q", s.Attr("trace"), want)
			}
		case "market":
			if s.Attr("trace") != "m1" {
				t.Errorf("market span trace = %q, want m1", s.Attr("trace"))
			}
		}
	}
}

// TestOldFormatAgentInterop mixes a modern trace-echoing agent with a
// hand-rolled "old protocol" agent that never sends the trace field. The
// market must clear for both, and only the modern agent may produce
// respond_bid spans.
func TestOldFormatAgentInterop(t *testing.T) {
	tracer := telemetry.NewTracer(1024)
	m, err := NewManager("127.0.0.1:0", ManagerConfig{
		RoundTimeout: 500 * time.Millisecond,
		Tracer:       tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	// Modern agent.
	prof, err := perf.ProfileByName("XSBench")
	if err != nil {
		t.Fatal(err)
	}
	model := perf.NewCostModel(prof, 1, perf.CostLinear)
	modern, err := Dial(m.Addr(), AgentConfig{
		JobID: "j-new", Cores: 128, WattsPerCore: 125, MaxFrac: prof.MaxReduction(),
		Strategy: &core.RationalBidder{Cores: 128, Model: model},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer modern.Close()

	// Old-format agent: a raw codec that answers prices with bids that
	// deliberately omit the trace field, exactly as a pre-trace binary
	// would.
	conn, err := net.Dial("tcp", m.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	old := NewCodec(conn)
	if err := old.Send(Message{Type: MsgHello, JobID: "j-old", Cores: 64, WattsPerCore: 125, MaxFrac: 0.4}); err != nil {
		t.Fatal(err)
	}
	oldDone := make(chan error, 1)
	go func() {
		for {
			msg, err := old.Recv()
			if err != nil {
				oldDone <- err
				return
			}
			switch msg.Type {
			case MsgPrice:
				// Fixed supply function, no TraceID echoed.
				if err := old.Send(Message{Type: MsgBid, Round: msg.Round, Delta: 10, B: 0.3}); err != nil {
					oldDone <- err
					return
				}
			case MsgOrder:
				oldDone <- nil
				return
			}
		}
	}()
	waitAgents(t, m, 2)

	out, err := m.RunMarket(400)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := out.Orders["j-old"]; !ok {
		t.Fatal("old-format agent got no order")
	}
	if _, ok := out.Orders["j-new"]; !ok {
		t.Fatal("modern agent got no order")
	}
	select {
	case err := <-oldDone:
		if err != nil {
			t.Fatalf("old-format agent: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("old-format agent never received its order")
	}

	// Only the modern agent is traced.
	for _, s := range tracer.Spans() {
		if s.Name != "respond_bid" {
			continue
		}
		for _, a := range s.Attrs {
			if a.Key == "agent" && a.Value == "j-old" {
				t.Errorf("untraced old-format agent produced a respond_bid span")
			}
			if a.Key == "agent" && a.Value != "j-new" && a.Value != "j-old" {
				t.Errorf("unexpected respond_bid agent %q", a.Value)
			}
		}
	}
	foundModern := false
	for _, s := range tracer.Spans() {
		if s.Name == "respond_bid" {
			foundModern = true
		}
	}
	if !foundModern {
		t.Error("modern agent produced no respond_bid spans")
	}
}

// TestServeConnPipe exercises the fd-free transport: agents attached over
// net.Pipe via Manager.ServeConn and Agent.DialConn clear a market
// exactly like TCP ones.
func TestServeConnPipe(t *testing.T) {
	m, err := NewManager("127.0.0.1:0", ManagerConfig{RoundTimeout: 500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	apps := []string{"XSBench", "RSBench", "SimpleMOC", "CoMD"}
	n := 2 * len(apps)
	for i := 0; i < n; i++ {
		prof, err := perf.ProfileByName(apps[i%len(apps)])
		if err != nil {
			t.Fatal(err)
		}
		model := perf.NewCostModel(prof, 1, perf.CostLinear)
		mgrEnd, agentEnd := net.Pipe()
		if err := m.ServeConn(mgrEnd); err != nil {
			t.Fatal(err)
		}
		a, err := DialConn(agentEnd, AgentConfig{
			JobID: "pipe-" + itoa(i), Cores: 64, WattsPerCore: 125, MaxFrac: prof.MaxReduction(),
			Strategy: &core.RationalBidder{Cores: 64, Model: model},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()
	}
	waitAgents(t, m, n)

	out, err := m.RunMarket(16000)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Orders) != n {
		t.Fatalf("orders = %d, want %d", len(out.Orders), n)
	}
	if !out.Result.Converged {
		t.Error("pipe market did not converge")
	}
}

// itoa avoids strconv imports sprinkled through table tests.
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}
