package agentproto

import (
	"bytes"
	"encoding/hex"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"
)

// frameMessages is a representative message per type, fields as the
// protocol actually uses them.
func frameMessages() []Message {
	return []Message{
		{Type: MsgHello, JobID: "job-42", Cores: 64, WattsPerCore: 5.5, MaxFrac: 0.4},
		{Type: MsgPrice, Round: 3, Price: 0.125, TargetW: 4000, TraceID: "m7.r3"},
		{Type: MsgBid, Round: 3, TraceID: "m7.r3", Delta: 1.5, B: 0.25},
		{Type: MsgOrder, Price: 0.125, ReductionCores: 12.5, PaymentRate: 1.5625},
		{Type: MsgLift},
		{Type: MsgError, Reason: "duplicate job_id"},
	}
}

func TestFrameCodecRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	enc := NewFrameCodec(&buf, &buf)
	msgs := frameMessages()
	// Off-type field combinations must survive too — the codec is
	// generic over the envelope, not per-type schemas.
	msgs = append(msgs,
		Message{Type: MsgBid, JobID: "weird", Round: -9, Delta: -0.0, B: 1e-300, Reason: "r"},
		Message{Type: MsgPrice, Price: 0.1, TraceID: strings.Repeat("t", 300)},
	)
	for _, want := range msgs {
		if err := enc.Send(want); err != nil {
			t.Fatalf("Send(%v): %v", want, err)
		}
	}
	for i, want := range msgs {
		got, err := enc.Recv()
		if err != nil {
			t.Fatalf("Recv %d: %v", i, err)
		}
		// -0.0 is omitted on the wire (non-zero test) exactly like JSON's
		// omitempty, so it round-trips to +0.
		if want.Delta == 0 {
			want.Delta = 0
		}
		if got != want {
			t.Fatalf("message %d: got %+v want %+v", i, got, want)
		}
	}
	if _, err := enc.Recv(); err != io.EOF {
		t.Fatalf("Recv at end: %v, want io.EOF", err)
	}
}

// TestFramePinned pins the exact wire bytes of a bid frame — the binary
// twin of TestWireFormatPinned's JSON goldens. A byte of drift here is a
// protocol break for deployed binary agents.
func TestFramePinned(t *testing.T) {
	var buf bytes.Buffer
	c := NewFrameCodec(&buf, &buf)
	if err := c.Send(Message{Type: MsgBid, Round: 3, Delta: 1.5, B: 0.25}); err != nil {
		t.Fatal(err)
	}
	want := "" +
		"a703" + // magic, type=bid
		"00000016" + // payload length 22
		"0310" + // bitmap: round|delta|b
		"00000003" + // round 3
		"3ff8000000000000" + // delta 1.5
		"3fd0000000000000" // b 0.25
	if got := hex.EncodeToString(buf.Bytes()); got != want {
		t.Fatalf("bid frame bytes:\n got %s\nwant %s", got, want)
	}
}

func TestNegotiationVersions(t *testing.T) {
	// A future agent offering a higher version gets ours back.
	reply := &bytes.Buffer{}
	v, err := negotiateServer(bytes.NewReader([]byte("MPRB\x7f")), reply)
	if err != nil || v != FrameVersion {
		t.Fatalf("higher offer: v=%d err=%v", v, err)
	}
	if got := reply.Bytes()[4]; got != FrameVersion {
		t.Fatalf("ack version %d, want %d", got, FrameVersion)
	}
	// Version 0 is unsupportable: server acks 0 and errors; a client
	// reading that ack errors too.
	reply.Reset()
	if _, err := negotiateServer(bytes.NewReader([]byte("MPRB\x00")), reply); err == nil {
		t.Fatal("version-0 offer: want error")
	}
	if _, err := negotiateClient(bytes.NewReader(reply.Bytes()), io.Discard); err == nil {
		t.Fatal("version-0 ack: want client error")
	}
	// Garbage magic.
	if _, err := negotiateServer(bytes.NewReader([]byte("HTTP/")), io.Discard); err == nil {
		t.Fatal("bad magic: want error")
	}
	if _, err := negotiateClient(bytes.NewReader([]byte("NOPE\x01")), io.Discard); err == nil {
		t.Fatal("bad ack magic: want error")
	}
}

func TestFrameCodecMalformed(t *testing.T) {
	cases := map[string]string{
		"bad magic":       "ff0300000000",
		"bad type":        "a7ff00000000",
		"oversize":        "a703ffffffff",
		"unknown bits":    "a703000000028000",         // bit 15 set
		"truncated field": "a70300000006031000000003", // bitmap wants delta+b, payload ends
		"trailing bytes":  "a7030000000400000000",     // empty bitmap, 2 extra bytes
	}
	for name, h := range cases {
		raw, err := hex.DecodeString(h)
		if err != nil {
			t.Fatalf("%s: bad hex: %v", name, err)
		}
		c := NewFrameCodec(bytes.NewReader(raw), io.Discard)
		if _, err := c.Recv(); err == nil {
			t.Errorf("%s: Recv succeeded, want error", name)
		}
	}
	// A short header is an unexpected EOF, not a silent success.
	c := NewFrameCodec(bytes.NewReader([]byte{frameMagic, frameBid}), io.Discard)
	if _, err := c.Recv(); err == nil {
		t.Fatal("short header: want error")
	}
}

// TestFrameCodecZeroAlloc gates the steady-state price/bid hot path at
// zero allocations per message in both directions — the point of binary
// framing at C1M scale. The first Recv of a new trace string may
// allocate (intern-cache fill); steady rounds reuse it.
func TestFrameCodecZeroAlloc(t *testing.T) {
	var buf bytes.Buffer
	c := NewFrameCodec(&buf, &buf)
	price := Message{Type: MsgPrice, Round: 7, Price: 0.125, TargetW: 4000, TraceID: "m3.r7"}
	bid := Message{Type: MsgBid, Round: 7, TraceID: "m3.r7", Delta: 1.5, B: 0.25}
	// Warm the buffers and intern caches.
	for i := 0; i < 4; i++ {
		if err := c.Send(price); err != nil {
			t.Fatal(err)
		}
		if err := c.Send(bid); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Recv(); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Recv(); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := c.Send(price); err != nil {
			t.Fatal(err)
		}
		if err := c.Send(bid); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Recv(); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Recv(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("frame codec hot path allocates %.1f/op, want 0", allocs)
	}
}

// TestFrameWriteDeadline verifies Send surfaces net write timeouts as
// net.Error timeouts — the signal the shard loop evicts write-stalled
// agents on.
func TestFrameWriteDeadline(t *testing.T) {
	mgr, agent := net.Pipe()
	defer mgr.Close()
	defer agent.Close()
	c := NewFrameCodec(mgr, mgr)
	_ = mgr.SetWriteDeadline(time.Now().Add(20 * time.Millisecond))
	err := c.Send(Message{Type: MsgPrice, Round: 1, Price: 0.1})
	if err == nil {
		t.Fatal("Send to unread pipe: want timeout error")
	}
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("Send error %v: want net.Error timeout", err)
	}
}

// TestFrameStringLimit pins the uint16 length prefix's limit: a string
// field one byte over 65,535 is refused before anything is written, and
// one at the limit round-trips.
func TestFrameStringLimit(t *testing.T) {
	fields := map[string]func(*Message) *string{
		"JobID":   func(m *Message) *string { return &m.JobID },
		"TraceID": func(m *Message) *string { return &m.TraceID },
		"Reason":  func(m *Message) *string { return &m.Reason },
	}
	for name, field := range fields {
		m := Message{Type: MsgError, Price: 0.5}
		*field(&m) = strings.Repeat("x", 1<<16)
		prefix := []byte{1, 2, 3}
		dst, err := appendFrame(prefix, &m)
		if err == nil || !bytes.Equal(dst, prefix) || &dst[0] != &prefix[0] {
			t.Errorf("%s of 65,536 bytes: appendFrame = %x…, %v; want the prefix unchanged and an error", name, dst[:min(len(dst), 8)], err)
		}
		var out bytes.Buffer
		if err := NewFrameCodec(&out, &out).Send(m); err == nil || out.Len() != 0 {
			t.Errorf("%s of 65,536 bytes: Send wrote %d bytes, err %v; want nothing written and an error", name, out.Len(), err)
		}

		*field(&m) = strings.Repeat("y", 1<<16-1)
		c := NewFrameCodec(&out, &out)
		if err := c.Send(m); err != nil {
			t.Fatalf("%s of 65,535 bytes: Send: %v", name, err)
		}
		if got, err := c.Recv(); err != nil || got != m {
			t.Errorf("%s of 65,535 bytes: Recv = %.40v…, %v; want the sent message", name, got, err)
		}
	}
}
