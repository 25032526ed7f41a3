// Package agentproto implements the manager↔user communication of the
// interactive MPR market (Section III-B, Fig. 5) as a JSON-lines protocol
// over TCP: the HPC manager announces clearing prices, autonomous user
// bidding agents respond with supply-function bids, and the exchange
// repeats until the price converges or the manager's safety timeout fires,
// at which point reduction orders are sent.
//
// The package provides both sides: Manager (the market facilitator of
// cmd/mprd) and Agent (the lightweight bidding agent of cmd/mpragent).
package agentproto

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// MsgType enumerates protocol messages.
type MsgType string

// Protocol message types.
const (
	// MsgHello registers an agent's job with the manager.
	MsgHello MsgType = "hello"
	// MsgPrice announces a (round, price) pair to all agents.
	MsgPrice MsgType = "price"
	// MsgBid carries an agent's supply-function parameters for a round.
	MsgBid MsgType = "bid"
	// MsgOrder tells an agent its awarded resource reduction.
	MsgOrder MsgType = "order"
	// MsgLift tells agents the emergency is over.
	MsgLift MsgType = "lift"
	// MsgError reports a protocol failure.
	MsgError MsgType = "error"
)

// Message is the wire envelope. Unused fields are omitted per type.
type Message struct {
	Type MsgType `json:"type"`

	// Hello fields.
	JobID string  `json:"job_id,omitempty"`
	Cores float64 `json:"cores,omitempty"`
	// WattsPerCore tells the manager this job's power model coefficient.
	WattsPerCore float64 `json:"watts_per_core,omitempty"`
	MaxFrac      float64 `json:"max_frac,omitempty"`

	// Market fields.
	Round   int     `json:"round,omitempty"`
	Price   float64 `json:"price,omitempty"`
	TargetW float64 `json:"target_w,omitempty"`

	// TraceID is the wire-level trace handle: the manager stamps every
	// price broadcast with the round's trace ID ("m<market>.r<round>")
	// and agents echo it verbatim on the answering bid, which lets the
	// manager link a per-agent respond_bid span to its market_round and
	// land per-agent RTT in the HDR series. The field is optional and
	// backward-compatible: an absent (empty) TraceID means an untraced
	// agent and changes nothing else — old-format messages parse
	// identically, and messages without a trace encode byte-identically
	// to the pre-trace wire format (pinned by TestWireFormatPinned).
	TraceID string `json:"trace,omitempty"`

	// Bid fields.
	Delta float64 `json:"delta,omitempty"`
	B     float64 `json:"b,omitempty"`

	// Order fields.
	ReductionCores float64 `json:"reduction_cores,omitempty"`
	PaymentRate    float64 `json:"payment_rate,omitempty"`

	// Error fields.
	Reason string `json:"reason,omitempty"`
}

// wireCodec is a message transport: the JSON-lines Codec or the binary
// FrameCodec, chosen per connection by negotiation (see frame.go).
type wireCodec interface {
	Send(Message) error
	Recv() (Message, error)
}

// errMalformed marks a Recv error as bytes that arrived but did not
// decode into a Message — as opposed to end of stream or a transport
// failure — so the manager can count the peer's last message as a
// protocol violation before dropping it. Both codecs wrap it.
var errMalformed = errors.New("malformed message")

// Codec frames Messages as JSON lines on a stream. Send reuses one
// buffer, so like FrameCodec it has a single-writer contract: the
// connection's owner (the shard loop, the agent loop) is the only
// sender, and the bytes are not referenced once Write returns.
type Codec struct {
	w  io.Writer
	sc *bufio.Scanner

	out       []byte // reused send buffer
	lastTrace string // one-entry intern cache, as FrameCodec's
}

// NewCodec wraps a bidirectional stream. The scan buffer starts small
// (protocol messages are ~100–200 bytes) and grows on demand up to the
// 64 KiB line cap, so a C1M-scale load run holding tens of thousands of
// codecs does not pay 64 KiB per connection up front.
func NewCodec(rw io.ReadWriter) *Codec {
	sc := bufio.NewScanner(rw)
	sc.Buffer(make([]byte, 1024), 64*1024)
	return &Codec{w: rw, sc: sc}
}

// Send writes one message as a single line (one Write call).
func (c *Codec) Send(m Message) error {
	buf, err := appendJSONLine(c.out[:0], &m)
	if err == nil {
		c.out = buf[:0]
		_, err = c.w.Write(buf)
	}
	if err != nil {
		return fmt.Errorf("agentproto: send %s: %w", m.Type, err)
	}
	return nil
}

// Recv reads the next message, returning io.EOF at end of stream. Lines
// outside the fast decoder's canonical subset go through encoding/json,
// which alone decides what is an error.
func (c *Codec) Recv() (Message, error) {
	if !c.sc.Scan() {
		if err := c.sc.Err(); err != nil {
			return Message{}, fmt.Errorf("agentproto: recv: %w", err)
		}
		return Message{}, io.EOF
	}
	if m, ok := c.decodeJSON(c.sc.Bytes()); ok {
		return m, nil
	}
	var m Message
	if err := json.Unmarshal(c.sc.Bytes(), &m); err != nil {
		return Message{}, fmt.Errorf("agentproto: decode: %w: %w", errMalformed, err)
	}
	return m, nil
}
