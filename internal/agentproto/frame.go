package agentproto

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Binary framing (mprbin/v1).
//
// The interactive protocol's hot path is two tiny messages per agent per
// round (a price broadcast and a bid). JSON-lines spends most of a C1M
// round marshalling them; the binary codec replaces that with a
// length-prefixed frame whose payload is a field bitmap followed by the
// present fields in fixed order:
//
//	byte 0      frame magic (0xA7)
//	byte 1      message type (frameHello..frameError)
//	bytes 2..5  payload length, uint32 big-endian (cap 1 MiB)
//	payload     uint16 BE field bitmap, then each set field in bit order
//
// A field is present iff it is non-zero — the exact mirror of the JSON
// envelope's omitempty tags — so any Message round-trips binary↔JSON to
// the identical struct (FuzzFrameCodecJSONEquiv pins this). Floats are
// IEEE-754 bits big-endian, Round is an int32, strings are uint16-length
// prefixed bytes.
//
// Version negotiation rides the hello exchange: a binary agent opens the
// connection with the 5-byte preamble "MPRB"+maxVersion and the manager
// answers "MPRA"+chosenVersion (min of the two sides) before any frame
// flows. JSON-lines connections send no preamble — their first byte is
// '{' — so the manager sniffs one byte to pick the codec and old agents
// interop unchanged, byte for byte.
const (
	// FrameVersion is the highest binary protocol version this build
	// speaks. Negotiation picks min(agent, manager).
	FrameVersion = 1

	frameMagic byte = 0xA7

	// maxFramePayload bounds one frame. Protocol messages are tens of
	// bytes; anything near the cap is a desynced or hostile peer.
	maxFramePayload = 1 << 20
)

// preambleMagicReq/Ack are the negotiation magics: agent → manager and
// manager → agent. The full preamble is the 4 magic bytes plus one
// version byte.
var (
	preambleMagicReq = [4]byte{'M', 'P', 'R', 'B'}
	preambleMagicAck = [4]byte{'M', 'P', 'R', 'A'}
)

// Frame type bytes, one per MsgType.
const (
	frameHello byte = 1
	framePrice byte = 2
	frameBid   byte = 3
	frameOrder byte = 4
	frameLift  byte = 5
	frameError byte = 6
)

// frameTypes maps a frame type byte to its MsgType, and back.
var frameTypes = [...]MsgType{
	frameHello: MsgHello,
	framePrice: MsgPrice,
	frameBid:   MsgBid,
	frameOrder: MsgOrder,
	frameLift:  MsgLift,
	frameError: MsgError,
}

// bitsKnown covers the bitmap's 13 field bits. A field's bit is its
// place in Message after Type: JobID is bit 0, Reason bit 12.
const bitsKnown = 1<<13 - 1

func msgTypeByte(t MsgType) (byte, error) {
	for b, ft := range frameTypes {
		if ft == t && t != "" {
			return byte(b), nil
		}
	}
	return 0, fmt.Errorf("agentproto: no frame type for message type %q", t)
}

func byteMsgType(b byte) (MsgType, error) {
	if int(b) < len(frameTypes) && frameTypes[b] != "" {
		return frameTypes[b], nil
	}
	return "", fmt.Errorf("agentproto: %w: unknown frame type 0x%02x", errMalformed, b)
}

// FrameCodec frames Messages as mprbin/v1 binary frames. Send and Recv
// reuse internal buffers, and Recv interns repeated strings (every bid
// in a round echoes the same trace ID), so the steady-state price/bid
// path allocates nothing (TestFrameCodecZeroAlloc gates this).
type FrameCodec struct {
	w io.Writer
	r *bufio.Reader

	enc []byte  // reusable encode buffer (header + payload)
	pay []byte  // reusable decode payload buffer
	hdr [6]byte // reusable header scratch (a local would escape via io.ReadFull)

	// One-entry intern caches: repeated identical wire strings decode to
	// the same Go string without allocating.
	lastTrace string
	lastJob   string
}

// NewFrameCodec wraps a stream already past preamble negotiation. The
// reader may be the buffered reader negotiation peeked through; writes
// go straight to w (each Send is a single Write call).
func NewFrameCodec(r io.Reader, w io.Writer) *FrameCodec {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReaderSize(r, 256)
	}
	return &FrameCodec{w: w, r: br, enc: make([]byte, 0, 128)}
}

// Send writes one message as a single frame (one Write call).
func (c *FrameCodec) Send(m Message) error {
	buf, err := appendFrame(c.enc[:0], &m)
	if err != nil {
		return err
	}
	c.enc = buf[:0]
	if _, err := c.w.Write(buf); err != nil {
		return fmt.Errorf("agentproto: send %s: %w", m.Type, err)
	}
	return nil
}

// appendFrame appends m encoded as one complete mprbin/v1 frame (header
// plus payload) to dst. It is the single encoder behind both
// FrameCodec.Send and the manager's shared-broadcast fast path, so the
// two emit byte-identical frames by construction.
func appendFrame(dst []byte, m *Message) ([]byte, error) {
	tb, err := msgTypeByte(m.Type)
	if err != nil {
		return dst, err
	}
	if m.Round < math.MinInt32 || m.Round > math.MaxInt32 {
		return dst, fmt.Errorf("agentproto: round %d exceeds frame range", m.Round)
	}
	if n := max(len(m.JobID), len(m.TraceID), len(m.Reason)); n > math.MaxUint16 {
		return dst, fmt.Errorf("agentproto: string field of %d bytes exceeds frame limit", n)
	}
	start := len(dst)
	// Header, then the bitmap: both are patched in once the fields are.
	e := frameEnc{b: append(dst, frameMagic, tb, 0, 0, 0, 0, 0, 0), bit: 1}
	e = e.str(m.JobID)
	e = e.f64(m.Cores)
	e = e.f64(m.WattsPerCore)
	e = e.f64(m.MaxFrac)
	e = e.round(m.Round)
	e = e.f64(m.Price)
	e = e.f64(m.TargetW)
	e = e.str(m.TraceID)
	e = e.f64(m.Delta)
	e = e.f64(m.B)
	e = e.f64(m.ReductionCores)
	e = e.f64(m.PaymentRate)
	e = e.str(m.Reason)
	binary.BigEndian.PutUint32(e.b[start+2:], uint32(len(e.b)-start-6))
	binary.BigEndian.PutUint16(e.b[start+6:], e.bm)
	return e.b, nil
}

// frameEnc accumulates one payload: bm holds the bits of the fields
// written so far and bit is the next field's. Its methods take and
// return the encoder by value, which keeps it in registers.
type frameEnc struct {
	b       []byte
	bm, bit uint16
}

func (e frameEnc) f64(f float64) frameEnc {
	if f != 0 {
		e.b = binary.BigEndian.AppendUint64(e.b, math.Float64bits(f))
		e.bm |= e.bit
	}
	e.bit <<= 1
	return e
}

func (e frameEnc) round(r int) frameEnc {
	if r != 0 {
		e.b = binary.BigEndian.AppendUint32(e.b, uint32(int32(r)))
		e.bm |= e.bit
	}
	e.bit <<= 1
	return e
}

func (e frameEnc) str(s string) frameEnc {
	if s != "" {
		e.b = append(binary.BigEndian.AppendUint16(e.b, uint16(len(s))), s...)
		e.bm |= e.bit
	}
	e.bit <<= 1
	return e
}

// frameDec walks one payload as frameEnc wrote it. A present field that
// runs past the payload's end returns the zero frameDec, whose bit 0
// reads every later field as absent; Recv reports the short frame once.
type frameDec struct {
	b       []byte
	bm, bit uint16
}

func (d frameDec) f64() (float64, frameDec) {
	var v float64
	if d.bm&d.bit != 0 {
		if len(d.b) < 8 {
			return 0, frameDec{}
		}
		v, d.b = math.Float64frombits(binary.BigEndian.Uint64(d.b)), d.b[8:]
	}
	d.bit <<= 1
	return v, d
}

func (d frameDec) round() (int, frameDec) {
	var v int
	if d.bm&d.bit != 0 {
		if len(d.b) < 4 {
			return 0, frameDec{}
		}
		v, d.b = int(int32(binary.BigEndian.Uint32(d.b))), d.b[4:]
	}
	d.bit <<= 1
	return v, d
}

// str decodes a string field through the one-entry cache *last:
// repeated values come back as the cached string, with no allocation.
func (d frameDec) str(last *string) (string, frameDec) {
	var v string
	if d.bm&d.bit != 0 {
		end := 2
		if len(d.b) >= end {
			end += int(binary.BigEndian.Uint16(d.b))
		}
		if len(d.b) < end {
			return "", frameDec{}
		}
		if b := d.b[2:end]; *last != string(b) { // compiler-optimized, alloc-free compare
			*last = string(b)
		}
		v, d.b = *last, d.b[end:]
	}
	d.bit <<= 1
	return v, d
}

// Recv reads the next frame, returning io.EOF at a clean end of stream.
// A frame that arrived but does not decode is an errMalformed; a stream
// that ends or fails mid-frame is a transport error.
func (c *FrameCodec) Recv() (Message, error) {
	hdr := c.hdr[:]
	if _, err := io.ReadFull(c.r, hdr); err != nil {
		if err == io.EOF {
			return Message{}, io.EOF
		}
		return Message{}, fmt.Errorf("agentproto: recv frame header: %w", err)
	}
	if hdr[0] != frameMagic {
		return Message{}, fmt.Errorf("agentproto: %w: bad frame magic 0x%02x (stream desynced?)", errMalformed, hdr[0])
	}
	mt, err := byteMsgType(hdr[1])
	if err != nil {
		return Message{}, err
	}
	n := binary.BigEndian.Uint32(hdr[2:6])
	if n > maxFramePayload {
		return Message{}, fmt.Errorf("agentproto: %w: frame payload %d exceeds %d-byte cap", errMalformed, n, maxFramePayload)
	}
	if cap(c.pay) < int(n) {
		c.pay = make([]byte, n)
	}
	pay := c.pay[:n]
	if _, err := io.ReadFull(c.r, pay); err != nil {
		return Message{}, fmt.Errorf("agentproto: recv frame payload: %w", err)
	}
	if n < 2 {
		return Message{}, fmt.Errorf("agentproto: decode frame: %w: %w", errMalformed, io.ErrUnexpectedEOF)
	}
	d := frameDec{b: pay[2:], bm: binary.BigEndian.Uint16(pay), bit: 1}
	if d.bm&^bitsKnown != 0 {
		return Message{}, fmt.Errorf("agentproto: %w: frame carries unknown field bits 0x%04x", errMalformed, d.bm)
	}
	m := Message{Type: mt}
	m.JobID, d = d.str(&c.lastJob)
	m.Cores, d = d.f64()
	m.WattsPerCore, d = d.f64()
	m.MaxFrac, d = d.f64()
	m.Round, d = d.round()
	m.Price, d = d.f64()
	m.TargetW, d = d.f64()
	m.TraceID, d = d.str(&c.lastTrace)
	m.Delta, d = d.f64()
	m.B, d = d.f64()
	m.ReductionCores, d = d.f64()
	m.PaymentRate, d = d.f64()
	var reason string // error reasons are one-off: no cache outlives the frame
	m.Reason, d = d.str(&reason)
	if d.bit == 0 {
		return Message{}, fmt.Errorf("agentproto: decode %s frame: %w: %w", mt, errMalformed, io.ErrUnexpectedEOF)
	}
	if len(d.b) != 0 {
		return Message{}, fmt.Errorf("agentproto: %w: %d trailing bytes after %s frame", errMalformed, len(d.b), mt)
	}
	return m, nil
}

// negotiateClient opens binary framing from the agent side: write the
// request preamble, read the manager's ack, and return the negotiated
// version.
func negotiateClient(r io.Reader, w io.Writer) (int, error) {
	req := [5]byte{preambleMagicReq[0], preambleMagicReq[1], preambleMagicReq[2], preambleMagicReq[3], FrameVersion}
	if _, err := w.Write(req[:]); err != nil {
		return 0, fmt.Errorf("agentproto: negotiate: %w", err)
	}
	var ack [5]byte
	if _, err := io.ReadFull(r, ack[:]); err != nil {
		return 0, fmt.Errorf("agentproto: negotiate: reading ack: %w", err)
	}
	if [4]byte{ack[0], ack[1], ack[2], ack[3]} != preambleMagicAck {
		return 0, fmt.Errorf("agentproto: negotiate: bad ack magic %q", ack[:4])
	}
	v := int(ack[4])
	if v < 1 || v > FrameVersion {
		return 0, fmt.Errorf("agentproto: negotiate: manager offered unsupported version %d", v)
	}
	return v, nil
}

// negotiateServer completes binary negotiation from the manager side,
// with the request preamble still unread in r. It answers with
// min(agent, manager) and returns the negotiated version.
func negotiateServer(r io.Reader, w io.Writer) (int, error) {
	var req [5]byte
	if _, err := io.ReadFull(r, req[:]); err != nil {
		return 0, fmt.Errorf("agentproto: negotiate: reading preamble: %w", err)
	}
	if [4]byte{req[0], req[1], req[2], req[3]} != preambleMagicReq {
		return 0, fmt.Errorf("agentproto: negotiate: bad preamble magic %q", req[:4])
	}
	v := int(req[4])
	if v > FrameVersion {
		v = FrameVersion
	}
	if v < 1 {
		// No common version: ack version 0 so the agent gets a typed
		// failure instead of a silent hangup, then report the error.
		ack := [5]byte{preambleMagicAck[0], preambleMagicAck[1], preambleMagicAck[2], preambleMagicAck[3], 0}
		_, _ = w.Write(ack[:])
		return 0, fmt.Errorf("agentproto: negotiate: agent offered version %d", req[4])
	}
	ack := [5]byte{preambleMagicAck[0], preambleMagicAck[1], preambleMagicAck[2], preambleMagicAck[3], byte(v)}
	if _, err := w.Write(ack[:]); err != nil {
		return 0, fmt.Errorf("agentproto: negotiate: writing ack: %w", err)
	}
	return v, nil
}
