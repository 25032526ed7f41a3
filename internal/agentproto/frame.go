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

// Field bitmap bits, in payload order. The set mirrors Message's
// omitempty fields exactly; Type travels in the frame header.
const (
	bitJobID = 1 << iota
	bitCores
	bitWattsPerCore
	bitMaxFrac
	bitRound
	bitPrice
	bitTargetW
	bitTraceID
	bitDelta
	bitB
	bitReductionCores
	bitPaymentRate
	bitReason

	bitsKnown = 1<<13 - 1
)

func msgTypeByte(t MsgType) (byte, error) {
	switch t {
	case MsgHello:
		return frameHello, nil
	case MsgPrice:
		return framePrice, nil
	case MsgBid:
		return frameBid, nil
	case MsgOrder:
		return frameOrder, nil
	case MsgLift:
		return frameLift, nil
	case MsgError:
		return frameError, nil
	}
	return 0, fmt.Errorf("agentproto: no frame type for message type %q", t)
}

func byteMsgType(b byte) (MsgType, error) {
	switch b {
	case frameHello:
		return MsgHello, nil
	case framePrice:
		return MsgPrice, nil
	case frameBid:
		return MsgBid, nil
	case frameOrder:
		return MsgOrder, nil
	case frameLift:
		return MsgLift, nil
	case frameError:
		return MsgError, nil
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

func appendU16(b []byte, v uint16) []byte { return append(b, byte(v>>8), byte(v)) }
func appendU32(b []byte, v uint32) []byte {
	return append(b, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}
func appendF64(b []byte, v float64) []byte {
	u := math.Float64bits(v)
	return append(b, byte(u>>56), byte(u>>48), byte(u>>40), byte(u>>32),
		byte(u>>24), byte(u>>16), byte(u>>8), byte(u))
}

func appendStr(b []byte, s string) ([]byte, error) {
	if len(s) > math.MaxUint16 {
		return b, fmt.Errorf("agentproto: string field of %d bytes exceeds frame limit", len(s))
	}
	return append(appendU16(b, uint16(len(s))), s...), nil
}

// bitmapOf computes the present-field bitmap — the binary twin of the
// JSON envelope's omitempty rule (a field travels iff it is non-zero).
func bitmapOf(m *Message) uint16 {
	var bm uint16
	if m.JobID != "" {
		bm |= bitJobID
	}
	if m.Cores != 0 {
		bm |= bitCores
	}
	if m.WattsPerCore != 0 {
		bm |= bitWattsPerCore
	}
	if m.MaxFrac != 0 {
		bm |= bitMaxFrac
	}
	if m.Round != 0 {
		bm |= bitRound
	}
	if m.Price != 0 {
		bm |= bitPrice
	}
	if m.TargetW != 0 {
		bm |= bitTargetW
	}
	if m.TraceID != "" {
		bm |= bitTraceID
	}
	if m.Delta != 0 {
		bm |= bitDelta
	}
	if m.B != 0 {
		bm |= bitB
	}
	if m.ReductionCores != 0 {
		bm |= bitReductionCores
	}
	if m.PaymentRate != 0 {
		bm |= bitPaymentRate
	}
	if m.Reason != "" {
		bm |= bitReason
	}
	return bm
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
	start := len(dst)
	buf := append(dst, frameMagic, tb, 0, 0, 0, 0)
	bm := bitmapOf(m)
	buf = appendU16(buf, bm)
	if bm&bitJobID != 0 {
		if buf, err = appendStr(buf, m.JobID); err != nil {
			return dst, err
		}
	}
	if bm&bitCores != 0 {
		buf = appendF64(buf, m.Cores)
	}
	if bm&bitWattsPerCore != 0 {
		buf = appendF64(buf, m.WattsPerCore)
	}
	if bm&bitMaxFrac != 0 {
		buf = appendF64(buf, m.MaxFrac)
	}
	if bm&bitRound != 0 {
		buf = appendU32(buf, uint32(int32(m.Round)))
	}
	if bm&bitPrice != 0 {
		buf = appendF64(buf, m.Price)
	}
	if bm&bitTargetW != 0 {
		buf = appendF64(buf, m.TargetW)
	}
	if bm&bitTraceID != 0 {
		if buf, err = appendStr(buf, m.TraceID); err != nil {
			return dst, err
		}
	}
	if bm&bitDelta != 0 {
		buf = appendF64(buf, m.Delta)
	}
	if bm&bitB != 0 {
		buf = appendF64(buf, m.B)
	}
	if bm&bitReductionCores != 0 {
		buf = appendF64(buf, m.ReductionCores)
	}
	if bm&bitPaymentRate != 0 {
		buf = appendF64(buf, m.PaymentRate)
	}
	if bm&bitReason != 0 {
		if buf, err = appendStr(buf, m.Reason); err != nil {
			return dst, err
		}
	}
	binary.BigEndian.PutUint32(buf[start+2:start+6], uint32(len(buf)-start-6))
	return buf, nil
}

// frameReader decodes payload fields sequentially.
type frameReader struct {
	b []byte
}

func (fr *frameReader) u16() (uint16, error) {
	if len(fr.b) < 2 {
		return 0, io.ErrUnexpectedEOF
	}
	v := binary.BigEndian.Uint16(fr.b)
	fr.b = fr.b[2:]
	return v, nil
}

func (fr *frameReader) u32() (uint32, error) {
	if len(fr.b) < 4 {
		return 0, io.ErrUnexpectedEOF
	}
	v := binary.BigEndian.Uint32(fr.b)
	fr.b = fr.b[4:]
	return v, nil
}

func (fr *frameReader) f64() (float64, error) {
	if len(fr.b) < 8 {
		return 0, io.ErrUnexpectedEOF
	}
	v := math.Float64frombits(binary.BigEndian.Uint64(fr.b))
	fr.b = fr.b[8:]
	return v, nil
}

func (fr *frameReader) str() ([]byte, error) {
	n, err := fr.u16()
	if err != nil {
		return nil, err
	}
	if len(fr.b) < int(n) {
		return nil, io.ErrUnexpectedEOF
	}
	s := fr.b[:n]
	fr.b = fr.b[n:]
	return s, nil
}

// internTrace converts trace bytes to a string through a one-entry
// cache: every bid in a round echoes the same trace ID, so steady-state
// decoding allocates nothing.
func (c *FrameCodec) internTrace(b []byte) string {
	if c.lastTrace != string(b) { // compiler-optimized, alloc-free compare
		c.lastTrace = string(b)
	}
	return c.lastTrace
}

func (c *FrameCodec) internJob(b []byte) string {
	if c.lastJob != string(b) {
		c.lastJob = string(b)
	}
	return c.lastJob
}

// decodeErr wraps a field-decode failure. A plain function (not a
// closure) so the error path costs Recv nothing when frames are healthy.
func decodeErr(mt MsgType, err error) error {
	return fmt.Errorf("agentproto: decode %s frame: %w: %w", mt, errMalformed, err)
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
	fr := frameReader{b: pay}
	bm, err := fr.u16()
	if err != nil {
		return Message{}, fmt.Errorf("agentproto: decode frame: %w: %w", errMalformed, err)
	}
	if bm&^uint16(bitsKnown) != 0 {
		return Message{}, fmt.Errorf("agentproto: %w: frame carries unknown field bits 0x%04x", errMalformed, bm)
	}
	m := Message{Type: mt}
	if bm&bitJobID != 0 {
		b, err := fr.str()
		if err != nil {
			return Message{}, decodeErr(mt, err)
		}
		m.JobID = c.internJob(b)
	}
	if bm&bitCores != 0 {
		if m.Cores, err = fr.f64(); err != nil {
			return Message{}, decodeErr(mt, err)
		}
	}
	if bm&bitWattsPerCore != 0 {
		if m.WattsPerCore, err = fr.f64(); err != nil {
			return Message{}, decodeErr(mt, err)
		}
	}
	if bm&bitMaxFrac != 0 {
		if m.MaxFrac, err = fr.f64(); err != nil {
			return Message{}, decodeErr(mt, err)
		}
	}
	if bm&bitRound != 0 {
		u, err := fr.u32()
		if err != nil {
			return Message{}, decodeErr(mt, err)
		}
		m.Round = int(int32(u))
	}
	if bm&bitPrice != 0 {
		if m.Price, err = fr.f64(); err != nil {
			return Message{}, decodeErr(mt, err)
		}
	}
	if bm&bitTargetW != 0 {
		if m.TargetW, err = fr.f64(); err != nil {
			return Message{}, decodeErr(mt, err)
		}
	}
	if bm&bitTraceID != 0 {
		b, err := fr.str()
		if err != nil {
			return Message{}, decodeErr(mt, err)
		}
		m.TraceID = c.internTrace(b)
	}
	if bm&bitDelta != 0 {
		if m.Delta, err = fr.f64(); err != nil {
			return Message{}, decodeErr(mt, err)
		}
	}
	if bm&bitB != 0 {
		if m.B, err = fr.f64(); err != nil {
			return Message{}, decodeErr(mt, err)
		}
	}
	if bm&bitReductionCores != 0 {
		if m.ReductionCores, err = fr.f64(); err != nil {
			return Message{}, decodeErr(mt, err)
		}
	}
	if bm&bitPaymentRate != 0 {
		if m.PaymentRate, err = fr.f64(); err != nil {
			return Message{}, decodeErr(mt, err)
		}
	}
	if bm&bitReason != 0 {
		b, err := fr.str()
		if err != nil {
			return Message{}, decodeErr(mt, err)
		}
		m.Reason = string(b)
	}
	if len(fr.b) != 0 {
		return Message{}, fmt.Errorf("agentproto: %w: %d trailing bytes after %s frame", errMalformed, len(fr.b), mt)
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
