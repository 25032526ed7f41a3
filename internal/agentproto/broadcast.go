package agentproto

import "fmt"

// Broadcast fast path.
//
// A round's price message is identical for every member of the fleet,
// yet the natural per-member codec.Send re-marshals it once per agent —
// at C1M scale that is a million JSON marshals (or binary encodes) per
// round for one logical message. encodedMsg encodes the message exactly
// once per round, in both wire formats, and the shard loops then write
// the shared bytes raw to each connection according to its negotiated
// transport. The bytes are produced by the same encoders the per-member
// path uses (appendJSONLine is Codec.Send's encoder, appendFrame is
// FrameCodec.Send's), so the wire is byte-identical either way —
// TestBroadcastBytesIdentical pins this.

// encodedMsg is one message pre-encoded for both wire transports. The
// byte slices are shared across shards and members and must be treated
// as immutable.
type encodedMsg struct {
	msg   Message
	json  []byte // JSON-lines encoding, trailing newline included
	frame []byte // mprbin/v1 frame
}

// encodeMsg pre-encodes m for broadcast.
func encodeMsg(m Message) (*encodedMsg, error) {
	j, err := appendJSONLine(nil, &m)
	if err != nil {
		return nil, fmt.Errorf("agentproto: encode %s: %w", m.Type, err)
	}
	f, err := appendFrame(nil, &m)
	if err != nil {
		return nil, err
	}
	return &encodedMsg{msg: m, json: j, frame: f}, nil
}

// bytesFor picks the encoding for a connection's negotiated transport.
func (e *encodedMsg) bytesFor(wire string) []byte {
	if wire == WireBinary {
		return e.frame
	}
	return e.json
}
