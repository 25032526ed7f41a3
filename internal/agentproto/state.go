package agentproto

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"mpr/internal/core"
)

// StateSchema versions the manager snapshot artifact. Strict-decoded on
// read: adding a field to State/AgentState without bumping the version
// fails ReadStateFile's round-trip contract (and the schema test).
const StateSchema = "mprstate/v1"

// AgentState is one registered agent in a snapshot: the hello spec plus
// the last accepted bid, which re-seeds the market on restore so a
// restarted manager clears to the same price before any fresh bid
// arrives (the paper's timeout rule — proceed with the last information
// available — applied across a restart).
type AgentState struct {
	JobID        string  `json:"job_id"`
	Cores        float64 `json:"cores"`
	WattsPerCore float64 `json:"watts_per_core"`
	MaxFrac      float64 `json:"max_frac"`
	Wire         string  `json:"wire,omitempty"`
	HasBid       bool    `json:"has_bid,omitempty"`
	Delta        float64 `json:"delta,omitempty"`
	B            float64 `json:"b,omitempty"`
}

// State is the versioned mprstate/v1 artifact: everything a restarted
// mprd needs to resume the market where the killed process left it —
// the registered fleet with last bids, the market sequence (so trace IDs
// keep advancing instead of colliding), and the last clearing price.
type State struct {
	Schema      string       `json:"schema"`
	SavedUnixNS int64        `json:"saved_unix_ns"`
	MarketSeq   uint64       `json:"market_seq"`
	LastPrice   float64      `json:"last_price,omitempty"`
	Agents      []AgentState `json:"agents"`
}

// Validate checks the schema tag and per-agent invariants.
func (st *State) Validate() error {
	if st.Schema != StateSchema {
		return fmt.Errorf("agentproto: state schema %q, want %q", st.Schema, StateSchema)
	}
	seen := make(map[string]bool, len(st.Agents))
	for i := range st.Agents {
		a := &st.Agents[i]
		if a.JobID == "" || a.Cores <= 0 || a.WattsPerCore <= 0 || a.MaxFrac <= 0 {
			return fmt.Errorf("agentproto: state agent %d (%q): needs job id and positive cores/watts/max_frac", i, a.JobID)
		}
		if seen[a.JobID] {
			return fmt.Errorf("agentproto: state agent %d: duplicate job id %q", i, a.JobID)
		}
		seen[a.JobID] = true
		if a.HasBid {
			if err := (core.Bid{Delta: a.Delta, B: a.B}).Validate(); err != nil {
				return fmt.Errorf("agentproto: state agent %q: %w", a.JobID, err)
			}
		}
	}
	return nil
}

// SnapshotState captures the manager's registration + market state. Safe
// to call at any time, including mid-round: bids are read under their
// mailbox locks, so a snapshot taken while a round is collecting sees
// each agent's last harvested bid. The roster is sorted by job ID and
// includes restored-but-not-yet-reconnected agents, so snapshot →
// restore → snapshot loses nobody.
func (m *Manager) SnapshotState(savedUnixNS int64) *State {
	m.mu.Lock()
	agents := make([]AgentState, 0, len(m.agents)+len(m.restored))
	for _, a := range m.agents {
		as := AgentState{
			JobID:        a.hello.JobID,
			Cores:        a.hello.Cores,
			WattsPerCore: a.hello.WattsPerCore,
			MaxFrac:      a.hello.MaxFrac,
			Wire:         a.wire,
		}
		a.mbMu.Lock()
		bid, has := a.lastBid, a.hasLast
		a.mbMu.Unlock()
		if has {
			as.HasBid, as.Delta, as.B = true, bid.Delta, bid.B
		}
		agents = append(agents, as)
	}
	for id, r := range m.restored {
		if _, connected := m.agents[id]; connected {
			continue
		}
		agents = append(agents, r)
	}
	seq := m.marketSeq.Load()
	last := m.lastPrice
	m.mu.Unlock()
	sort.Slice(agents, func(i, j int) bool { return agents[i].JobID < agents[j].JobID })
	return &State{Schema: StateSchema, SavedUnixNS: savedUnixNS, MarketSeq: seq, LastPrice: last, Agents: agents}
}

// RestoreState loads a snapshot into a fresh manager: the market
// sequence and last price resume, and each snapshotted agent's spec +
// last bid is held until that job ID reconnects, at which point the bid
// seeds its roster slot exactly as if the restart never happened.
// Restore before serving traffic; it rejects a manager that already has
// registrations.
func (m *Manager) RestoreState(st *State) error {
	if err := st.Validate(); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return fmt.Errorf("agentproto: manager closed")
	}
	if len(m.agents) > 0 {
		return fmt.Errorf("agentproto: restore into a manager with %d live agents", len(m.agents))
	}
	m.marketSeq.Store(st.MarketSeq)
	m.lastPrice = st.LastPrice
	m.restored = make(map[string]AgentState, len(st.Agents))
	for _, a := range st.Agents {
		m.restored[a.JobID] = a
	}
	return nil
}

// RestoredPending reports how many restored agents have not reconnected
// yet.
func (m *Manager) RestoredPending() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.restored)
}

// LastPrice returns the most recent clearing price (restored or from the
// last finished round), 0 before any market.
func (m *Manager) LastPrice() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lastPrice
}

// WriteStateFile atomically writes the snapshot (temp file + rename).
func WriteStateFile(path string, st *State) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(st); err != nil {
		return fmt.Errorf("agentproto: encode state: %w", err)
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, buf.Bytes(), 0o644); err != nil {
		return fmt.Errorf("agentproto: write state: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("agentproto: write state: %w", err)
	}
	return nil
}

// ReadStateFile strictly decodes and validates an mprstate/v1 artifact:
// unknown fields and trailing bytes are errors, so drift and damage are
// caught at the reader, not three markets later.
func ReadStateFile(path string) (*State, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("agentproto: read state: %w", err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	st := &State{}
	if err := dec.Decode(st); err != nil {
		return nil, fmt.Errorf("agentproto: decode state %s: %w", path, err)
	}
	if dec.Decode(new(json.RawMessage)) != io.EOF {
		return nil, fmt.Errorf("agentproto: state %s: trailing data after the JSON value", path)
	}
	if err := st.Validate(); err != nil {
		return nil, fmt.Errorf("agentproto: state %s: %w", path, err)
	}
	return st, nil
}
