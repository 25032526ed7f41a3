// Command mprd is the MPR market manager daemon: it accepts user bidding
// agents over TCP (see cmd/mpragent) and clears interactive power-
// reduction markets.
//
// Usage:
//
//	printf '2000\nlift\n' | mprd -listen 127.0.0.1:7946 -agents 4
//
// waits for 4 agents, reads reduction targets (watts, one per line) from
// stdin and clears one market per line — here one for a 2 kW reduction,
// printing the reduction orders — then lifts the emergency and exits at
// the end of input ('quit' exits too). With -stream the manager also
// re-clears incrementally on every incoming bid (O(log M) per update),
// counts each update and records the last published price as the market
// span's stream_price; the wire protocol, the rounds and their prices are
// unchanged, bit for bit.
//
// The daemon accepts both agent wire formats on one port: JSON lines
// (the original protocol, unchanged byte for byte) and the negotiated
// length-prefixed binary framing — agents pick per connection. -shards
// splits the fleet across N connection-manager event loops; -evict
// bounds how many consecutive round deadlines a slow agent may miss
// before it is evicted with a typed reason. With -state FILE the daemon
// snapshots its market + registration state (a versioned mprstate/v1
// JSON artifact) on every exit path including SIGTERM; -restore loads
// that file at boot, and restored agents keep their last bids — the
// paper's "proceed with last information" rule — until they reconnect
// and rebid.
//
// With -metrics ADDR (e.g. -metrics :9090) the daemon serves its full
// observability surface over HTTP: Prometheus text (or ?format=json) at
// /metrics, each market's span tree (rounds with their prices and supply,
// evictions and coalesced bids as zero-length spans) at /debug/spans
// (JSON, with its dropped count),
// windowed time-series queries at /debug/series, flight-recorder status
// at /debug/flight, liveness at /healthz, and net/http/pprof under
// /debug/pprof/. A 1 s wall-clock sampler records the eviction series
// and each market its rounds and unmet watts, the series the live alert
// rules read; every sampler tick evaluates those rules and logs and
// counts each firing once, so a market's alert lands at most 1 s after
// it, and an idle daemon's eviction burst still fires. SIGINT/SIGTERM
// take one final sample, evaluated like any other, before exiting.
//
// With -flight DIR the daemon arms its black-box flight recorder: a
// runtime-health sampler (goroutines, heap in-use, GC pause p99, sched
// latency p99) joins the tick as mpr_rt_* series, the process-health
// alert rules join the live scorecard, and a trigger — a fresh alert
// firing (per-rule -flight-cooldown), SIGQUIT, process exit, or POST
// /debug/flight/dump — writes a versioned mprflight/v3 bundle into DIR:
// build info, flag echo, goroutine profile, recent trace spans,
// HDR summaries, alert history, and the series window around the
// trigger. /debug/flight reports recorder status, its alert history and
// the latest runtime snapshot.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"mpr/internal/agentproto"
	"mpr/internal/stats"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		listen    = flag.String("listen", "127.0.0.1:7946", "TCP listen address")
		agents    = flag.Int("agents", 1, "number of agents to wait for")
		wait      = flag.Duration("wait", 30*time.Second, "how long to wait for agents")
		metrics   = flag.String("metrics", "", "HTTP address serving the observability surface (empty = disabled)")
		stream    = flag.Bool("stream", false, "continuously-clearing market: re-clear incrementally on every incoming bid")
		shards    = flag.Int("shards", 0, "connection manager shards (0 = one per CPU, capped at 16)")
		evict     = flag.Int("evict", 0, "evict agents after this many consecutive missed round deadlines (0 = default 3, negative = never)")
		statePath = flag.String("state", "", "snapshot market+registration state to this file on shutdown (mprstate/v1)")
		restore   = flag.Bool("restore", false, "restore state from -state at boot; restored agents keep their last bids until they rebid")
		flightDir = flag.String("flight", "", "directory receiving mprflight/v3 black-box bundles on alert/SIGQUIT/exit (empty = disabled)")
		flightCD  = flag.Duration("flight-cooldown", time.Minute, "per-rule suppression window between alert-triggered flight dumps")
	)
	flag.Parse()
	// Echo the effective flag configuration into every flight bundle so
	// an incident artifact always says how the daemon was run.
	configEcho := make(map[string]string)
	flag.VisitAll(func(f *flag.Flag) { configEcho[f.Name] = f.Value.String() })

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// The sampler reads m from its first sample on, so it starts only
	// once NewManager has returned.
	var m *agentproto.Manager
	o, err := newObs(obsConfig{
		AgentCount:     func() int { return m.AgentCount() },
		Evictions:      func() int64 { return m.Evictions() },
		FlightDir:      *flightDir,
		FlightCooldown: *flightCD,
		ConfigEcho:     configEcho,
		Logf:           log.Printf,
	})
	if err != nil {
		log.Print(err)
		return 1
	}
	// Drain: one final sample, then the exit flight bundle, exactly once —
	// whether we exit via signal, stdin EOF, or 'quit'. shutdown is
	// idempotent, so racing exit paths cannot drain twice.
	defer func() {
		if err := o.shutdown(); err != nil {
			log.Printf("telemetry shutdown: %v", err)
		}
	}()

	if *flightDir != "" {
		// SIGQUIT opens the black box without landing the plane: dump a
		// signal-reason bundle and keep serving. (Registering the handler
		// replaces Go's default stack-dump-and-exit SIGQUIT behavior; the
		// goroutine profile inside the bundle carries the same evidence.)
		sigq := make(chan os.Signal, 1)
		signal.Notify(sigq, syscall.SIGQUIT)
		go func() {
			for range sigq {
				o.dumpOnSignal()
			}
		}()
		log.Printf("flight recorder armed: bundles in %s (SIGQUIT or POST /debug/flight/dump for a manual one)", *flightDir)
	}

	mcfg := agentproto.ManagerConfig{
		Logf:             log.Printf,
		Telemetry:        o.reg,
		Tracer:           o.tracer,
		Shards:           *shards,
		EvictAfterMisses: *evict,
		Streaming:        *stream,
	}
	if *restore && *statePath == "" {
		log.Print("mprd: -restore needs -state")
		return 1
	}
	m, err = agentproto.NewManager(*listen, mcfg)
	if err != nil {
		log.Print(err)
		return 1
	}
	defer m.Close()
	o.startSampler()
	if *restore {
		st, err := agentproto.ReadStateFile(*statePath)
		if err != nil {
			log.Printf("restoring state: %v", err)
			return 1
		}
		if err := m.RestoreState(st); err != nil {
			log.Printf("restoring state: %v", err)
			return 1
		}
		log.Printf("restored %d agents (last price %.4f) from %s; their last bids hold until they rebid",
			m.RestoredPending(), m.LastPrice(), *statePath)
	}
	if *statePath != "" {
		// Runs before the deferred m.Close (LIFO), so the roster is still
		// live when the snapshot is cut — on SIGTERM, stdin EOF or 'quit'
		// alike.
		defer func() {
			st := m.SnapshotState(time.Now().UnixNano())
			if err := agentproto.WriteStateFile(*statePath, st); err != nil {
				log.Printf("writing state snapshot: %v", err)
				return
			}
			log.Printf("state snapshot (%d agents) written to %s", len(st.Agents), *statePath)
		}()
	}
	log.Printf("mprd listening on %s, waiting for %d agents", m.Addr(), *agents)

	if *metrics != "" {
		srv := &http.Server{Addr: *metrics, Handler: o.handler()}
		go func() {
			if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Printf("metrics server: %v", err)
			}
		}()
		defer srv.Close()
		log.Printf("telemetry on http://%s/metrics (/debug/spans /debug/series /debug/flight /healthz /debug/pprof/)", *metrics)
	}

	deadline := time.Now().Add(*wait)
	for m.AgentCount() < *agents {
		if ctx.Err() != nil {
			log.Printf("interrupted while waiting for agents")
			return 0
		}
		if time.Now().After(deadline) {
			log.Printf("only %d of %d agents connected within %s", m.AgentCount(), *agents, *wait)
			return 1
		}
		time.Sleep(100 * time.Millisecond)
	}
	log.Printf("%d agents registered", m.AgentCount())

	// Stdin lines feed the market; a signal wins the select and shuts the
	// daemon down even mid-scan.
	lines := make(chan string)
	go func() {
		defer close(lines)
		sc := bufio.NewScanner(os.Stdin)
		for sc.Scan() {
			select {
			case lines <- sc.Text():
			case <-ctx.Done():
				return
			}
		}
		if err := sc.Err(); err != nil {
			log.Printf("reading stdin: %v", err)
		}
	}()
	fmt.Println("enter power reduction targets in watts, one per line ('lift' to end an emergency, 'quit' to exit):")
	for {
		select {
		case <-ctx.Done():
			log.Printf("signal received, shutting down")
			return 0
		case line, ok := <-lines:
			if !ok {
				return 0
			}
			line = strings.TrimSpace(line)
			switch {
			case line == "":
				// Blank lines are tolerated quietly (interactive convenience).
			case line == "quit":
				return 0
			case line == "lift":
				m.Lift()
				log.Printf("emergency lifted")
			default:
				w, err := strconv.ParseFloat(line, 64)
				if err != nil || w <= 0 {
					// Malformed target: report and keep serving — a typo must
					// not take the market down mid-emergency.
					log.Printf("ignoring malformed target %q: need a positive wattage, 'lift', or 'quit'", line)
					continue
				}
				runMarket(m, o, w)
			}
		}
	}
}

func runMarket(m *agentproto.Manager, o *obs, targetW float64) {
	out, err := m.RunMarket(targetW)
	if err != nil {
		log.Printf("market failed: %v", err)
		return
	}
	r := out.Result
	o.recordMarket(targetW, r)
	tbl := stats.NewTable(
		fmt.Sprintf("Market cleared: price %.4f, %d rounds, converged=%v, supplied %.1f W of %.1f W",
			r.Price, r.Rounds, r.Converged, r.SuppliedW, targetW),
		"job", "reduction (cores)", "payment rate")
	for job, red := range out.Orders {
		tbl.AddRow(job, red, r.Price*red)
	}
	fmt.Println(tbl.String())
}
