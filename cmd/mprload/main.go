// Command mprload is the deterministic load harness for the interactive
// MPR market: it drives tens of thousands of synthetic bidding agents
// from one process against either an in-process manager (selfhost, the
// default — agents attach over fd-free net.Pipe transports, so 50k+
// agents fit inside ordinary descriptor limits) or an external mprd
// (-connect, TCP).
//
// While markets clear, every agent records its observed round turnaround
// into one shared HDR histogram; the harness samples p50/p99/p999 plus
// the clearing price, fleet-attendance, and runtime-health (mpr_rt_*)
// series into an in-memory tsdb, evaluates the alerts.LoadRules SLO
// scorecard live over those series, and finally emits a versioned
// mprload/report/v4 JSON artifact (-report) with the latency digests and
// SLO verdicts. When the scorecard fails (exit 3) and -report names a
// file, an mprflight/v2 black-box bundle — goroutine profile, trace
// window, series history, the triggering firing — is parked next to it
// as <report>.flight.json and named in its flight_bundle field, so a
// failed soak carries its own diagnosis.
//
// Examples:
//
//	mprload -agents 50000 -duration 10s -report LOAD.json
//	mprload -agents 64 -connect 127.0.0.1:7946 -duration 2s -report -
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"time"

	"mpr/internal/telemetry"
	"mpr/internal/telemetry/flight"
	"mpr/internal/telemetry/tsdb"
)

func main() {
	var (
		agents   = flag.Int("agents", 1000, "synthetic agents to drive")
		connect  = flag.String("connect", "", "external manager address (empty = selfhost an in-process manager)")
		duration = flag.Duration("duration", 5*time.Second, "how long to run")
		mode     = flag.String("mode", "closed", "market arrival: open (one per -interval) or closed (back-to-back)")
		interval = flag.Duration("interval", 250*time.Millisecond, "open-loop market period")
		dist     = flag.String("dist", "lognormal", "reluctance distribution: uniform, lognormal, or bimodal")
		seed     = flag.Int64("seed", 1, "base seed for the deterministic fleet")
		workers  = flag.Int("workers", 0, "dial fan-out workers (0 = GOMAXPROCS)")
		jitter   = flag.Float64("jitter", 0.1, "per-round relative bid perturbation in [0,1]")
		wire     = flag.String("wire", "json", "agent wire format: json (lines) or binary (length-prefixed frames)")
		shards   = flag.Int("shards", 0, "selfhost manager connection shards (0 = default)")
		report   = flag.String("report", "", "write the mprload/report/v4 JSON artifact here (- = stdout)")
		metrics  = flag.String("metrics", "", "serve /metrics, /debug/* on this address while running")
	)
	flag.Parse()

	cfg := loadConfig{
		Agents:   *agents,
		Connect:  *connect,
		Mode:     *mode,
		Duration: *duration,
		Interval: *interval,
		Dist:     *dist,
		Seed:     *seed,
		Workers:  *workers,
		Jitter:   *jitter,
		Wire:     *wire,
		Shards:   *shards,
		Logf:     log.Printf,
	}
	h, err := newHarness(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if *metrics != "" {
		handler := telemetry.NewHandler(telemetry.HandlerConfig{
			Registry: h.reg,
			Tracer:   h.tracer,
			Series:   tsdb.Handler(h.store),
			Flight:   h.flight.Handler(),
		})
		go func() {
			if err := http.ListenAndServe(*metrics, handler); err != nil {
				log.Printf("metrics server: %v", err)
			}
		}()
	}

	where := "selfhost"
	if cfg.Connect != "" {
		where = "tcp → " + cfg.Connect
	}
	log.Printf("connecting %d agents (%s)…", cfg.Agents, where)
	dialStart := time.Now()
	if err := h.connect(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer h.close()
	log.Printf("%d/%d agents connected in %.2fs (%d dial errors), target %.0f W",
		len(h.agents), cfg.Agents, time.Since(dialStart).Seconds(), h.dialErrors.Load(), h.targetW)

	rep, err := h.run()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	log.Printf("done: %d markets (%d converged, %d errors), round-trip p99 %.4fs p999 %.4fs, SLO firings %d",
		rep.Markets.Runs, rep.Markets.Converged, rep.Markets.Errors,
		rep.RoundTripSeconds.P99, rep.RoundTripSeconds.P999, len(rep.SLO.Firings))

	// On SLO failure, park the black box next to a report file before the
	// report is written, so the verdict names its evidence — the exit-3
	// CI path becomes self-diagnosing.
	if !rep.SLO.Passed && *report != "" && *report != "-" {
		path := *report + ".flight.json"
		trigger := &rep.SLO.Firings[0]
		if err := h.flight.DumpTo(time.Now(), path, flight.ReasonSLO, trigger); err != nil {
			fmt.Fprintln(os.Stderr, err)
		} else {
			rep.FlightBundle = path
			log.Printf("SLO failed: flight bundle written to %s", path)
		}
	}

	if *report != "" {
		if err := writeReport(rep, *report); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if !rep.SLO.Passed {
		os.Exit(3)
	}
}
