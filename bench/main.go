// Command bench is the repository's benchmark: overload-to-order
// latency of the agentproto manager, MClr solver throughput, and
// simulator speed, over five workloads, with per-layer numbers from a
// separate traced pass. See README.md in this directory.
//
//	go run -C bench . [-seed S] [-workload W] [-trace 0|1] [-seconds T] [-out file]
//	go run -C bench . -selfcheck [-runs N]
//
// Every workload runs in a fresh child process of this binary, so peak
// RSS and GC state belong to that workload alone. Given -trace, the last
// line of standard output is the result object BENCHMARK.json's driver
// reads.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// sections are the five workloads, in the order they are run and
// printed. A -workload value names one of them, or several joined by
// "-": BENCHMARK.json's workloads are such bundles, because its contract
// wants every end-to-end metric from every workload it lists.
var sections = []string{"fleet_bin_tcp", "fleet_json_stream", "core_clear", "sim_dense", "sim_sparse"}

const (
	defaultSeed = 1
	// defaultShareSeconds is the measuring time of one share of a run: a
	// fleet workload takes two shares, the others one each.
	defaultShareSeconds = 10
	outSchema           = "mpr/bench/v1"
)

// shares is how a run's measuring time is split among its workloads. The
// fleets get double: their p90 needs a hundred markets or more, and on a
// shared host it needs them spread over enough seconds that a slow one
// does not decide the tail.
func shares(name string) float64 {
	if _, ok := fleetSpecs[name]; ok {
		return 2
	}
	return 1
}

// scale is the problem size of every workload. fullScale is what the
// numbers are quoted at; the package's tests run a much smaller one.
type scale struct {
	agents       int       // fleet size: one connection per job is the protocol
	levels       int       // reduction targets the market script cycles through
	warmup       int       // untimed markets before the timed loop
	core         coreSizes // core_clear pool sizes
	denseDays    int       // sim_dense: days of the seeded "gaia" preset
	sparseBursts int       // sim_sparse: bursts of two jobs, 150k slots apart
}

// fullScale is the issue's sizing shrunk to the contract's time cap, the
// shapes kept. 1000 agents clear ≈ 4 markets/s on the reference box, too
// few for a p90 in a twenty-second share, so the fleet is 400 (shrink the
// fleet, not the market count). The 92-day preset takes ≈ 19 s a lap and
// 2000 bursts ≈ 10 s on the slot core; both are cut until a run of the
// simulator takes under a second, so that a ten-second share holds enough
// laps for a median.
var fullScale = scale{
	agents: 400, levels: 7, warmup: 3,
	core:      coreSizes{clear: 30000, stream: 100000, interactive: 10000, baseline: 1000},
	denseDays: 7, sparseBursts: 100,
}

// section is a workload between set-up and report. The parent lets the
// sections of a run measure in turns, a slice at a time, so that each
// one's samples span the whole run: on a shared host, whose speed drifts
// over tens of seconds, a workload measured in one contiguous stretch
// reports the stretch as much as the code.
type section interface {
	measure(seconds float64) // add seconds of timed work
	finish() (*Result, error)
	close()
}

// openSection sets one workload up in this process.
func openSection(name string, seed int64, traced bool, sc scale) (section, error) {
	fleet, isFleet := fleetSpecs[name]
	fleet.scale = sc
	sim, isSim := simSpecs(sc)[name]
	switch {
	case name == "core_clear":
		return openCoreClear(seed, traced, sc.core)
	case isFleet:
		return openFleet(fleet, seed, traced)
	case isSim:
		return openSim(sim, seed, traced)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(sections, ", "))
}

// finishSection closes a section and adds what only the process knows.
func finishSection(s section) (*Result, error) {
	defer s.close()
	res, err := s.finish()
	if err != nil {
		return nil, err
	}
	if !res.Traced {
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		res.add(scalar("peak_rss_mb", "MB", rss))
	}
	return res, nil
}

// peakRSSMB reads this process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1000, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// serveSection is the child's side of the protocol: set up, say "ready",
// then obey one command a line on standard input — "measure <seconds>",
// answered "ok", or "finish", answered with the Result.
func serveSection(name string, seed int64, traced bool, in io.Reader, out io.Writer) error {
	s, err := openSection(name, seed, traced, fullScale)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	fmt.Fprintln(out, "ready")
	lines := bufio.NewScanner(in)
	for lines.Scan() {
		var seconds float64
		if _, err := fmt.Sscanf(lines.Text(), "measure %g", &seconds); err == nil {
			s.measure(seconds)
			fmt.Fprintln(out, "ok")
			continue
		}
		break // "finish", or a parent that went away
	}
	res, err := finishSection(s)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return json.NewEncoder(out).Encode(res)
}

// child is the parent's handle on one workload's process.
type child struct {
	name string
	cmd  *exec.Cmd
	in   io.WriteCloser
	out  *bufio.Reader
}

// startChild starts one workload in a fresh process of this binary and
// waits until it has set up.
func startChild(name string, seed int64, traced bool) (*child, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	c := &child{name: name, cmd: exec.Command(exe, "-section", name, "-seed", strconv.FormatInt(seed, 10), "-trace", trace)}
	c.cmd.Stderr = os.Stderr
	if c.in, err = c.cmd.StdinPipe(); err != nil {
		return nil, err
	}
	stdout, err := c.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	c.out = bufio.NewReaderSize(stdout, 1<<20)
	if err := c.cmd.Start(); err != nil {
		return nil, err
	}
	if err := c.expect("ready"); err != nil {
		c.stop()
		return nil, err
	}
	return c, nil
}

// expect reads one line from the child and requires it to be want.
func (c *child) expect(want string) error {
	line, err := c.out.ReadString('\n')
	if err != nil || strings.TrimSpace(line) != want {
		return fmt.Errorf("%s child: got %q (%v), want %q", c.name, line, err, want)
	}
	return nil
}

func (c *child) measure(seconds float64) error {
	if _, err := fmt.Fprintf(c.in, "measure %g\n", seconds); err != nil {
		return fmt.Errorf("%s child: %w", c.name, err)
	}
	return c.expect("ok")
}

// finish collects the child's Result and waits for it to exit.
func (c *child) finish() (*Result, error) {
	defer c.stop()
	if _, err := fmt.Fprintln(c.in, "finish"); err != nil {
		return nil, fmt.Errorf("%s child: %w", c.name, err)
	}
	var res Result
	if err := json.NewDecoder(c.out).Decode(&res); err != nil {
		return nil, fmt.Errorf("%s child printed no result: %w", c.name, err)
	}
	return &res, nil
}

// stop closes the child's input, which ends it, and waits for that.
func (c *child) stop() {
	c.in.Close()
	_ = c.cmd.Wait() // its Result, or the lack of one, has been seen already
}

// hostFacts are recorded with every run: the numbers mean nothing
// without them.
type hostFacts struct {
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Transports string `json:"transports"`
	Loop       string `json:"loop"`
}

func host() hostFacts {
	return hostFacts{
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Transports: "TCP over host loopback / in-memory net.Pipe",
		Loop:       "closed loop, one client, one market in flight",
	}
}

// outFile is what -out writes.
type outFile struct {
	Schema  string    `json:"schema"`
	Host    hostFacts `json:"host"`
	Seed    int64     `json:"seed"`
	Results []*Result `json:"results"`
}

// contractLine is the last line of standard output under -trace.
type contractLine struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]contractValue `json:"metrics"`
}

type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// additive are the metrics a bundle of workloads reports as the sum over
// its child processes; every other metric belongs to one workload.
var additive = map[string]bool{"setup_s": true, "peak_rss_mb": true}

// merge folds the results of one pass into the contract's result
// object, and lists what is wrong with the metrics themselves.
func merge(results []*Result) (contractLine, []string) {
	line := contractLine{Metrics: map[string]contractValue{}}
	var problems []string
	for _, r := range results {
		line.Attempted += r.Attempted
		line.Failed += r.Failed
		for _, m := range r.Metrics {
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				problems = append(problems, fmt.Sprintf("%s: %s is %v", r.Section, m.Name, m.Value))
				m.Value = 0
			}
			old, dup := line.Metrics[m.Name]
			switch {
			case dup && additive[m.Name]:
				m.Value += old.Value
			case dup:
				problems = append(problems, fmt.Sprintf("%s reported by two workloads", m.Name))
			}
			line.Metrics[m.Name] = contractValue{Value: m.Value, Unit: m.Unit}
		}
	}
	return line, problems
}

func printResult(w io.Writer, r *Result) {
	pass := "untraced"
	if r.Traced {
		pass = "traced"
	}
	fmt.Fprintf(w, "\n== %s (%s, seed %d): %d operations, %d failed\n", r.Section, pass, r.Seed, r.Attempted, r.Failed)
	for _, m := range r.Metrics {
		fmt.Fprintf(w, "%-40s %14.6g %-6s n=%d", m.Name, m.Value, m.Unit, m.N)
		if m.Tail != "" {
			fmt.Fprintf(w, "  %s %s", m.Tail, m.Unit)
		}
		fmt.Fprintln(w)
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "FAILED: %s\n", f)
	}
}

// shareSeconds is the length of one share when the named workloads split
// seconds of measuring time.
func shareSeconds(names []string, seconds float64) float64 {
	total := 0.0
	for _, name := range names {
		total += shares(name)
	}
	return seconds / total
}

// slices is how many turns each workload of a run gets to measure in.
const slices = 4

// runPass runs the named workloads, each in a child process: they set
// up one after the other, measure in turns, a slice at a time, while
// the others sit idle, and report.
func runPass(w io.Writer, names []string, seed int64, perShare float64, traced bool) ([]*Result, error) {
	var children []*child
	defer func() {
		for _, c := range children {
			c.stop()
		}
	}()
	for _, name := range names {
		c, err := startChild(name, seed, traced)
		if err != nil {
			return nil, err
		}
		children = append(children, c)
	}
	for i := 0; i < slices; i++ {
		for _, c := range children {
			if err := c.measure(perShare * shares(c.name) / slices); err != nil {
				return nil, err
			}
		}
	}
	var pass []*Result
	for _, c := range children {
		res, err := c.finish()
		if err != nil {
			return nil, err
		}
		printResult(w, res)
		pass = append(pass, res)
	}
	children = nil
	return pass, nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		workload     = fs.String("workload", "", "workload to run: one of "+strings.Join(sections, ", ")+", or several joined by '-' (default: all five)")
		seed         = fs.Int64("seed", defaultSeed, "seed of every generated input")
		seconds      = fs.Float64("seconds", 0, "measuring time of the run, split among its workloads (default 10 each, a fleet 20)")
		trace        = fs.Int("trace", -1, "0: untraced pass (end-to-end metrics), 1: traced pass (per-layer metrics); default both")
		out          = fs.String("out", "", "write results, and the traced pass's spans, to this file as JSON")
		selfcheck    = fs.Bool("selfcheck", false, "A/A calibration: run BENCHMARK.json's workloads in two interleaved sets and compare them")
		runs         = fs.Int("runs", 3, "with -selfcheck: runs per set")
		updateGolden = fs.Bool("update-golden", false, "rewrite golden.json from this run (default seed, all workloads, both passes)")
		section      = fs.String("section", "", "internal: serve one workload in this process to a parent on standard input and output")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}

	if *section != "" {
		if err := serveSection(*section, *seed, *trace == 1, os.Stdin, stdout); err != nil {
			return fail(err)
		}
		return 0
	}
	if *selfcheck {
		if err := selfCheck(stdout, *seed, *runs); err != nil {
			return fail(err)
		}
		return 0
	}

	names := sections
	if *workload != "" {
		names = strings.Split(*workload, "-")
	}
	perShare := float64(defaultShareSeconds)
	if *seconds > 0 {
		perShare = shareSeconds(names, *seconds)
	}
	passes := []bool{false, true}
	if *trace >= 0 {
		passes = []bool{*trace == 1}
	}

	h := host()
	fmt.Fprintf(stdout, "bench: %s, nproc %d, GOMAXPROCS %d, %s, %s; seed %d, %.3g s per share\n",
		h.GoVersion, h.NumCPU, h.GOMAXPROCS, h.Transports, h.Loop, *seed, perShare)

	golden, err := loadGolden()
	if err != nil {
		return fail(err)
	}
	var all []*Result
	var problems []string
	var line contractLine
	for _, traced := range passes {
		pass, err := runPass(stdout, names, *seed, perShare, traced)
		if err != nil {
			return fail(err)
		}
		for _, res := range pass {
			if want, ok := golden[res.Section]; ok && *seed == defaultSeed && !*updateGolden {
				for _, d := range diffFacts(want, res.Facts) {
					problems = append(problems, fmt.Sprintf("%s departs from golden.json: %s", res.Section, d))
				}
			}
		}
		if len(passes) == 1 {
			var ps []string
			line, ps = merge(pass)
			problems = append(problems, ps...)
		}
		all = append(all, pass...)
	}
	if len(passes) == 2 {
		// Tracing must not change what the program computes.
		for i, name := range names {
			for _, d := range diffFacts(all[i].Facts, all[len(names)+i].Facts) {
				problems = append(problems, fmt.Sprintf("%s traced pass departs from untraced: %s", name, d))
			}
		}
	}
	if *updateGolden {
		if err := writeGolden(all[:len(names)]); err != nil {
			return fail(err)
		}
	}
	if *out != "" {
		data, err := json.MarshalIndent(outFile{Schema: outSchema, Host: h, Seed: *seed, Results: all}, "", " ")
		if err != nil {
			return fail(err)
		}
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			return fail(err)
		}
	}

	fmt.Fprintln(stdout)
	for _, p := range problems {
		fmt.Fprintln(stdout, "FAILED:", p)
	}
	failed := len(problems) // a failed check is a failed operation
	for _, r := range all {
		failed += r.Failed
	}
	if len(passes) == 1 {
		line.Failed += len(problems)
		line.Correct = failed == 0
		if err := json.NewEncoder(stdout).Encode(line); err != nil {
			return fail(err)
		}
	} else if failed == 0 {
		fmt.Fprintln(stdout, "all checks passed")
	}
	if failed > 0 {
		return 1
	}
	return 0
}
