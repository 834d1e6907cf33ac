// Command bench is the repository benchmark: four workloads, each run
// as one pass that either reports the end-to-end metrics (-trace 0) or
// the per-layer metrics with spans (-trace 1). See README.md for the
// metric dictionary and BENCHMARK.json (repo root) for the contract.
//
//	go run -C bench . -workload all -seed 1
//	go run -C bench . -workload live_swarm -seed 3 -seconds 20 -trace 1
//	go run -C bench . -selfcheck 5
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"coolstream/bench/stat"
)

// defaultSeconds is BENCHMARK.json's run_seconds: the length of the
// live workloads' measured window and the scale of fluid_steady's tick
// count when -seconds is not given.
const defaultSeconds = 20

// workloadDef is one benchmark workload: its name and the function that
// runs one pass of it.
type workloadDef struct {
	name string
	run  func(*pass) error
}

var workloads = []workloadDef{
	{"fluid_day", fluidDay},
	{"fluid_steady", fluidSteady},
	{"live_swarm", liveSwarm},
	{"live_fanout", liveFanout},
}

func main() {
	var (
		name      = flag.String("workload", "all", "fluid_day | fluid_steady | live_swarm | live_fanout | all")
		seed      = flag.Uint64("seed", 1, "workload seed: same seed, same inputs")
		seconds   = flag.Int("seconds", defaultSeconds, "measured window of the live workloads; fluid_steady runs 6 ticks per second of it")
		traced    = flag.Int("trace", 0, "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics and span file")
		selfcheck = flag.Int("selfcheck", 0, "run N>=5 untraced passes of every workload twice and compare the two sets")
		outDir    = flag.String("out", defaultOutDir(), "directory for span files and the temporary log")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf("unexpected argument %q (flags take values: -trace 1, not -trace)", flag.Arg(0))
	}
	if *seconds < 1 {
		fatalf("-seconds %d", *seconds)
	}
	if *selfcheck != 0 {
		os.Exit(runSelfcheck(*selfcheck, *seed, *seconds))
	}
	var selected []workloadDef
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fatalf("unknown workload %q", *name)
	}
	printEnv(*seed)
	ok := true
	for _, w := range selected {
		p := newPass(w.name, *seed, fullSizes(*seconds), *traced != 0, *outDir)
		if err := p.execute(w.run); err != nil {
			fatalf("%s: %v", w.name, err)
		}
		p.print(os.Stdout)
		ok = ok && p.correct()
	}
	if !ok {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// defaultOutDir is bench/out, found from either place the driver is
// started: the repository root (bench/run.sh) or bench itself (go run).
func defaultOutDir() string {
	if _, err := os.Stat("BENCHMARK.json"); err == nil {
		return filepath.Join("bench", "out")
	}
	return "out"
}

// printEnv prints what a reader needs to compare two runs' host-time
// numbers: core count, GOMAXPROCS, toolchain, kernel, seed. All live
// traffic crosses the loopback interface.
func printEnv(seed uint64) {
	kernel := "unknown"
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	fmt.Printf("# nproc=%d GOMAXPROCS=%d go=%s kernel=%s seed=%d net=loopback\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), kernel, seed)
}

// row is one reported metric.
type row struct {
	name  string
	value float64
	unit  string
}

// check is one output check; a failed check fails the run.
type check struct {
	name   string
	ok     bool
	detail string
}

// pass is one run of one workload: its inputs, the tracer (nil on the
// untraced pass), and what it reports.
type pass struct {
	workload string
	seed     uint64
	sz       sizes
	tr       *tracer
	// root is the span of the whole pass, parent of the workload's spans.
	root   int
	outDir string

	start time.Time
	// repeated holds the durations of set-up work done several times in
	// this pass; setup_s counts it once, at its median.
	repeated []float64

	rows      []row
	checks    []check
	attempted int
	failed    int
}

func newPass(workload string, seed uint64, sz sizes, traced bool, outDir string) *pass {
	p := &pass{workload: workload, seed: seed, sz: sz, outDir: outDir}
	if traced {
		p.tr = newTracer(workload)
	}
	return p
}

func (p *pass) traced() bool { return p.tr != nil }

// execute runs the workload, then completes the report: on the traced
// pass every per-layer metric the workload did not touch reads 0 (the
// layer did no work), the process-wide rows are added and the span
// file is written.
func (p *pass) execute(run func(*pass) error) error {
	if err := os.MkdirAll(p.outDir, 0o755); err != nil {
		return err
	}
	p.start = time.Now()
	p.root = p.tr.begin("bench."+p.workload, noSpan)
	err := run(p)
	p.tr.end(p.root)
	if err != nil {
		return err
	}
	if !p.traced() {
		return p.requireRows(endToEnd)
	}
	if err := p.codecProbes(); err != nil {
		return err
	}
	p.procRows()
	have := make(map[string]bool, len(p.rows))
	for _, r := range p.rows {
		have[r.name] = true
	}
	for _, m := range perLayer {
		if !have[m.name] {
			p.rows = append(p.rows, row{m.name, 0, m.unit})
		}
	}
	if err := p.requireRows(perLayer); err != nil {
		return err
	}
	return p.tr.write(filepath.Join(p.outDir, p.workload+".trace.json"))
}

// requireRows reports a driver bug: a metric missing from, unknown to,
// or with another unit than the list BENCHMARK.json is written from.
func (p *pass) requireRows(spec []metricSpec) error {
	units := make(map[string]string, len(spec))
	for _, m := range spec {
		units[m.name] = m.unit
	}
	seen := make(map[string]bool, len(p.rows))
	for _, r := range p.rows {
		u, ok := units[r.name]
		if !ok || u != r.unit || seen[r.name] {
			return fmt.Errorf("metric %s [%s] is not in the metric list, or twice", r.name, r.unit)
		}
		seen[r.name] = true
	}
	for _, m := range spec {
		if !seen[m.name] {
			return fmt.Errorf("metric %s was not measured", m.name)
		}
	}
	return nil
}

// e2e reports an end-to-end metric (untraced pass only).
func (p *pass) e2e(name string, value float64, unit string) {
	if !p.traced() {
		p.rows = append(p.rows, row{name, value, unit})
	}
}

// layer reports a per-layer metric (traced pass only).
func (p *pass) layer(name string, value float64, unit string) {
	if p.traced() {
		p.rows = append(p.rows, row{name, value, unit})
	}
}

// op counts one operation the driver issued against the system and
// whether it failed.
func (p *pass) op(failed bool) {
	p.attempted++
	if failed {
		p.failed++
	}
}

// check records one output check; it also counts as an operation.
func (p *pass) check(name string, ok bool, format string, args ...any) {
	p.checks = append(p.checks, check{name, ok, fmt.Sprintf(format, args...)})
	p.op(!ok)
}

func (p *pass) correct() bool {
	for _, c := range p.checks {
		if !c.ok {
			return false
		}
	}
	return p.failed == 0
}

// settle is the fixed quiet period before every measured window: the
// sockets, timers and heap left by set-up come to rest, then one
// forced collection gives every window the same starting heap.
func (p *pass) settle() {
	time.Sleep(p.sz.settle)
	runtime.GC()
}

// setupSeconds is the wall time from the start of the pass to now,
// with set-up work that was repeated counted once at its median.
func (p *pass) setupSeconds() float64 {
	s := time.Since(p.start).Seconds()
	for _, d := range p.repeated {
		s -= d
	}
	return s + stat.Median(p.repeated)
}

// print writes one line per metric and check, then the result object
// the harness reads from the last line.
func (p *pass) print(w *os.File) {
	for _, r := range p.rows {
		fmt.Fprintf(w, "%s %s %v %s\n", p.workload, r.name, r.value, r.unit) // %v: all the digits
	}
	for _, c := range p.checks {
		verdict := "ok"
		if !c.ok {
			verdict = "FAILED"
		}
		fmt.Fprintf(w, "# check %s %s: %s — %s\n", p.workload, c.name, verdict, c.detail)
	}
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{p.correct(), p.attempted, p.failed, make(map[string]jsonMetric, len(p.rows))}
	for _, r := range p.rows {
		out.Metrics[r.name] = jsonMetric{r.value, r.unit}
	}
	data, err := json.Marshal(out)
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Fprintf(w, "%s\n", data)
}
