// Command perfbench is the repository's benchmark: it runs one named
// workload of the operand-gating pipeline, checks that every output is
// correct, and prints one JSON result line with the workload's metrics.
//
//	python3 perfbench/run.py --workload suite-cold --seed 1 --seconds 20 --trace 0
//
// run.py builds this program from the checkout's sources and runs it from
// the checkout root. See README.md for the workloads, the metrics and what
// each should move.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"opgate"
	"opgate/internal/store"
)

// defaultSeed is the seed claims are developed on. digests.json holds the
// expected report digests for it and for the held-out seed 424242, on
// which a claim is confirmed.
const defaultSeed = 1

//go:embed digests.json
var digestsJSON []byte

func main() {
	workloadF := flag.String("workload", "", "workload: suite-cold, suite-warm or sweep-analysis")
	seed := flag.Uint64("seed", defaultSeed, "input seed: picks the generated programs")
	seconds := flag.Int("seconds", 20, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
	child := flag.String("child", "", "internal: run one timed phase in this process")
	storeDir := flag.String("store", "", "internal: store directory of a child phase")
	spans := flag.String("spans", "", "internal: where a traced child writes its spans")
	flag.Parse()

	if *child != "" {
		if err := childMain(*child, *seed, *storeDir, *spans); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench child:", err)
			os.Exit(1)
		}
		return
	}
	var expect map[string]map[string]string
	if err := json.Unmarshal(digestsJSON, &expect); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: digests.json:", err)
		os.Exit(2)
	}
	dir := filepath.Join(".bench_build", "work", strconv.Itoa(os.Getpid()))
	b := &bench{
		name: *workloadF, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		traced: *trace == 1, work: dir,
		expect: expect[strconv.FormatUint(*seed, 10)], seen: map[string]string{},
	}
	res, err := b.run()
	if rmErr := os.RemoveAll(dir); rmErr != nil && err == nil {
		err = rmErr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := encodeResult(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// bench is one benchmark run: its settings and its correctness gate.
type bench struct {
	name    string // the workload
	seed    uint64
	seconds time.Duration
	traced  bool
	work    string

	expect map[string]string // committed report digests for this seed
	seen   map[string]string // first digest of each kind in this run

	attempted, failed int64
	failures          []string
}

func (b *bench) run() (Result, error) {
	if err := os.MkdirAll(b.work, 0o755); err != nil {
		return Result{}, err
	}
	var metrics map[string]Metric
	var err error
	switch b.name {
	case "suite-cold":
		metrics, err = b.suite(false)
	case "suite-warm":
		metrics, err = b.suite(true)
	case "sweep-analysis":
		metrics, err = b.sweep()
	default:
		return Result{}, fmt.Errorf("unknown workload %q (want suite-cold, suite-warm or sweep-analysis)", b.name)
	}
	if err != nil {
		return Result{}, err
	}
	for _, f := range b.failures {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL:", f)
	}
	if b.traced {
		metrics["error_ratio"] = Metric{float64(b.failed) / float64(max(b.attempted, 1)), "ratio"}
	}
	return Result{Correct: b.failed == 0 && len(b.failures) == 0 && b.attempted > 0,
		Attempted: b.attempted, Failed: b.failed, Metrics: metrics}, nil
}

// fail records a correctness failure that costs ops operations.
func (b *bench) fail(ops int64, format string, args ...any) {
	b.failed += ops
	b.failures = append(b.failures, fmt.Sprintf(format, args...))
}

// checkDigest gates one report digest of a kind: every digest of a kind
// in a run must agree, and must equal the committed one when the seed
// has one.
func (b *bench) checkDigest(kind, digest string) bool {
	fmt.Fprintf(os.Stderr, "perfbench: digest %s seed=%d %s\n", kind, b.seed, digest)
	if first, ok := b.seen[kind]; ok && first != digest {
		return false
	}
	b.seen[kind] = digest
	if want, ok := b.expect[kind]; ok && want != digest {
		return false
	}
	return true
}

// gateSuite checks one suite process: it succeeded, its reports are the
// expected bytes, and the store was used the way the workload says.
func (b *bench) gateSuite(cr childRun, warm bool) {
	o := cr.out
	b.attempted += o.Ops
	switch {
	case o.Err != "":
		b.fail(o.Ops, "suite: %s", o.Err)
	case !b.checkDigest("suite", o.Digest):
		b.fail(o.Ops, "suite: report bytes differ from the expected digest")
	case !o.HasStore:
		b.fail(o.Ops, "suite: ran without a store")
	case warm && (o.Emulations != 0 || o.Store.Misses != 0):
		b.fail(o.Ops, "suite-warm: %d emulations, %d store misses; want 0 and 0", o.Emulations, o.Store.Misses)
	case !warm && (o.Emulations == 0 || o.Store.Hits != 0):
		b.fail(o.Ops, "suite-cold: %d emulations, %d store hits; want >0 and 0", o.Emulations, o.Store.Hits)
	}
}

func (b *bench) gateSweep(cr childRun) {
	o := cr.out
	b.attempted += o.Ops
	switch {
	case o.Err != "":
		b.fail(o.Ops, "sweep: %s", o.Err)
	case !b.checkDigest("sweep", o.Digest):
		b.fail(o.Ops, "sweep: cells differ from the expected digest")
	case o.HasStore:
		b.fail(o.Ops, "sweep: ran with a store")
	}
}

// repeat runs setup reps times and returns the median set-up seconds.
func repeat(reps int, setup func(i int) error) (float64, error) {
	var ts []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := setup(i); err != nil {
			return 0, err
		}
		ts = append(ts, time.Since(t0).Seconds())
	}
	return median(ts), nil
}

// phase is the timed phase of a process-per-iteration workload: one child
// per iteration until the run's seconds are spent, at least one.
type phase struct{ walls, cpus, rss []float64 }

func (b *bench) timed(iter func(i int) (childRun, error)) (phase, error) {
	var ph phase
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < b.seconds; i++ {
		cr, err := iter(i)
		if err != nil {
			return ph, err
		}
		ph.walls = append(ph.walls, cr.wall)
		ph.cpus = append(ph.cpus, cr.cpu)
		ph.rss = append(ph.rss, cr.rssMB)
	}
	return ph, nil
}

// endToEnd turns a timed phase into the end-to-end metrics. One job is
// one process's whole run (every experiment, or every sweep); opsPerJob
// operations complete per job; workPerJob simulated instructions are
// answered per job.
func endToEnd(setup float64, ph phase, opsPerJob int64, workPerJob float64) map[string]Metric {
	wall := median(ph.walls)
	ms := make([]float64, len(ph.walls))
	var total float64
	for i, w := range ph.walls {
		ms[i] = w * 1000
		total += w
	}
	pct, p99 := tailPercentile(ms, 99)
	q1, q3 := quartiles(ms)
	fmt.Printf("jobs: %d, job ms %.0f, quartiles %.1f..%.1f; p99_ms is p%g of %d samples\n", len(ms), ms, q1, q3, pct, len(ms))
	return map[string]Metric{
		"setup_s":     {setup, "s"},
		"wall_s":      {wall, "s"},
		"cpu_s":       {median(ph.cpus), "s"},
		"sim_mips":    {workPerJob / wall / 1e6, "MIPS"},
		"peak_rss_mb": {median(ph.rss), "MB"},
		"p50_ms":      {wall * 1000, "ms"},
		"p99_ms":      {p99, "ms"},
		"rps":         {float64(opsPerJob*int64(len(ph.walls))) / total, "1/s"},
	}
}

func (b *bench) suite(warm bool) (map[string]Metric, error) {
	names, err := workloadNames(b.seed)
	if err != nil {
		return nil, err
	}
	// Set-up generates the programs; for suite-warm it also fills a store
	// with a cold run in its own process. Only the last fill is kept.
	filled := ""
	reps := 5
	if warm {
		reps = 2
	}
	setup, err := repeat(reps, func(i int) error {
		if err := buildPrograms(names); err != nil {
			return err
		}
		if !warm {
			return nil
		}
		dir := filepath.Join(b.work, fmt.Sprintf("fill%d", i))
		cr, err := runChild("suite", b.seed, dir, "")
		if err != nil {
			return err
		}
		b.gateSuite(cr, false)
		if filled != "" {
			if err := os.RemoveAll(filled); err != nil {
				return err
			}
		}
		filled = dir
		return nil
	})
	if err != nil {
		return nil, err
	}
	storeFor := func(i int) string {
		if warm {
			return filled
		}
		return filepath.Join(b.work, fmt.Sprintf("cold%d", i))
	}
	iter := func(i int, spans string) (childRun, error) {
		dir := storeFor(i)
		cr, err := runChild("suite", b.seed, dir, spans)
		if err != nil {
			return cr, err
		}
		b.gateSuite(cr, warm)
		if !warm {
			err = os.RemoveAll(dir)
		}
		return cr, err
	}
	if b.traced {
		return b.tracedPass(iter, func(tr *Tracer) (stageCounts, error) {
			var from *store.DirBackend
			if warm {
				if from, err = store.OpenDir(filled, 0); err != nil {
					return stageCounts{}, err
				}
			}
			return stagePass(tr, names, suiteVariants, paperThresholds, from, !warm, true)
		})
	}
	work, err := simWork(names, false)
	if err != nil {
		return nil, err
	}
	ph, err := b.timed(func(i int) (childRun, error) { return iter(i, "") })
	if err != nil {
		return nil, err
	}
	return endToEnd(setup, ph, int64(len(opgate.Experiments())), work), nil
}

func (b *bench) sweep() (map[string]Metric, error) {
	names, err := workloadNames(b.seed)
	if err != nil {
		return nil, err
	}
	setup, err := repeat(5, func(int) error { return buildPrograms(names) })
	if err != nil {
		return nil, err
	}
	iter := func(_ int, spans string) (childRun, error) {
		cr, err := runChild("sweep", b.seed, "", spans)
		if err == nil {
			b.gateSweep(cr)
		}
		return cr, err
	}
	if b.traced {
		return b.tracedPass(iter, func(tr *Tracer) (stageCounts, error) {
			return stagePass(tr, names, sweepVariants(), sweepGrid, nil, false, false)
		})
	}
	work, err := simWork(names, true)
	if err != nil {
		return nil, err
	}
	ph, err := b.timed(func(i int) (childRun, error) { return iter(i, "") })
	if err != nil {
		return nil, err
	}
	ops := int64(len(sweepFigures) * len(sweepGrid))
	return endToEnd(setup, ph, ops, work), nil
}
