// Command perfbench is the repository benchmark: it sets up one
// workload from a seed, drives it closed-loop through the public entry
// points (predator.Open + DB.Exec, or predator.NewServer +
// predator.Dial + Client.Exec) for a fixed time, checks every result,
// and prints every metric by name with its unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 a
// separate traced run reports the per-layer ones and writes its spans
// to a JSON-lines file. BENCHMARK.json at the repository root lists
// both sets; layers.json beside this file maps each per-layer metric
// to the end-to-end metric it should move and records the findings the
// benchmark made. Lines before the JSON also print the per-class
// numbers (write_p50_us, vm_rows_per_s, ...) and error_ratio.
//
// Usage (from the repository root, via the wrapper that builds it):
//
//	bash perfbench/run.sh --workload oltp_wire --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"predator"
)

func main() {
	// Isolated UDFs re-execute this binary as their executor.
	predator.MaybeRunExecutor(nil)
	if os.Getenv(echoEnv) == "1" {
		runEcho()
		return
	}
	os.Exit(run(os.Args[1:]))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// line is one printed metric; the JSON result holds a subset of them.
type line struct {
	name  string
	value float64
	unit  string
}

// workloadNames lists the workloads BENCHMARK.json names.
var workloadNames = []string{"oltp_wire", "oltp_embedded", "udf_scan"}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+fmt.Sprint(workloadNames))
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 10, "seconds of measurement")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	dir := fs.String("dir", ".perfbench", "directory for the run's databases and trace output")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if !slices.Contains(workloadNames, *name) || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fs.Usage()
		return 2
	}
	res, lines, err := runWorkload(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	for _, l := range lines {
		fmt.Printf("%-40s %16.4f %s\n", l.name, l.value, l.unit)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

func newWorkload(name string, seed int64) *workload {
	switch name {
	case "oltp_wire":
		return oltpWorkload(seed, true)
	case "oltp_embedded":
		return oltpWorkload(seed, false)
	default:
		return scanWorkload(seed)
	}
}

// runWorkload sets the workload up, measures it and checks it. Errors
// that stop the run from producing numbers are returned; wrong results
// are counted and make the result incorrect.
func runWorkload(name string, seed int64, d time.Duration, traced bool, dir string) (result, []line, error) {
	w := newWorkload(name, seed)
	work, err := filepath.Abs(filepath.Join(dir, fmt.Sprintf("%s-%d", name, os.Getpid())))
	if err != nil {
		return result{}, nil, err
	}
	defer os.RemoveAll(work)
	if err := os.MkdirAll(work, 0o755); err != nil {
		return result{}, nil, err
	}
	long := w.setupNorm&refLong != 0
	for _, p := range w.norm {
		long = long || p&refLong != 0
	}
	ref, err := newReference(work, long)
	if err != nil {
		return result{}, nil, err
	}
	defer ref.close()

	setups := w.setups
	if traced {
		setups = 1 // setup_s is an end-to-end metric; one copy suffices here
	}
	var inst *instance
	var setupS []float64
	var setupRef []refSample // before each set-up, and after the last
	for i := range setups {
		sub := filepath.Join(work, fmt.Sprint(i))
		if err := os.MkdirAll(sub, 0o755); err != nil {
			return result{}, nil, err
		}
		rs, err := ref.sample(setupRefRuns)
		if err != nil {
			return result{}, nil, err
		}
		setupRef = append(setupRef, rs...)
		t0 := time.Now()
		in, err := w.setup(sub)
		if err != nil {
			return result{}, nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		if i < setups-1 {
			if err := in.close(); err != nil {
				return result{}, nil, err
			}
			os.RemoveAll(sub)
			continue
		}
		inst = in
	}
	rs, err := ref.sample(setupRefRuns)
	if err != nil {
		return result{}, nil, err
	}
	setupRef = append(setupRef, rs...)
	setupRSS := peakRSSMB()
	closed := false
	defer func() {
		if !closed {
			inst.close()
		}
	}()

	rn := newRunner(w, inst.db.Engine(), inst.entry, ref)
	var problems []string
	var attempted, failed int64
	acked := slices.Clone(inst.acked)
	userBytes := inst.userBytes
	// phase measures the sessions for d and folds its outcome in.
	phase := func(d time.Duration) (time.Duration, counters) {
		rn.reset()
		c0 := rn.cs.read()
		elapsed := rn.run(inst.sessions, d)
		window := rn.cs.read().sub(c0).sub(rn.side)
		attempted += rn.attempted.Load()
		failed += rn.failed.Load()
		acked = append(acked, rn.acked...)
		userBytes += rn.bytes
		return elapsed, window
	}

	var lines []line
	metrics := map[string]metric{}
	if !traced {
		elapsed, window := phase(d)
		if len(rn.calib) == 0 {
			return result{}, nil, errors.New("the reference computation never ran")
		}
		problems = append(problems, w.guard(inst, rn, window)...)
		lines = endToEnd(rn, w, elapsed, setupS, setupRef)
	} else {
		_, window := phase(d / 2)
		problems = append(problems, w.guard(inst, rn, window)...)
		base := classP50s(rn)
		rn.tr = newRecorder()
		_, window = phase(d - d/2)
		lines = perLayer(rn, window, base)
		out := filepath.Join(dir, fmt.Sprintf("trace-%s.jsonl", name))
		if err := rn.tr.writeFile(out); err != nil {
			return result{}, nil, err
		}
		lines = append(lines, line{"trace.spans", float64(len(rn.tr.spans)), "count"})
	}

	closed = true
	if err := inst.close(); err != nil {
		return result{}, nil, fmt.Errorf("close: %w", err)
	}
	if !traced {
		onDisk, err := fileBytes(inst.path)
		if err != nil {
			return result{}, nil, err
		}
		lines = append(lines, line{"space_amp", ratio(float64(onDisk), float64(userBytes)), "ratio"})
	}
	lost, err := w.verify(inst, acked)
	if err != nil {
		problems = append(problems, "after reopen: "+err.Error())
	}
	// An acknowledged INSERT whose row is gone after the reopen is a
	// wrong statement: it counts as failed.
	failed += lost
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	lines = append(lines,
		line{"error_ratio", ratio(float64(failed), float64(attempted)), "ratio"},
		line{"setup_rss_mb", setupRSS, "MiB"},
		line{"rss_peak_mb", peakRSSMB(), "MiB"})
	want := endToEndNames
	if traced {
		want = perLayerNames
	}
	for _, l := range lines {
		if slices.Contains(want, l.name) {
			metrics[l.name] = metric{l.value, l.unit}
		}
	}
	for _, n := range want {
		if _, ok := metrics[n]; !ok {
			return result{}, nil, fmt.Errorf("metric %s was not measured", n)
		}
	}
	return result{
		Correct:   failed == 0 && len(problems) == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   metrics,
	}, lines, nil
}

// fileBytes is the size of a database file plus its write-ahead log.
func fileBytes(path string) (int64, error) {
	var total int64
	for _, p := range []string{path, path + ".wal"} {
		fi, err := os.Stat(p)
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			return 0, err
		}
		total += fi.Size()
	}
	return total, nil
}
