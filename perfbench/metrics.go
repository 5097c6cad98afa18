package main

import (
	"fmt"
	"strings"
	"time"
)

// endToEndNames are the metrics an untraced run reports in its JSON
// result (BENCHMARK.json "end_to_end"). c<i>_p50_norm is the latency
// median of the workload's class i in units of its reference part
// (calib.go); a workload with fewer than classSlots classes repeats
// them, so slot i holds class i mod n and no slot reads 0. Raw
// latencies, p90s, throughput and peak RSS are printed but not judged:
// on a shared 2-core machine their run-to-run spread (other tenants'
// load, tail bursts, fsync latency, and for the peak RSS how many
// statements a run got through) exceeds any usable bound.
// setup_rss_mb, the peak RSS by the end of set-up, covers memory.
var endToEndNames = []string{
	"c0_p50_norm", "c1_p50_norm", "c2_p50_norm", "c3_p50_norm", "c4_p50_norm", "c5_p50_norm",
	"setup_s", "setup_rss_mb", "space_amp",
}

// classSlots is how many c<i>_p50_norm metrics a run reports.
const classSlots = 6

// perLayerNames are the metrics a traced run reports in its JSON result
// (BENCHMARK.json "per_layer"). A layer a workload's statements never
// reach reads 0 there; layers.json says which apply where.
var perLayerNames = []string{
	"wire.overhead_us", "wire.bytes_per_stmt",
	"sql.parse_us", "sql.normalize_us", "plan.plan_us",
	"engine.stmt_overhead_us", "engine.unattributed_us",
	"exec.scan_ns_per_row", "exec.filter_ns_per_row", "exec.output_ns_per_row",
	"exec.allocs_per_row", "exec.alloc_bytes_per_row", "exec.rows",
	"inline.ns_per_row", "inline.rows", "jvm.ns_per_call", "jvm.calls",
	"isolate.rows_per_crossing", "isolate.udf_rows", "isolate.crossings", "isolate.stmts",
	"isolate.isolated.rows_per_crossing", "isolate.isolated.crossings",
	"isolate.batched.rows_per_crossing", "isolate.batched.crossings",
	"isolate.callback.rows_per_crossing", "isolate.callback.crossings",
	"isolate.callback.callbacks_per_row",
	"isolate.crossing_wait_us", "isolate.faults",
	"fleet.stream_opens_per_stmt", "fleet.leases", "fleet.warm_hit_ratio", "fleet.restarts",
	"storage.pool_hit_ratio", "storage.pool_lookups", "storage.page_reads_per_stmt",
	"storage.writes", "storage.fsyncs", "storage.fsyncs_per_write", "storage.fsync_us",
	"storage.wal_bytes_per_write", "storage.checkpoints",
	"trace.overhead_ratio", "trace.stmts",
}

// classP50s is each class's median latency in µs (classes with no
// samples are left out).
func classP50s(rn *runner) []float64 {
	var out []float64
	for _, ds := range rn.lat {
		if len(ds) > 0 {
			out = append(out, us(percentile(ds, 0.5)))
		}
	}
	return out
}

// endToEnd computes the untraced run's metrics. Per-class lines carry
// the class name (write_p50_us, vm_rows_per_s, ...). setupRef holds the
// reference samples taken before each set-up and after the last one.
func endToEnd(rn *runner, w *workload, elapsed time.Duration, setupS []float64, setupRef []refSample) []line {
	var lines []line
	var norms []float64
	var done int64
	for c, name := range rn.classes {
		norm := pairedNorm(rn.timed[c], rn.calib, w.norm[c])
		norms = append(norms, norm)
		ds := rn.lat[c]
		p50, p90 := us(percentile(ds, 0.5)), us(percentile(ds, 0.9))
		done += int64(len(ds))
		lines = append(lines,
			line{name + "_p50_us", p50, "us"},
			line{name + "_p90_us", p90, "us"},
			line{name + "_p50_norm", norm, "ref:" + w.norm[c].String()},
			line{name + "_stmts", float64(len(ds)), "count"})
		if rows := rn.rowsPerStmt[c]; rows > 0 && p50 > 0 {
			lines = append(lines, line{name + "_rows_per_s", float64(rows) / (p50 / 1e6), "rows/s"})
		}
		if name == "write" {
			lines = append(lines, line{"writes_per_s", float64(len(ds)) / elapsed.Seconds(), "1/s"})
		}
	}
	for i := range classSlots {
		lines = append(lines, line{fmt.Sprintf("c%d_p50_norm", i), norms[i%len(norms)], "ref"})
	}
	for _, p := range []refPart{refCPU, refIPC, refDisk, refLong} {
		lines = append(lines, line{"ref_" + p.String() + "_us", us(refMedian(rn.calib, p)), "us"})
	}
	for _, p := range []refPart{refCPU, refIPC, refDisk, refBulk, refLong} {
		lines = append(lines, line{"setup_ref_" + p.String() + "_us", us(refMedian(setupRef, p)), "us"})
	}
	return append(lines,
		line{"stmts_per_s", float64(done) / elapsed.Seconds(), "1/s"},
		line{"setup_raw_s", median(setupS), "s"},
		line{"setup_s", setupSeconds(setupS, setupRef, w.setupNorm), "s"})
}

// setupSeconds is the median set-up time at the reference speed
// refQuiet: scaled by refQuiet over the median of part p of the
// reference samples taken between the set-ups. A few samples around
// one set-up vary more than the set-up's own time does, so the run's
// samples are pooled.
func setupSeconds(setupS []float64, setupRef []refSample, p refPart) float64 {
	return median(setupS) * ratio(float64(refQuiet.part(p)), float64(refMedian(setupRef, p)))
}

// perLayer computes the traced run's metrics from its spans, its
// per-statement records and the counter window (entry-point calls
// only; the side passes are subtracted). base holds the class medians
// of the untraced phase that preceded the traced one.
func perLayer(rn *runner, window counters, base []float64) []line {
	spans := rn.tr.spans
	self := selfTimes(spans)
	recs := make(map[int64]*traceRec, len(rn.recs))
	for i := range rn.recs {
		recs[rn.recs[i].stmt] = &rn.recs[i]
	}
	firstChild := make(map[int]int)
	for i, s := range spans {
		if _, seen := firstChild[s.Parent]; s.Parent >= 0 && !seen {
			firstChild[s.Parent] = i
		}
	}

	var parse, normalize, planD []float64
	type acc struct {
		self time.Duration
		rows int64
	}
	var scan, filter, output, inline, vm acc
	for i, s := range spans {
		rec := recs[s.Stmt]
		if rec == nil {
			continue // the statement failed; it is counted, not traced
		}
		switch {
		case s.Name == "sql.parse":
			parse = append(parse, us(s.dur()))
		case s.Name == "sql.normalize":
			normalize = append(normalize, us(s.dur()))
		case s.Name == "plan.plan":
			planD = append(planD, us(s.dur()))
		case strings.HasPrefix(s.Name, "exec.") && s.Name != "exec.run":
			in := s.Rows // a leaf consumes what it produces
			if c, ok := firstChild[i]; ok {
				in = spans[c].Rows
			}
			a := acc{self[i], in}
			switch s.Name {
			case "exec.SeqScan":
				scan.self, scan.rows = scan.self+a.self, scan.rows+a.rows
			case "exec.Filter":
				switch rn.udf[rec.class] {
				case "":
					filter.self, filter.rows = filter.self+a.self, filter.rows+a.rows
				case udfInline:
					inline.self, inline.rows = inline.self+a.self, inline.rows+a.rows
				case udfVM:
					vm.self, vm.rows = vm.self+a.self, vm.rows+a.rows
				}
			default: // the operator above the filter: Project or Aggregate
				output.self, output.rows = output.self+a.self, output.rows+a.rows
			}
		}
	}
	nsPerRow := func(a acc) float64 { return ratio(float64(a.self), float64(a.rows)) }

	var entryOver, unattributed, crossWait []float64
	var mallocs, allocated, execRows uint64
	var writes, isoStmts int64
	type iso struct{ rows, crossings, touches int64 }
	isoAll := iso{}
	isoClass := map[string]iso{}
	for i := range rn.recs {
		r := &rn.recs[i]
		if r.write {
			writes++
		}
		if r.qsFound {
			entryOver = append(entryOver, us(r.entry-r.qs.Duration))
			w := r.qs.Wait
			unattributed = append(unattributed, us(r.qs.Duration-w.Plan-w.Exec-w.WALFsync))
		}
		if rn.udf[r.class] == "" && r.execRows > 0 {
			mallocs += r.mallocs
			allocated += r.allocated
			execRows += uint64(r.execRows)
		}
		if rn.udf[r.class] == udfIsolated {
			isoStmts++
			if r.qsFound && r.qs.Crossings > 0 {
				crossWait = append(crossWait, us(r.qs.Wait.CrossingWait)/float64(r.qs.Crossings))
			}
			x := isoClass[rn.classes[r.class]]
			x.rows += r.udfRows
			x.crossings += r.delta.crossIsolated
			x.touches += r.delta.touches
			isoClass[rn.classes[r.class]] = x
			isoAll.rows += r.udfRows
			isoAll.crossings += r.delta.crossIsolated
		}
	}
	wireOver, engineOver := median(entryOver), 0.0
	if rn.entry != entryWire {
		wireOver, engineOver = 0, wireOver
	}
	stmts := float64(len(rn.recs))
	leases := window.fleetOpens + window.fleetReuses
	lookups := window.pool.Hits + window.pool.Misses
	w := window.wal

	lines := []line{
		{"wire.overhead_us", wireOver, "us"},
		{"wire.bytes_per_stmt", ratio(float64(window.wireOut), stmts), "bytes/stmt"},
		{"sql.parse_us", median(parse), "us"},
		{"sql.normalize_us", median(normalize), "us"},
		{"plan.plan_us", median(planD), "us"},
		{"engine.stmt_overhead_us", engineOver, "us"},
		{"engine.unattributed_us", median(unattributed), "us"},
		{"exec.scan_ns_per_row", nsPerRow(scan), "ns/row"},
		{"exec.filter_ns_per_row", nsPerRow(filter), "ns/row"},
		{"exec.output_ns_per_row", nsPerRow(output), "ns/row"},
		{"exec.allocs_per_row", ratio(float64(mallocs), float64(execRows)), "allocs/row"},
		{"exec.alloc_bytes_per_row", ratio(float64(allocated), float64(execRows)), "bytes/row"},
		{"exec.rows", float64(execRows), "count"},
		{"inline.ns_per_row", nsPerRow(inline), "ns/row"},
		{"inline.rows", float64(inline.rows), "count"},
		{"jvm.ns_per_call", nsPerRow(vm), "ns/call"},
		{"jvm.calls", float64(vm.rows), "count"},
		{"isolate.rows_per_crossing", ratio(float64(isoAll.rows), float64(isoAll.crossings)), "rows/crossing"},
		{"isolate.udf_rows", float64(isoAll.rows), "count"},
		{"isolate.crossings", float64(isoAll.crossings), "count"},
		{"isolate.stmts", float64(isoStmts), "count"},
	}
	for _, class := range []string{"isolated", "batched", "callback"} {
		x := isoClass[class]
		lines = append(lines,
			line{"isolate." + class + ".rows_per_crossing", ratio(float64(x.rows), float64(x.crossings)), "rows/crossing"},
			line{"isolate." + class + ".crossings", float64(x.crossings), "count"})
	}
	return append(lines,
		line{"isolate.callback.callbacks_per_row", ratio(float64(isoClass["callback"].touches), float64(isoClass["callback"].rows)), "calls/row"},
		line{"isolate.crossing_wait_us", median(crossWait), "us/crossing"},
		line{"isolate.faults", float64(window.faults), "count"},
		line{"fleet.stream_opens_per_stmt", ratio(float64(window.fleetOpens), float64(isoStmts)), "opens/stmt"},
		line{"fleet.leases", float64(leases), "count"},
		line{"fleet.warm_hit_ratio", ratio(float64(window.fleetWarm), float64(leases)), "ratio"},
		line{"fleet.restarts", float64(window.fleetRestarts), "count"},
		line{"storage.pool_hit_ratio", ratio(float64(window.pool.Hits), float64(lookups)), "ratio"},
		line{"storage.pool_lookups", float64(lookups), "count"},
		line{"storage.page_reads_per_stmt", ratio(float64(window.disk.Reads), stmts), "pages/stmt"},
		line{"storage.writes", float64(writes), "count"},
		line{"storage.fsyncs", float64(w.Fsyncs), "count"},
		line{"storage.fsyncs_per_write", ratio(float64(w.Fsyncs), float64(writes)), "fsyncs/write"},
		line{"storage.fsync_us", ratio(float64(w.FsyncNanos)/1e3, float64(w.Fsyncs)), "us/fsync"},
		line{"storage.wal_bytes_per_write", ratio(float64(w.Bytes), float64(writes)), "bytes/write"},
		line{"storage.checkpoints", float64(window.checkpoints), "count"},
		line{"trace.overhead_ratio", ratio(geomean(classP50s(rn)), geomean(base)), "ratio"},
		line{"trace.stmts", stmts, "count"},
	)
}

// UDF kinds of a class's predicate, for attributing Filter self time.
const (
	udfInline   = "inline"
	udfVM       = "vm"
	udfIsolated = "isolated"
)

const entryWire = "wire.client_exec"
