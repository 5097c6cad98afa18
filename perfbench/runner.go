package main

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"predator"
	"predator/internal/core"
	"predator/internal/engine"
	"predator/internal/exec"
	"predator/internal/expr"
	"predator/internal/obs"
	"predator/internal/plan"
	"predator/internal/sql"
)

// execFunc runs one statement through a public entry point
// (DB.Exec or Client.Exec) and returns its rows and rows affected.
type execFunc func(sql string) ([]predator.Row, int64, error)

// session is one closed-loop client: it sends its next statement only
// after the previous one returned.
type session struct {
	exec execFunc
	next func() stmt
	// prepare, when set, runs untimed before each statement.
	prepare func(stmt) error
}

// runner drives a workload's sessions for a fixed time and collects
// per-class latencies, failures and, when tracing, per-layer data.
type runner struct {
	classes []string
	// udf is the kind of UDF each class's predicate calls ("" = none);
	// rowsPerStmt is how many rows each class's predicate sees (0 = not
	// a scan class).
	udf         []string
	rowsPerStmt []int64
	eng         *engine.Engine
	cs          *counterSet
	// entry names the span around the public entry-point call.
	entry string
	// ref is the reference computation timed between statements
	// (calib.go).
	ref *reference

	tr *recorder // nil: untraced
	// sideMu keeps the reference computation and the traced run's side
	// passes (parse, plan, the instrumented execution) from overlapping
	// any entry-point call: statements hold it shared, they exclusively.
	sideMu  sync.RWMutex
	planner *plan.Planner
	ec      *expr.Ctx
	// insertMu is held around each INSERT, outside its timing, so no
	// two sessions INSERT at once: concurrent INSERTs into one table
	// lose rows (finding concurrent-insert-loses-rows in layers.json).
	insertMu sync.Mutex

	mu      sync.Mutex
	lat     [][]time.Duration
	timed   [][]timedStmt // per class, in completion order
	missMin []uint64      // per class: fewest buffer-pool misses in one statement
	missMax []uint64
	stmts   []int64 // per class: statements that returned correct results
	acked   []int64
	bytes   int64 // user bytes acknowledged
	side    counters
	recs    []traceRec
	pending []int // recs still to be matched with their query-store record
	errs    int
	calib   []refSample // reference computation times (calib.go)

	attempted, failed atomic.Int64
}

// traceRec is what the traced run keeps per statement besides spans.
type traceRec struct {
	stmt      int64
	class     int
	sql       string
	write     bool
	entry     time.Duration
	qs        obs.QueryRecord
	qsFound   bool
	delta     counters // around the entry-point call only
	udfRows   int64
	execRows  int64 // rows the instrumented pass scanned
	mallocs   uint64
	allocated uint64
}

func newRunner(w *workload, eng *engine.Engine, entry string, ref *reference) *runner {
	rn := &runner{classes: w.classes, udf: w.udf, rowsPerStmt: w.rowsPerStmt, eng: eng, cs: newCounterSet(eng), entry: entry, ref: ref}
	rn.planner = &plan.Planner{Catalog: eng.Catalog(), Registry: eng.Registry()}
	rn.ec = &expr.Ctx{UDF: &core.Ctx{Callback: eng.Objects()}, UDFBatch: eng.UDFBatchRows()}
	rn.reset()
	return rn
}

// reset clears the collected results before a new phase.
func (rn *runner) reset() {
	n := len(rn.classes)
	rn.lat = make([][]time.Duration, n)
	rn.timed = make([][]timedStmt, n)
	rn.missMin = make([]uint64, n)
	rn.missMax = make([]uint64, n)
	for i := range rn.missMin {
		rn.missMin[i] = ^uint64(0)
	}
	rn.stmts = make([]int64, n)
	rn.acked = nil
	rn.bytes = 0
	rn.side = counters{}
	rn.recs = nil
	rn.pending = nil
	rn.calib = nil
	rn.attempted.Store(0)
	rn.failed.Store(0)
}

// run drives the sessions closed-loop for d and returns the wall time
// the phase took.
func (rn *runner) run(sessions []*session, d time.Duration) time.Duration {
	start := time.Now()
	deadline := start.Add(d)
	stop := make(chan struct{})
	var calibDone sync.WaitGroup
	calibDone.Add(1)
	go func() {
		defer calibDone.Done()
		if err := rn.calibrateUntil(stop); err != nil {
			fmt.Fprintln(os.Stderr, err) // the run then fails: see runWorkload
		}
	}()
	var sessionsDone sync.WaitGroup
	for _, s := range sessions {
		sessionsDone.Add(1)
		go func() {
			defer sessionsDone.Done()
			for time.Now().Before(deadline) {
				st := s.next()
				if s.prepare != nil {
					if err := s.prepare(st); err != nil {
						rn.record(st, time.Now(), 0, err, 0, false)
						continue
					}
				}
				if st.key >= 0 {
					rn.insertMu.Lock()
				}
				if rn.tr == nil {
					rn.one(s, st, len(sessions) == 1)
				} else {
					rn.traced(s, st)
				}
				if st.key >= 0 {
					rn.insertMu.Unlock()
				}
			}
		}()
	}
	sessionsDone.Wait()
	elapsed := time.Since(start)
	close(stop)
	calibDone.Wait()
	if rn.tr != nil {
		rn.mu.Lock()
		rn.matchQueries()
		rn.mu.Unlock()
	}
	return elapsed
}

// one runs and checks one untraced statement.
func (rn *runner) one(s *session, st stmt, single bool) {
	var misses uint64
	if single {
		misses = rn.eng.BufferStats().Misses
	}
	rn.sideMu.RLock()
	t0 := time.Now()
	rows, affected, err := s.exec(st.sql)
	d := time.Since(t0)
	rn.sideMu.RUnlock()
	if single {
		misses = rn.eng.BufferStats().Misses - misses
	}
	rn.record(st, t0, d, checkResult(st, rows, affected, err), misses, single)
}

// record books one statement's outcome.
func (rn *runner) record(st stmt, at time.Time, d time.Duration, err error, misses uint64, single bool) {
	rn.attempted.Add(1)
	rn.mu.Lock()
	defer rn.mu.Unlock()
	if err != nil {
		rn.failed.Add(1)
		if rn.errs < 5 {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", rn.classes[st.class], err)
		}
		rn.errs++
		return
	}
	rn.lat[st.class] = append(rn.lat[st.class], d)
	rn.timed[st.class] = append(rn.timed[st.class], timedStmt{at, d})
	rn.stmts[st.class]++
	if st.key >= 0 {
		rn.acked = append(rn.acked, st.key)
		rn.bytes += st.userBytes
	}
	if single {
		rn.missMin[st.class] = min(rn.missMin[st.class], misses)
		rn.missMax[st.class] = max(rn.missMax[st.class], misses)
	}
}

// checkResult compares a statement's result with the generated
// expectation: an INSERT must report one row affected; a SELECT must
// return exactly the rows in want, in any order.
func checkResult(st stmt, rows []predator.Row, affected int64, err error) error {
	if err != nil {
		return err
	}
	if st.key >= 0 {
		if affected != 1 {
			return fmt.Errorf("%q affected %d rows, want 1", st.sql, affected)
		}
		return nil
	}
	missing := make(map[string]int, len(st.want))
	for _, w := range st.want {
		missing[fmt.Sprint(w...)]++
	}
	for _, r := range rows {
		got := make([]any, len(r))
		for i, v := range r {
			switch v.Kind {
			case predator.KindInt:
				got[i] = v.Int
			case predator.KindString:
				got[i] = v.Str
			default:
				got[i] = v // never equal to a generated int64 or string
			}
		}
		k := fmt.Sprint(got...)
		if missing[k] == 0 {
			return fmt.Errorf("%.100q returned unexpected row %v", st.sql, r)
		}
		missing[k]--
	}
	if len(rows) != len(st.want) {
		return fmt.Errorf("%.100q returned %d rows, want %d", st.sql, len(rows), len(st.want))
	}
	return nil
}

// traced runs one statement with spans around the entry-point call
// and, afterwards, around separate calls into the parser, the
// normalizer, the planner and an instrumented execution of the plan.
func (rn *runner) traced(s *session, st stmt) {
	tr := rn.tr
	id := tr.newStmt()
	root := tr.begin(id, "stmt", -1)
	rec := traceRec{stmt: id, class: st.class, sql: st.sql, write: st.key >= 0, udfRows: st.udfRows}

	rn.sideMu.RLock()
	before := rn.cs.read()
	entry := tr.begin(id, rn.entry, root)
	t0 := time.Now()
	rows, affected, err := s.exec(st.sql)
	rec.entry = time.Since(t0)
	tr.end(entry)
	rec.delta = rn.cs.read().sub(before)
	rn.sideMu.RUnlock()
	err = checkResult(st, rows, affected, err)

	rn.sideMu.Lock()
	sideBefore := rn.cs.read()
	if serr := rn.sidePasses(id, root, st, &rec); serr != nil && err == nil {
		err = serr
	}
	side := rn.cs.read().sub(sideBefore)
	rn.sideMu.Unlock()
	tr.end(root)

	rn.record(st, t0, rec.entry, err, 0, false)
	rn.mu.Lock()
	rn.side = rn.side.add(side)
	if err == nil {
		rn.recs = append(rn.recs, rec)
		rn.pending = append(rn.pending, len(rn.recs)-1)
		if len(rn.pending) >= matchEvery {
			rn.matchQueries()
		}
	}
	rn.mu.Unlock()
}

// matchEvery bounds how many traced statements wait for their query
// store records; it stays well below the store's 512-record ring even
// with every session's statements interleaved.
const matchEvery = 128

// matchQueries pairs pending statements with the query store's records
// of the same text, newest with newest. Statements with equal text are
// interchangeable for the per-layer aggregates. Called with rn.mu held.
func (rn *runner) matchQueries() {
	byText := make(map[string][]obs.QueryRecord)
	for _, q := range obs.History.Snapshot() { // newest first
		byText[q.Query] = append(byText[q.Query], q)
	}
	for i := len(rn.pending) - 1; i >= 0; i-- {
		r := &rn.recs[rn.pending[i]]
		if qs := byText[r.sql]; len(qs) > 0 {
			r.qs, r.qsFound = qs[0], true
			byText[r.sql] = qs[1:]
		}
	}
	rn.pending = rn.pending[:0]
}

// sidePasses times the layer calls a statement makes, one at a time.
func (rn *runner) sidePasses(id int64, root int, st stmt, rec *traceRec) error {
	tr := rn.tr
	sp := tr.begin(id, "sql.parse", root)
	parsed, err := sql.Parse(st.sql)
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.begin(id, "sql.normalize", root)
	sql.Normalize(st.sql)
	tr.end(sp)
	sel, ok := parsed.(*sql.Select)
	if !ok {
		return nil
	}
	sp = tr.begin(id, "plan.plan", root)
	op, err := rn.planner.PlanSelect(sel)
	tr.end(sp)
	if err != nil {
		return err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	sp = tr.begin(id, "exec.run", root)
	inst := exec.Instrument(op)
	_, err = exec.Run(inst, rn.ec)
	tr.end(sp)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return err
	}
	rec.mallocs = m1.Mallocs - m0.Mallocs
	rec.allocated = m1.TotalAlloc - m0.TotalAlloc
	ops, err := parseInstrumented(exec.ExplainTree(inst))
	if err != nil {
		return err
	}
	rec.execRows = ops[len(ops)-1].rows
	tr.addOperatorSpans(id, sp, ops)
	return nil
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
