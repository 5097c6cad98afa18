package exec

import (
	"fmt"
	"slices"
	"time"

	"predator/internal/core"
	"predator/internal/expr"
	"predator/internal/obs"
	"predator/internal/types"
)

// This file implements the batched, pipelined evaluation loop shared by
// Filter and Project. When an operator's expression contains, at any
// depth, a batchable UDF call (expr.HasBatchable: a process-isolated
// design implementing core.BatchUDF) and the query context allows
// batching (ec.UDFBatch > 1), the operator gathers windows of input
// rows and evaluates each window with an expr.Window — one amortized
// crossing per UDF call per window instead of one per tuple.
//
// The loop is double-buffered: while the background goroutine evaluates
// window k (which, for isolated designs, mostly blocks on the executor
// process), the operator's own goroutine gathers window k+1 from its
// input. At most one window is ever in flight, so expression scratch
// state is never touched concurrently. A window gathered once the input
// is exhausted, with nothing in flight, has nothing to overlap with and
// is evaluated on the operator's own goroutine: a one-row point read
// pays no goroutine or channel hand-off.
//
// Window sizes adapt: they start small (so short queries never pay for
// a large batch), double up to the configured cap, shrink to fit an
// approaching statement deadline, and cut off early when a window's
// gathered bytes reach batchByteCap (so wide BYTES rows cannot balloon
// a single protocol frame).

// batchStartRows is the first window's size.
const batchStartRows = 8

// batchByteCap bounds the approximate bytes gathered into one window.
const batchByteCap = 4 << 20

// window is one gathered batch of input rows plus its evaluation
// results. Filter fills res (predicate verdicts); Project fills out
// (assembled output rows).
type window struct {
	rows []types.Row
	res  []core.BatchResult
	out  []types.Row
	base int64 // absolute input index of rows[0], for error reporting
	err  error // the whole window failed (a boundary fault)
	// rowErr is the first row's failure. rows is cut to the rows before
	// it: the consumer gets those, then rowErr — exactly what the scalar
	// path emits before it reports that row's error.
	rowErr error
	// panicked carries a panic out of the evaluation goroutine so it can
	// be re-raised on the operator's own goroutine, where the caller's
	// recovery (e.g. the server's per-request recover) sees it exactly
	// as on the scalar path.
	panicked any
	start    time.Time
	dur      time.Duration
}

// failAt records that row i failed with err.
func (w *window) failAt(i int, err error) {
	w.rows = w.rows[:i]
	w.rowErr = err
}

// batchState drives gathering, pipelined evaluation and result
// iteration for one operator.
type batchState struct {
	ec    *expr.Ctx
	input Operator
	eval  func(w *window) error
	max   int // configured batch-size cap (ec.UDFBatch)

	size       int   // current adaptive target size
	eof        bool  // input exhausted
	stashed    error // gather-side error, surfaced after in-flight work drains
	cur        *window
	pos        int
	inflight   chan *window // allocated on the first background launch
	pending    int          // windows launched but not yet received (0 or 1)
	spare      []*window
	absBase    int64
	lastRowDur time.Duration // per-row cost of the last window, for deadline fit

	// Retained across Close for EXPLAIN ANALYZE (reset on each Open).
	batches int64
	rowsIn  int64
}

func newBatchState(ec *expr.Ctx, input Operator, eval func(w *window) error) *batchState {
	return &batchState{ec: ec, input: input, eval: retryLost(eval), max: ec.UDFBatch}
}

// cLostRetries counts batch windows resubmitted after their shared
// executor died mid-crossing.
var cLostRetries = obs.Default.Counter("predator_exec_executor_lost_retries_total")

// retryLost resubmits a window once when its crossing was stranded by a
// shared-executor death (FaultExecutorLost). The class is retryable by
// construction — the window produced no partial results and the fleet
// routes the resubmission to a healthy process — so a single executor
// crash never kills the queries that merely shared its pipe. One retry
// only: a second loss means the fleet itself is unhealthy, and that is
// the client's retry decision, not ours.
func retryLost(eval func(w *window) error) func(w *window) error {
	return func(w *window) error {
		err := eval(w)
		if core.FaultClassOf(err) == core.FaultExecutorLost {
			cLostRetries.Inc()
			err = eval(w)
		}
		return err
	}
}

// next returns the window and position of the next evaluated row, or
// (nil, 0, nil) at end of stream.
func (b *batchState) next() (*window, int, error) {
	for {
		if b.cur != nil {
			if b.pos < len(b.cur.rows) {
				i := b.pos
				b.pos++
				return b.cur, i, nil
			}
			err := b.cur.rowErr
			b.recycle(b.cur)
			b.cur = nil
			if err != nil {
				return nil, 0, err
			}
		}
		var w *window
		if b.pending == 0 {
			w = b.gather()
			if w == nil {
				if err := b.stashed; err != nil {
					b.stashed = nil
					return nil, 0, err
				}
				return nil, 0, nil
			}
			b.count(w)
			if b.eof || b.stashed != nil {
				// Nothing left to gather behind this window: evaluate it
				// here rather than pay a goroutine for no overlap.
				b.evaluate(w)
			} else {
				b.launch(w)
				w = nil
			}
		}
		if w == nil {
			// The pipeline overlap: gather window k+1 here while the
			// background goroutine evaluates window k.
			var queued *window
			if b.stashed == nil && !b.eof {
				queued = b.gather()
			}
			w = <-b.inflight
			b.pending--
			if w.panicked != nil {
				panic(w.panicked)
			}
			if queued != nil {
				if w.err != nil || w.rowErr != nil {
					// The statement ends inside window k, so window k+1
					// is never evaluated: no UDF sees its rows.
					b.recycle(queued)
				} else {
					b.count(queued)
					b.launch(queued)
				}
			}
		}
		if n := len(w.rows); n > 0 {
			b.lastRowDur = w.dur / time.Duration(n)
		}
		if b.ec.Trace.Detailed() {
			b.ec.Trace.AddSpan(obs.SpanRecord{Name: "batch/window", Start: w.start, Dur: w.dur})
		}
		if w.err != nil {
			err := fmt.Errorf("batch rows %d..%d: %w",
				w.base, w.base+int64(len(w.rows))-1, w.err)
			b.recycle(w)
			return nil, 0, err
		}
		b.cur = w
		b.pos = 0
	}
}

// gather pulls up to the adaptive target of rows from the input. A nil
// return means no rows are available (end of input, or an input/deadline
// error stashed for later). A partial window is returned when the error
// arrives mid-gather, so rows read before it are still evaluated and
// emitted — matching the scalar path, which surfaces an input error
// only after emitting every earlier row.
func (b *batchState) gather() *window {
	if b.eof || b.stashed != nil {
		return nil
	}
	w := b.take()
	target := b.targetSize()
	bytes := 0
	for len(w.rows) < target {
		if err := b.ec.Check(); err != nil {
			b.stashed = err
			break
		}
		row, err := b.input.Next()
		if err != nil {
			b.stashed = err
			break
		}
		if row == nil {
			b.eof = true
			break
		}
		w.rows = append(w.rows, row)
		if bytes += rowFootprint(row); bytes >= batchByteCap {
			break
		}
	}
	if len(w.rows) == 0 {
		b.recycle(w)
		return nil
	}
	w.base = b.absBase
	b.absBase += int64(len(w.rows))
	return w
}

// targetSize advances the adaptive size: start small, double to the
// cap, and shrink when the statement deadline would expire before a
// full window completes at the last observed per-row cost (so a
// timeout fires between small batches instead of killing a large
// half-done one).
func (b *batchState) targetSize() int {
	switch {
	case b.size == 0:
		b.size = batchStartRows
	case b.size < b.max:
		b.size *= 2
	}
	if b.size > b.max {
		b.size = b.max
	}
	n := b.size
	if !b.ec.Deadline.IsZero() && b.lastRowDur > 0 {
		if fit := int(time.Until(b.ec.Deadline) / (2 * b.lastRowDur)); fit < n {
			n = fit
			if n < 1 {
				n = 1
			}
		}
	}
	return n
}

// count records a window about to be evaluated, for EXPLAIN ANALYZE.
func (b *batchState) count(w *window) {
	b.batches++
	b.rowsIn += int64(len(w.rows))
}

// evaluate evaluates a gathered window and times it.
func (b *batchState) evaluate(w *window) {
	w.start = time.Now()
	defer func() { w.dur = time.Since(w.start) }()
	w.err = b.eval(w)
}

// launch starts background evaluation of a gathered window.
func (b *batchState) launch(w *window) {
	if b.inflight == nil {
		b.inflight = make(chan *window, 1)
	}
	b.pending++
	go func() {
		defer func() {
			w.panicked = recover()
			b.inflight <- w
		}()
		b.evaluate(w)
	}()
}

// drain receives any in-flight window so no evaluation goroutine
// outlives the operator. Called from Close.
func (b *batchState) drain() {
	for b.pending > 0 {
		<-b.inflight
		b.pending--
	}
}

// recycle returns a window's slices to the spare pool for reuse. Only
// the headers are reused; emitted rows are owned by the consumer.
func (b *batchState) recycle(w *window) {
	w.rows = w.rows[:0]
	w.err = nil
	w.rowErr = nil
	if len(b.spare) < 2 {
		b.spare = append(b.spare, w)
	}
}

func (b *batchState) take() *window {
	if n := len(b.spare); n > 0 {
		w := b.spare[n-1]
		b.spare = b.spare[:n-1]
		return w
	}
	return &window{}
}

// suffix renders batch statistics for EXPLAIN ANALYZE, e.g.
// " (batched: 4 batches, mean 62.5 rows)".
func (b *batchState) suffix() string {
	if b == nil || b.batches == 0 {
		return ""
	}
	return fmt.Sprintf(" (batched: %d batches, mean %.1f rows)",
		b.batches, float64(b.rowsIn)/float64(b.batches))
}

// rowFootprint approximates a row's in-flight size (value headers plus
// variable-length payloads).
func rowFootprint(r types.Row) int {
	n := 16 * len(r)
	for _, v := range r {
		n += len(v.Bytes) + len(v.Str)
	}
	return n
}

// sizeResults returns buf resized to n entries, reallocating only on
// growth. Entries are zeroed: expr.Window leaves the entries after a
// failing row untouched, and a stale value must never survive there.
func sizeResults(buf []core.BatchResult, n int) []core.BatchResult {
	if cap(buf) < n {
		buf = make([]core.BatchResult, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = core.BatchResult{}
	}
	return buf
}

// batchFilterState builds the batch driver for a Filter whose predicate
// holds a batchable UDF call, or returns nil for the scalar path.
func batchFilterState(ec *expr.Ctx, input Operator, pred expr.Bound) *batchState {
	if ec == nil || ec.UDFBatch <= 1 || !expr.HasBatchable(pred) {
		return nil
	}
	var win expr.Window
	return newBatchState(ec, input, func(w *window) error {
		w.res = sizeResults(w.res, len(w.rows))
		if err := win.Eval(ec, pred, w.rows, w.res); err != nil {
			return err
		}
		for i := range w.res {
			if err := w.res[i].Err; err != nil {
				w.failAt(i, err)
				break
			}
		}
		return nil
	})
}

// batchProjectState builds the batch driver for a Project with at least
// one batchable UDF call among its expressions, or returns nil for the
// scalar path. Expressions evaluate one after another over the window,
// each only on the rows before the first failure so far, so the error
// reported is the scalar path's: earliest row first, then the earliest
// expression within it.
func batchProjectState(ec *expr.Ctx, input Operator, exprs []expr.Bound) *batchState {
	if ec == nil || ec.UDFBatch <= 1 || !slices.ContainsFunc(exprs, expr.HasBatchable) {
		return nil
	}
	var (
		win expr.Window
		res []core.BatchResult
	)
	return newBatchState(ec, input, func(w *window) error {
		n, k := len(w.rows), len(exprs)
		// Fresh output rows per window, carved from one allocation:
		// consumers own emitted rows, exactly as on the scalar path.
		vals := make([]types.Value, n*k)
		w.out = w.out[:0]
		for i := 0; i < n; i++ {
			w.out = append(w.out, vals[i*k:(i+1)*k:(i+1)*k])
		}
		for xi, e := range exprs {
			res = sizeResults(res, n)
			if err := win.Eval(ec, e, w.rows[:n], res); err != nil {
				return err
			}
			for i := 0; i < n; i++ {
				if err := res[i].Err; err != nil {
					w.failAt(i, err)
					n = i
					break
				}
				w.out[i][xi] = res[i].Value
			}
		}
		return nil
	})
}
