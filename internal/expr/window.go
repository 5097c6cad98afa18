package expr

import (
	"errors"
	"fmt"
	"time"

	"predator/internal/core"
	"predator/internal/types"
)

// Window evaluation: an expression is evaluated over a window of rows
// at once, so that every process-isolated UDF call inside it — at any
// depth — crosses once per window instead of once per row. Froid's
// lesson (arXiv:1712.00498) applied to the crossing: the UDF call is one
// part of the whole expression, not an opaque per-row call.
//
// The evaluator is node-at-a-time over a selection of row indices. A
// batchable udfCall makes one InvokeBatch for exactly the rows that
// reach it. Every other node is never re-implemented: its children are
// rebound to operands that serve their already evaluated per-row
// results, and the node's own scalar Eval combines them row by row. To
// learn which rows need a child at all, the evaluator first runs that
// Eval with the child as a probe; a row whose Eval never asks for the
// probe is already decided. So each node evaluates a later operand only
// on the rows its scalar Eval would — AND/OR's right side only where
// the left did not decide, a call's next argument only where earlier
// ones were non-NULL, nothing after an operand that failed — and every
// UDF sees exactly the rows and arguments the scalar path gives it.
//
// The one exception is inherent to batching: a UDF that fails at row k
// was already sent the rest of its batch (and so was any batched call
// evaluated before it in the window). Errors are per row, and the first
// failing row ends the window — the consumer reports it and reads no
// further — so once any node fails at row k no row after k is
// evaluated again (the window's cut-off).

// HasBatchable reports whether e contains, at any depth, a UDF call
// whose crossings batch (a process-isolated design implementing
// core.BatchUDF). Operators evaluate such expressions a window at a
// time with a Window. rebind must handle every node type this
// descends through.
func HasBatchable(e Bound) bool {
	switch n := e.(type) {
	case *udfCall:
		return n.batchable() || anyBatchable(n.args)
	case *inlinedCall:
		return anyBatchable(n.args)
	case *BuiltinCall:
		return anyBatchable(n.Args)
	case *Cmp:
		return HasBatchable(n.L) || HasBatchable(n.R)
	case *Arith:
		return HasBatchable(n.L) || HasBatchable(n.R)
	case *Logic:
		return HasBatchable(n.L) || HasBatchable(n.R)
	case *Not:
		return HasBatchable(n.X)
	case *Neg:
		return HasBatchable(n.X)
	case *NullTest:
		return HasBatchable(n.X)
	case *castFloat:
		return HasBatchable(n.x)
	}
	return false
}

func anyBatchable(es []Bound) bool {
	for _, e := range es {
		if HasBatchable(e) {
			return true
		}
	}
	return false
}

// Window evaluates expressions a window of rows at a time. It keeps
// grow-only scratch across calls, so an operator holds one Window and
// uses it from one goroutine at a time.
type Window struct {
	ec   *Ctx
	rows []types.Row
	// cut is the earliest row with an error so far (len(rows) when
	// none): no row after it is evaluated again.
	cut int

	// Scratch handed out as the recursion needs it and taken back all
	// at once by the next Eval.
	res  [][]core.BatchResult
	sels [][]int
	nres int
	nsel int
}

// Eval evaluates e for every row of the window, writing one BatchResult
// per row into out (len(out) == len(rows)). Per-row failures land in
// out[i].Err. Only rows up to and including the first failing one are
// evaluated: entries after it are left as they were, and the caller
// must stop at the first Err (as the scalar path stops at the first
// failing row). A non-nil return fails the whole window (a boundary
// fault of a batched crossing).
func (w *Window) Eval(ec *Ctx, e Bound, rows []types.Row, out []core.BatchResult) error {
	if len(out) != len(rows) {
		return fmt.Errorf("expr: window of %d rows with %d result slots", len(rows), len(out))
	}
	w.ec, w.rows, w.cut, w.nres, w.nsel = ec, rows, len(rows), 0, 0
	sel := w.selection()
	for i := range rows {
		sel = append(sel, i)
	}
	return w.eval(e, sel, out)
}

// results hands out a zeroed result slot per window row.
func (w *Window) results() []core.BatchResult {
	n := len(w.rows)
	if w.nres == len(w.res) {
		w.res = append(w.res, nil)
	}
	r := w.res[w.nres]
	if cap(r) < n {
		r = make([]core.BatchResult, n)
	}
	r = r[:n]
	clear(r)
	w.res[w.nres] = r
	w.nres++
	return r
}

// selection hands out an empty row-index list with room for every
// window row, so appending to it never reallocates.
func (w *Window) selection() []int {
	if w.nsel == len(w.sels) {
		w.sels = append(w.sels, nil)
	}
	if cap(w.sels[w.nsel]) < len(w.rows) {
		w.sels[w.nsel] = make([]int, 0, len(w.rows))
	}
	s := w.sels[w.nsel][:0]
	w.nsel++
	return s
}

// set stores row i's outcome, moving the cut-off up to a failing row.
func (w *Window) set(out []core.BatchResult, i int, v types.Value, err error) {
	out[i] = core.BatchResult{Value: v, Err: err}
	if err != nil && i < w.cut {
		w.cut = i
	}
}

// eval evaluates e over the rows of sel (ascending) into out.
func (w *Window) eval(e Bound, sel []int, out []core.BatchResult) error {
	if !HasBatchable(e) {
		for _, i := range sel {
			if i >= w.cut {
				break
			}
			v, err := e.Eval(w.ec, w.rows[i])
			w.set(out, i, v, err)
		}
		return nil
	}
	if u, ok := e.(*udfCall); ok && u.batchable() {
		return w.udf(u, sel, out)
	}
	return w.combine(e, sel, out)
}

// operand stands in for one child of a node combined over a window.
// It serves the child's result for the current row (res[row]), or
// evaluates the child in place when res is nil, or — while probing —
// records that the node's Eval asked for the child and stops it there.
type operand struct {
	Bound // the child (Kind, Cost and String delegate to it)
	res   []core.BatchResult
	row   int
	probe bool
	asked bool
}

// errProbe stops a node's Eval at a probed operand. Every node returns
// a child's error at once, so nothing after the probe is evaluated.
var errProbe = errors.New("expr: window probe")

// Eval implements Bound.
func (o *operand) Eval(ec *Ctx, row types.Row) (types.Value, error) {
	switch {
	case o.probe:
		o.asked = true
		return types.Value{}, errProbe
	case o.res == nil:
		return o.Bound.Eval(ec, row)
	}
	r := &o.res[o.row]
	return r.Value, r.Err
}

// combine evaluates a node that is not itself a batchable call. Its
// children up to the last one holding a batchable call are evaluated
// window-wise, in order, each on the rows the node's Eval asks it for;
// the node's own Eval then combines them per row, evaluating any later
// children in place exactly once, as the scalar path does.
func (w *Window) combine(e Bound, sel []int, out []core.BatchResult) error {
	var ops []*operand
	node := rebind(e, func(c Bound) Bound {
		o := &operand{Bound: c}
		ops = append(ops, o)
		return o
	})
	last := -1
	for j, o := range ops {
		if HasBatchable(o.Bound) {
			last = j
		}
	}
	live := sel
	for _, o := range ops[:last+1] {
		o.probe = true
		need := w.selection()
		for _, i := range live {
			if i > w.cut {
				break
			}
			o.asked = false
			v, err := w.apply(node, ops, i)
			switch {
			case !o.asked:
				w.set(out, i, v, err) // decided without this child
			case i < w.cut:
				need = append(need, i)
			}
		}
		o.probe = false
		o.res = w.results()
		if err := w.eval(o.Bound, need, o.res); err != nil {
			return err
		}
		live = need
	}
	for _, i := range live {
		if i > w.cut {
			break
		}
		v, err := w.apply(node, ops, i)
		w.set(out, i, v, err)
	}
	return nil
}

// apply runs the rebound node's Eval on row i.
func (w *Window) apply(node Bound, ops []*operand, i int) (types.Value, error) {
	for _, o := range ops {
		o.row = i
	}
	return node.Eval(w.ec, w.rows[i])
}

// rebind returns a shallow copy of e whose children are replaced, in
// evaluation order, by kid(child). The copy shares e's scratch, which
// is safe because the window evaluator never runs the two at once.
func rebind(e Bound, kid func(Bound) Bound) Bound {
	switch n := e.(type) {
	case *Cmp:
		c := *n
		c.L, c.R = kid(n.L), kid(n.R)
		return &c
	case *Arith:
		c := *n
		c.L, c.R = kid(n.L), kid(n.R)
		return &c
	case *Logic:
		c := *n
		c.L, c.R = kid(n.L), kid(n.R)
		return &c
	case *Not:
		return &Not{X: kid(n.X)}
	case *Neg:
		return &Neg{X: kid(n.X)}
	case *NullTest:
		return &NullTest{X: kid(n.X), Negate: n.Negate}
	case *castFloat:
		return &castFloat{x: kid(n.x)}
	case *BuiltinCall:
		c := *n
		c.Args = kids(n.Args, kid)
		return &c
	case *inlinedCall:
		c := *n
		c.args = kids(n.args, kid)
		return &c
	case *udfCall: // an in-process UDF over a batchable argument
		c := *n
		c.args = kids(n.args, kid)
		return &c
	}
	panic(fmt.Sprintf("expr: no window evaluation for %T", e))
}

func kids(args []Bound, kid func(Bound) Bound) []Bound {
	out := make([]Bound, len(args))
	for i, a := range args {
		out[i] = kid(a)
	}
	return out
}

// udf makes one batched crossing for the rows that reach the call. Its
// arguments are evaluated left to right, each only on the rows whose
// earlier arguments were non-NULL and error-free; a NULL argument
// resolves the row to NULL without crossing (UDFs are strict).
// Argument vectors are gathered row-major and results scattered back
// by row.
func (w *Window) udf(u *udfCall, sel []int, out []core.BatchResult) error {
	live := sel
	argv := make([][]core.BatchResult, len(u.args))
	for j, a := range u.args {
		ar := w.results()
		if err := w.eval(a, live, ar); err != nil {
			return err
		}
		next := w.selection()
		for _, i := range live {
			if i > w.cut {
				break
			}
			switch r := ar[i]; {
			case r.Err != nil:
				w.set(out, i, types.Value{}, r.Err)
			case r.Value.IsNull():
				out[i] = core.BatchResult{Value: types.Null()}
			case i < w.cut:
				next = append(next, i)
			}
		}
		live, argv[j] = next, ar
	}
	n := len(live)
	if n == 0 {
		return nil
	}
	u.flat = u.flat[:0]
	for _, i := range live {
		for _, ar := range argv {
			u.flat = append(u.flat, ar[i].Value)
		}
	}
	if cap(u.res) < n {
		u.res = make([]core.BatchResult, n)
	}
	res := u.res[:n]
	clear(res)
	var ctx *core.Ctx
	if w.ec != nil {
		ctx = w.ec.UDF
	}
	start := time.Now()
	err := u.batch.InvokeBatch(ctx, len(u.args), u.flat, res)
	d := time.Since(start)
	u.hist.Observe(d)
	if w.ec != nil {
		w.ec.Trace.Event(u.ev, d)
	}
	if err != nil {
		return err
	}
	for k, i := range live {
		if i > w.cut {
			break
		}
		w.set(out, i, res[k].Value, res[k].Err)
	}
	return nil
}
