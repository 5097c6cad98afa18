// Package expr provides bound (name-resolved, type-checked) expression
// trees evaluated by the executor. Binding turns parser ASTs
// (package sql) into Bound trees against a Scope of available columns,
// resolving function calls to built-ins or registered UDFs.
//
// Evaluation follows SQL three-valued logic: comparisons with NULL
// yield NULL, AND/OR/NOT follow Kleene logic, and UDFs are strict
// (any NULL argument short-circuits to a NULL result without crossing
// into the UDF).
package expr

import (
	"fmt"
	"math"
	"strings"
	"time"

	"predator/internal/core"
	"predator/internal/govern"
	"predator/internal/obs"
	"predator/internal/types"
)

// Ctx carries per-query evaluation context into expressions.
type Ctx struct {
	// UDF is handed to UDF invocations (callback handler, logging,
	// statement deadline).
	UDF *core.Ctx
	// Deadline, when non-zero, is the statement deadline
	// (SET STATEMENT_TIMEOUT). Operators poll Check between rows.
	Deadline time.Time
	// Trace, when non-nil, collects per-query spans and events
	// (EXPLAIN ANALYZE). All Trace methods are nil-safe.
	Trace *obs.Trace
	// UDFBatch caps the rows carried per batched UDF crossing. Values
	// of 1 or less disable batching entirely (the legacy scalar path).
	UDFBatch int
	// Mem is the statement's memory reservation against its tenant
	// (nil = ungoverned). The executor charges materialized rows to it;
	// Check polls the tenant's CPU budget through it.
	Mem *govern.Reservation
	// Exec, when non-nil, is the statement's flight-recorder
	// registration (SHOW PROCESSLIST). The executor counts produced
	// rows on it and Check polls its KILL flag; all methods are
	// nil-safe atomics.
	Exec *obs.Execution
}

// DefaultBatchRows is the default cap on rows per batched UDF crossing
// (engine.Options.UDFBatchRows overrides it per engine).
const DefaultBatchRows = 256

// Check reports a FaultCanceled once KILL has been issued for the
// statement, a FaultTimeout once the statement deadline has passed and
// a FaultQuota once the tenant's CPU budget is exhausted. It is cheap
// enough to call per row; a nil or unconstrained context always
// passes.
func (ec *Ctx) Check() error {
	if ec == nil {
		return nil
	}
	if ec.Exec.Killed() {
		return core.Faultf(core.FaultCanceled, "statement", "statement canceled by KILL")
	}
	if !ec.Deadline.IsZero() && time.Now().After(ec.Deadline) {
		return core.Faultf(core.FaultTimeout, "statement", "statement timeout exceeded")
	}
	if ec.Mem != nil {
		if err := ec.Mem.CheckCPU(); err != nil {
			return core.NewFault(core.FaultQuota, "statement", err)
		}
	}
	return nil
}

// Charge accounts n bytes of statement memory to the tenant, returning
// a FaultQuota when the reservation trips the hard limit.
func (ec *Ctx) Charge(n int64) error {
	if ec == nil || ec.Mem == nil {
		return nil
	}
	if err := ec.Mem.Grow(n); err != nil {
		return core.NewFault(core.FaultQuota, "statement", err)
	}
	return nil
}

// Bound is a resolved, evaluable expression.
type Bound interface {
	// Kind is the expression's result type.
	Kind() types.Kind
	// Eval computes the value for one input row.
	Eval(ec *Ctx, row types.Row) (types.Value, error)
	// Cost estimates per-row evaluation cost (arbitrary units; used by
	// the optimizer to order expensive predicates).
	Cost() float64
	// String renders the expression for EXPLAIN output.
	String() string
}

// Scope is the set of columns visible to an expression, in row order.
type Scope struct {
	cols []scopeCol
}

type scopeCol struct {
	qual string // table name or alias (lower case), may be ""
	name string // column name (lower case)
	kind types.Kind
	disp string // display name as declared
}

// NewScope returns an empty scope.
func NewScope() *Scope { return &Scope{} }

// AddTable appends a table's columns under the given qualifier.
func (s *Scope) AddTable(qual string, schema *types.Schema) {
	for _, c := range schema.Columns {
		s.cols = append(s.cols, scopeCol{
			qual: strings.ToLower(qual),
			name: strings.ToLower(c.Name),
			kind: c.Kind,
			disp: c.Name,
		})
	}
}

// Concat returns a scope with s's columns followed by other's.
func (s *Scope) Concat(other *Scope) *Scope {
	out := &Scope{cols: make([]scopeCol, 0, len(s.cols)+len(other.cols))}
	out.cols = append(out.cols, s.cols...)
	out.cols = append(out.cols, other.cols...)
	return out
}

// Arity returns the number of columns in scope.
func (s *Scope) Arity() int { return len(s.cols) }

// Schema materializes the scope as a row schema.
func (s *Scope) Schema() *types.Schema {
	out := &types.Schema{Columns: make([]types.Column, len(s.cols))}
	for i, c := range s.cols {
		out.Columns[i] = types.Column{Name: c.disp, Kind: c.kind}
	}
	return out
}

// Resolve finds the column index for a (possibly qualified) name.
func (s *Scope) Resolve(qual, name string) (int, types.Kind, error) {
	lq, ln := strings.ToLower(qual), strings.ToLower(name)
	found := -1
	for i, c := range s.cols {
		if c.name != ln {
			continue
		}
		if lq != "" && c.qual != lq {
			continue
		}
		if found >= 0 {
			return 0, types.KindInvalid, fmt.Errorf("expr: column reference %q is ambiguous", name)
		}
		found = i
	}
	if found < 0 {
		if qual != "" {
			return 0, types.KindInvalid, fmt.Errorf("expr: unknown column %s.%s", qual, name)
		}
		return 0, types.KindInvalid, fmt.Errorf("expr: unknown column %q", name)
	}
	return found, s.cols[found].kind, nil
}

// Const is a literal value.
type Const struct {
	Value types.Value
}

// Kind implements Bound.
func (c *Const) Kind() types.Kind { return c.Value.Kind }

// Eval implements Bound.
func (c *Const) Eval(*Ctx, types.Row) (types.Value, error) { return c.Value, nil }

// Cost implements Bound.
func (c *Const) Cost() float64 { return 0 }

// String implements Bound.
func (c *Const) String() string { return c.Value.String() }

// Col reads a column from the input row.
type Col struct {
	Index int
	K     types.Kind
	Name  string
}

// Kind implements Bound.
func (c *Col) Kind() types.Kind { return c.K }

// Eval implements Bound.
func (c *Col) Eval(_ *Ctx, row types.Row) (types.Value, error) {
	if c.Index >= len(row) {
		return types.Value{}, fmt.Errorf("expr: column %d beyond row of %d values", c.Index, len(row))
	}
	return row[c.Index], nil
}

// Cost implements Bound.
func (c *Col) Cost() float64 { return 0.1 }

// String implements Bound.
func (c *Col) String() string { return c.Name }

// Arith is +, -, *, /, % over numeric operands (or + for strings).
type Arith struct {
	Op   string
	L, R Bound
	K    types.Kind
}

// Kind implements Bound.
func (a *Arith) Kind() types.Kind { return a.K }

// Cost implements Bound.
func (a *Arith) Cost() float64 { return a.L.Cost() + a.R.Cost() + 0.2 }

// String implements Bound.
func (a *Arith) String() string { return fmt.Sprintf("(%s %s %s)", a.L, a.Op, a.R) }

// Eval implements Bound.
func (a *Arith) Eval(ec *Ctx, row types.Row) (types.Value, error) {
	l, err := a.L.Eval(ec, row)
	if err != nil {
		return types.Value{}, err
	}
	r, err := a.R.Eval(ec, row)
	if err != nil {
		return types.Value{}, err
	}
	if l.IsNull() || r.IsNull() {
		return types.Null(), nil
	}
	if a.K == types.KindString {
		return types.NewString(l.Str + r.Str), nil
	}
	if a.K == types.KindFloat {
		x, y := l.AsFloat(), r.AsFloat()
		switch a.Op {
		case "+":
			return types.NewFloat(x + y), nil
		case "-":
			return types.NewFloat(x - y), nil
		case "*":
			return types.NewFloat(x * y), nil
		case "/":
			return types.NewFloat(x / y), nil
		default:
			return types.Value{}, fmt.Errorf("expr: %% on float")
		}
	}
	x, y := l.Int, r.Int
	switch a.Op {
	case "+":
		return types.NewInt(x + y), nil
	case "-":
		return types.NewInt(x - y), nil
	case "*":
		return types.NewInt(x * y), nil
	case "/":
		if y == 0 {
			return types.Value{}, fmt.Errorf("expr: division by zero")
		}
		if x == math.MinInt64 && y == -1 {
			return types.NewInt(math.MinInt64), nil
		}
		return types.NewInt(x / y), nil
	case "%":
		if y == 0 {
			return types.Value{}, fmt.Errorf("expr: modulo by zero")
		}
		if x == math.MinInt64 && y == -1 {
			return types.NewInt(0), nil
		}
		return types.NewInt(x % y), nil
	default:
		return types.Value{}, fmt.Errorf("expr: unknown arithmetic op %q", a.Op)
	}
}

// Cmp compares two values (= <> < <= > >=), returning BOOL or NULL.
type Cmp struct {
	Op   string
	L, R Bound
}

// Kind implements Bound.
func (c *Cmp) Kind() types.Kind { return types.KindBool }

// Cost implements Bound.
func (c *Cmp) Cost() float64 { return c.L.Cost() + c.R.Cost() + 0.2 }

// String implements Bound.
func (c *Cmp) String() string { return fmt.Sprintf("(%s %s %s)", c.L, c.Op, c.R) }

// Eval implements Bound.
func (c *Cmp) Eval(ec *Ctx, row types.Row) (types.Value, error) {
	l, err := c.L.Eval(ec, row)
	if err != nil {
		return types.Value{}, err
	}
	r, err := c.R.Eval(ec, row)
	if err != nil {
		return types.Value{}, err
	}
	if l.IsNull() || r.IsNull() {
		return types.Null(), nil
	}
	cmp, err := l.Compare(r)
	if err != nil {
		return types.Value{}, err
	}
	switch c.Op {
	case "=":
		return types.NewBool(cmp == 0), nil
	case "<>":
		return types.NewBool(cmp != 0), nil
	case "<":
		return types.NewBool(cmp < 0), nil
	case "<=":
		return types.NewBool(cmp <= 0), nil
	case ">":
		return types.NewBool(cmp > 0), nil
	case ">=":
		return types.NewBool(cmp >= 0), nil
	default:
		return types.Value{}, fmt.Errorf("expr: unknown comparison %q", c.Op)
	}
}

// Logic is AND/OR with Kleene three-valued semantics.
type Logic struct {
	Op   string // "AND" or "OR"
	L, R Bound
}

// Kind implements Bound.
func (l *Logic) Kind() types.Kind { return types.KindBool }

// Cost implements Bound.
func (l *Logic) Cost() float64 { return l.L.Cost() + l.R.Cost() + 0.1 }

// String implements Bound.
func (l *Logic) String() string { return fmt.Sprintf("(%s %s %s)", l.L, l.Op, l.R) }

// Eval implements Bound.
func (l *Logic) Eval(ec *Ctx, row types.Row) (types.Value, error) {
	lv, err := l.L.Eval(ec, row)
	if err != nil {
		return types.Value{}, err
	}
	// Short-circuit where the result is already determined.
	if !lv.IsNull() {
		if l.Op == "AND" && !lv.Bool {
			return types.NewBool(false), nil
		}
		if l.Op == "OR" && lv.Bool {
			return types.NewBool(true), nil
		}
	}
	rv, err := l.R.Eval(ec, row)
	if err != nil {
		return types.Value{}, err
	}
	if l.Op == "AND" {
		switch {
		case !rv.IsNull() && !rv.Bool:
			return types.NewBool(false), nil
		case lv.IsNull() || rv.IsNull():
			return types.Null(), nil
		default:
			return types.NewBool(true), nil
		}
	}
	switch {
	case !rv.IsNull() && rv.Bool:
		return types.NewBool(true), nil
	case lv.IsNull() || rv.IsNull():
		return types.Null(), nil
	default:
		return types.NewBool(false), nil
	}
}

// Not negates a boolean (NULL stays NULL).
type Not struct {
	X Bound
}

// Kind implements Bound.
func (n *Not) Kind() types.Kind { return types.KindBool }

// Cost implements Bound.
func (n *Not) Cost() float64 { return n.X.Cost() + 0.1 }

// String implements Bound.
func (n *Not) String() string { return fmt.Sprintf("(NOT %s)", n.X) }

// Eval implements Bound.
func (n *Not) Eval(ec *Ctx, row types.Row) (types.Value, error) {
	v, err := n.X.Eval(ec, row)
	if err != nil {
		return types.Value{}, err
	}
	if v.IsNull() {
		return types.Null(), nil
	}
	return types.NewBool(!v.Bool), nil
}

// Neg is unary numeric negation.
type Neg struct {
	X Bound
}

// Kind implements Bound.
func (n *Neg) Kind() types.Kind { return n.X.Kind() }

// Cost implements Bound.
func (n *Neg) Cost() float64 { return n.X.Cost() + 0.1 }

// String implements Bound.
func (n *Neg) String() string { return fmt.Sprintf("(-%s)", n.X) }

// Eval implements Bound.
func (n *Neg) Eval(ec *Ctx, row types.Row) (types.Value, error) {
	v, err := n.X.Eval(ec, row)
	if err != nil {
		return types.Value{}, err
	}
	if v.IsNull() {
		return types.Null(), nil
	}
	if v.Kind == types.KindFloat {
		return types.NewFloat(-v.Float), nil
	}
	return types.NewInt(-v.Int), nil
}

// NullTest is x IS [NOT] NULL.
type NullTest struct {
	X      Bound
	Negate bool
}

// Kind implements Bound.
func (t *NullTest) Kind() types.Kind { return types.KindBool }

// Cost implements Bound.
func (t *NullTest) Cost() float64 { return t.X.Cost() + 0.1 }

// String implements Bound.
func (t *NullTest) String() string {
	if t.Negate {
		return fmt.Sprintf("(%s IS NOT NULL)", t.X)
	}
	return fmt.Sprintf("(%s IS NULL)", t.X)
}

// Eval implements Bound.
func (t *NullTest) Eval(ec *Ctx, row types.Row) (types.Value, error) {
	v, err := t.X.Eval(ec, row)
	if err != nil {
		return types.Value{}, err
	}
	return types.NewBool(v.IsNull() != t.Negate), nil
}
