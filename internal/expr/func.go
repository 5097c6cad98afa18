package expr

import (
	"fmt"
	"strings"
	"time"

	"predator/internal/core"
	"predator/internal/inline"
	"predator/internal/obs"
	"predator/internal/types"
)

// Built-in scalar functions (cheap, trusted, evaluated inline).

type builtinImpl struct {
	argKinds [][]types.Kind // acceptable kinds per argument (nil entry = any)
	retKind  func(args []Bound) types.Kind
	eval     func(args []types.Value) (types.Value, error)
	cost     float64
}

var builtinFuncs = map[string]*builtinImpl{
	"length": {
		argKinds: [][]types.Kind{{types.KindString, types.KindBytes}},
		retKind:  func([]Bound) types.Kind { return types.KindInt },
		eval: func(args []types.Value) (types.Value, error) {
			if args[0].Kind == types.KindString {
				return types.NewInt(int64(len(args[0].Str))), nil
			}
			return types.NewInt(int64(len(args[0].Bytes))), nil
		},
		cost: 0.2,
	},
	"abs": {
		argKinds: [][]types.Kind{{types.KindInt, types.KindFloat}},
		retKind:  func(args []Bound) types.Kind { return args[0].Kind() },
		eval: func(args []types.Value) (types.Value, error) {
			if args[0].Kind == types.KindFloat {
				f := args[0].Float
				if f < 0 {
					f = -f
				}
				return types.NewFloat(f), nil
			}
			n := args[0].Int
			if n < 0 {
				n = -n
			}
			return types.NewInt(n), nil
		},
		cost: 0.2,
	},
	"upper": {
		argKinds: [][]types.Kind{{types.KindString}},
		retKind:  func([]Bound) types.Kind { return types.KindString },
		eval: func(args []types.Value) (types.Value, error) {
			return types.NewString(strings.ToUpper(args[0].Str)), nil
		},
		cost: 0.5,
	},
	"lower": {
		argKinds: [][]types.Kind{{types.KindString}},
		retKind:  func([]Bound) types.Kind { return types.KindString },
		eval: func(args []types.Value) (types.Value, error) {
			return types.NewString(strings.ToLower(args[0].Str)), nil
		},
		cost: 0.5,
	},
	"getbyte": {
		argKinds: [][]types.Kind{{types.KindBytes}, {types.KindInt}},
		retKind:  func([]Bound) types.Kind { return types.KindInt },
		eval: func(args []types.Value) (types.Value, error) {
			i := args[1].Int
			if i < 0 || i >= int64(len(args[0].Bytes)) {
				return types.Value{}, fmt.Errorf("getbyte index %d out of range", i)
			}
			return types.NewInt(int64(args[0].Bytes[i])), nil
		},
		cost: 0.3,
	},
}

// IsBuiltin reports whether name is a built-in scalar function.
func IsBuiltin(name string) bool {
	_, ok := builtinFuncs[strings.ToLower(name)]
	return ok
}

// BuiltinCall evaluates a built-in scalar function (strict in NULLs).
type BuiltinCall struct {
	Name string
	Args []Bound
	impl *builtinImpl
	kind types.Kind

	// scratch is reused across rows so the hot Eval path does not
	// allocate an argument slice per tuple. A Bound tree belongs to one
	// operator and is evaluated by one goroutine at a time.
	scratch []types.Value
}

// Kind implements Bound.
func (b *BuiltinCall) Kind() types.Kind { return b.kind }

// Cost implements Bound.
func (b *BuiltinCall) Cost() float64 {
	c := b.impl.cost
	for _, a := range b.Args {
		c += a.Cost()
	}
	return c
}

// String implements Bound.
func (b *BuiltinCall) String() string {
	parts := make([]string, len(b.Args))
	for i, a := range b.Args {
		parts[i] = a.String()
	}
	return b.Name + "(" + strings.Join(parts, ", ") + ")"
}

// Eval implements Bound.
func (b *BuiltinCall) Eval(ec *Ctx, row types.Row) (types.Value, error) {
	if cap(b.scratch) < len(b.Args) {
		b.scratch = make([]types.Value, len(b.Args))
	}
	vals := b.scratch[:len(b.Args)]
	for i, a := range b.Args {
		v, err := a.Eval(ec, row)
		if err != nil {
			return types.Value{}, err
		}
		if v.IsNull() {
			return types.Null(), nil
		}
		vals[i] = v
	}
	return b.impl.eval(vals)
}

// udfCall invokes a registered user-defined function. Strict: any NULL
// argument yields NULL without crossing into the UDF.
type udfCall struct {
	udf   core.UDF
	args  []Bound
	batch core.BatchUDF  // non-nil when the UDF supports batched crossings
	hist  *obs.Histogram // invoke latency, labelled by execution design
	ev    string         // trace event name ("udf:<name>")
	bail  string         // why the body was not inlined ("" = not a candidate)

	// Grow-only scratch reused across rows and windows (a Bound tree
	// belongs to one operator and is evaluated by one goroutine at a
	// time): per-row argument slice, batched row-major argument gather
	// and batch results.
	scratch []types.Value
	flat    []types.Value
	res     []core.BatchResult
}

// NewUDFCall binds a UDF invocation after checking the signature.
// UDFs whose bytecode translated (core.Inlinable) are lowered into
// the expression tree and evaluated in-process with zero crossings;
// everything else dispatches through the UDF's execution design.
func NewUDFCall(u core.UDF, args []Bound) (Bound, error) {
	return newUDFCall(u, args, false)
}

// NewUDFCallNoInline binds a UDF invocation that always dispatches
// through the UDF's execution design, even when the body translated
// (SET UDF_INLINING OFF, ablation benchmarks).
func NewUDFCallNoInline(u core.UDF, args []Bound) (Bound, error) {
	return newUDFCall(u, args, true)
}

func newUDFCall(u core.UDF, args []Bound, noInline bool) (Bound, error) {
	kinds := u.ArgKinds()
	if len(args) != len(kinds) {
		return nil, fmt.Errorf("expr: %s takes %d argument(s), got %d", u.Name(), len(kinds), len(args))
	}
	for i, a := range args {
		if a.Kind() != kinds[i] {
			// Allow INT literals where FLOAT is expected via implicit cast.
			if kinds[i] == types.KindFloat && a.Kind() == types.KindInt {
				args[i] = &castFloat{x: a}
				continue
			}
			return nil, fmt.Errorf("expr: %s argument %d must be %s, got %s",
				u.Name(), i+1, kinds[i], a.Kind())
		}
	}
	var bail string
	if inl, ok := u.(core.Inlinable); ok {
		var prog *inline.Program
		prog, bail = inl.InlineProgram()
		if prog != nil {
			if noInline {
				bail = "disabled"
			} else {
				return newInlinedCall(u, prog, args), nil
			}
		}
	}
	// Resolve the latency histogram once at bind time so Eval never
	// touches the registry map on the per-row path.
	hist := obs.Default.Histogram("predator_udf_invoke_seconds", "design", u.Design().String())
	batch, _ := u.(core.BatchUDF)
	return &udfCall{udf: u, args: args, batch: batch, hist: hist, ev: "udf:" + strings.ToLower(u.Name()), bail: bail}, nil
}

// Kind implements Bound.
func (u *udfCall) Kind() types.Kind { return u.udf.ReturnKind() }

// costBatchRows is the batch size the optimizer assumes when a
// process-isolated UDF supports batched crossings: the per-invocation
// crossing cost is amortized over this many rows.
const costBatchRows = 64

// Cost implements Bound. UDF costs dominate everything else and vary by
// design: crossing a process boundary is an order of magnitude more
// expensive than crossing into the VM, which is more expensive than a
// plain call (the Fig. 5 calibration quantifies this). Isolated designs
// that can batch amortize the crossing over costBatchRows rows, leaving
// a per-row residual (marshalling, dispatch) on top of the integrated
// base.
func (u *udfCall) Cost() float64 {
	var base float64
	switch u.udf.Design() {
	case core.DesignNativeIntegrated:
		base = 100
	case core.DesignSFINative:
		base = 120
	case core.DesignVMIntegrated:
		base = 200
	case core.DesignNativeIsolated:
		base = 2000
		if u.batch != nil {
			base = 120 + 2000.0/costBatchRows
		}
	case core.DesignVMIsolated:
		base = 2500
		if u.batch != nil {
			base = 220 + 2500.0/costBatchRows
		}
	}
	for _, a := range u.args {
		base += a.Cost()
	}
	return base
}

// String implements Bound. A call that was an inlining candidate but
// fell back carries its bail-out reason after "!", so EXPLAIN shows
// why the UDF still pays crossings: name[JNI !native-call:cb.get](x).
func (u *udfCall) String() string {
	parts := make([]string, len(u.args))
	for i, a := range u.args {
		parts[i] = a.String()
	}
	if u.bail != "" {
		return fmt.Sprintf("%s[%s !%s](%s)", u.udf.Name(), u.udf.Design(), u.bail, strings.Join(parts, ", "))
	}
	return fmt.Sprintf("%s[%s](%s)", u.udf.Name(), u.udf.Design(), strings.Join(parts, ", "))
}

// Eval implements Bound.
func (u *udfCall) Eval(ec *Ctx, row types.Row) (types.Value, error) {
	if cap(u.scratch) < len(u.args) {
		u.scratch = make([]types.Value, len(u.args))
	}
	vals := u.scratch[:len(u.args)]
	for i, a := range u.args {
		v, err := a.Eval(ec, row)
		if err != nil {
			return types.Value{}, err
		}
		if v.IsNull() {
			return types.Null(), nil
		}
		vals[i] = v
	}
	var ctx *core.Ctx
	if ec != nil {
		ctx = ec.UDF
	}
	start := time.Now()
	out, err := u.udf.Invoke(ctx, vals)
	d := time.Since(start)
	u.hist.Observe(d)
	if ec != nil {
		ec.Trace.Event(u.ev, d)
	}
	return out, err
}

// batchable reports whether this call's crossings batch. Only
// process-isolated designs qualify: for them a batch is genuinely one
// crossing, while an integrated design gains nothing from batching and
// would only disturb its per-invocation accounting (one histogram
// observation and one trace event per actual call).
func (u *udfCall) batchable() bool {
	return u.batch != nil && !u.udf.Design().Integrated()
}

// castFloat widens an INT expression to FLOAT.
type castFloat struct {
	x Bound
}

// Kind implements Bound.
func (c *castFloat) Kind() types.Kind { return types.KindFloat }

// Cost implements Bound.
func (c *castFloat) Cost() float64 { return c.x.Cost() + 0.1 }

// String implements Bound.
func (c *castFloat) String() string { return fmt.Sprintf("FLOAT(%s)", c.x) }

// Eval implements Bound.
func (c *castFloat) Eval(ec *Ctx, row types.Row) (types.Value, error) {
	v, err := c.x.Eval(ec, row)
	if err != nil || v.IsNull() {
		return v, err
	}
	return types.NewFloat(v.AsFloat()), nil
}

// Aggregate support: the executor's Aggregate operator uses these
// descriptors; expr only classifies and validates them.

// AggFunc names a supported aggregate.
type AggFunc string

// The supported aggregates.
const (
	AggCount AggFunc = "COUNT"
	AggSum   AggFunc = "SUM"
	AggAvg   AggFunc = "AVG"
	AggMin   AggFunc = "MIN"
	AggMax   AggFunc = "MAX"
)

// IsAggregateName reports whether name is an aggregate function name.
func IsAggregateName(name string) bool {
	switch AggFunc(strings.ToUpper(name)) {
	case AggCount, AggSum, AggAvg, AggMin, AggMax:
		return true
	}
	return false
}

// AggSpec describes one aggregate computation for the executor.
type AggSpec struct {
	Func AggFunc
	Arg  Bound // nil for COUNT(*)
	Name string
}

// ResultKind gives the aggregate's output type.
func (a *AggSpec) ResultKind() (types.Kind, error) {
	switch a.Func {
	case AggCount:
		return types.KindInt, nil
	case AggAvg:
		return types.KindFloat, nil
	case AggSum:
		if a.Arg.Kind() == types.KindFloat {
			return types.KindFloat, nil
		}
		if a.Arg.Kind() == types.KindInt {
			return types.KindInt, nil
		}
		return types.KindInvalid, fmt.Errorf("expr: SUM over %s", a.Arg.Kind())
	case AggMin, AggMax:
		return a.Arg.Kind(), nil
	default:
		return types.KindInvalid, fmt.Errorf("expr: unknown aggregate %s", a.Func)
	}
}
