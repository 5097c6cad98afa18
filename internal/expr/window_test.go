package expr

import (
	"fmt"
	"strings"
	"testing"

	"predator/internal/core"
	"predator/internal/types"
)

// recUDF is a fake process-isolated (or, with inproc, integrated) UDF
// that records every row it is invoked on, so window evaluation can be
// checked against the scalar path call for call.
type recUDF struct {
	inproc bool
	name   string
	args   []types.Kind
	ret    types.Kind
	fn     func(args []types.Value) (types.Value, error)
	calls  []string // one entry per invoked row: the rendered arguments
	xings  int      // Invoke plus InvokeBatch calls
}

func (u *recUDF) Name() string           { return u.name }
func (u *recUDF) ArgKinds() []types.Kind { return u.args }
func (u *recUDF) ReturnKind() types.Kind { return u.ret }
func (u *recUDF) Design() core.Design {
	if u.inproc {
		return core.DesignNativeIntegrated
	}
	return core.DesignNativeIsolated
}
func (u *recUDF) Close() error { return nil }

func (u *recUDF) Invoke(_ *core.Ctx, args []types.Value) (types.Value, error) {
	u.xings++
	return u.call(args)
}

func (u *recUDF) call(args []types.Value) (types.Value, error) {
	parts := make([]string, len(args))
	for i, a := range args {
		parts[i] = a.String()
	}
	u.calls = append(u.calls, strings.Join(parts, ","))
	return u.fn(args)
}

func (u *recUDF) InvokeBatch(_ *core.Ctx, arity int, args []types.Value, out []core.BatchResult) error {
	u.xings++
	for i := range out {
		v, err := u.call(args[i*arity : (i+1)*arity])
		out[i] = core.BatchResult{Value: v, Err: err}
	}
	return nil
}

// windowFixture registers the fake UDFs; twice fails on the argument
// failOn (negative = never).
func windowFixture(t *testing.T, failOn int64) (*core.Registry, []*recUDF) {
	t.Helper()
	twice := &recUDF{name: "twice", args: []types.Kind{types.KindInt}, ret: types.KindInt,
		fn: func(a []types.Value) (types.Value, error) {
			if a[0].Int == failOn {
				return types.Value{}, fmt.Errorf("twice: refused %d", failOn)
			}
			return types.NewInt(2 * a[0].Int), nil
		}}
	isodd := &recUDF{name: "isodd", args: []types.Kind{types.KindInt}, ret: types.KindBool,
		fn: func(a []types.Value) (types.Value, error) { return types.NewBool(a[0].Int%2 != 0), nil }}
	half := &recUDF{name: "half", args: []types.Kind{types.KindFloat}, ret: types.KindFloat,
		fn: func(a []types.Value) (types.Value, error) { return types.NewFloat(a[0].Float / 2), nil }}
	inc := &recUDF{inproc: true, name: "inc", args: []types.Kind{types.KindInt}, ret: types.KindInt,
		fn: func(a []types.Value) (types.Value, error) { return types.NewInt(a[0].Int + 1), nil }}
	reg := core.NewRegistry()
	fakes := []*recUDF{twice, isodd, half, inc}
	for _, u := range fakes {
		if err := reg.Register(u); err != nil {
			t.Fatal(err)
		}
	}
	return reg, fakes
}

// windowRows builds rows of the test scope with NULLs in f, b and s.
func windowRows(n int) []types.Row {
	rows := make([]types.Row, n)
	for i := range rows {
		r := types.Row{types.NewInt(int64(i)), types.NewFloat(float64(i) / 2), types.NewBool(i%2 == 0),
			types.NewString(fmt.Sprint("s", i)), types.NewBytes(make([]byte, 12))}
		if i%4 == 3 {
			r[1] = types.Null()
		}
		if i%3 == 0 {
			r[2] = types.Null()
		}
		if i%5 == 4 {
			r[3] = types.Null()
		}
		rows[i] = r
	}
	return rows
}

// outcome is what a consumer sees: values up to the first error, the
// error text, and each UDF's invocations.
type outcome struct {
	vals  []string
	err   string
	calls [][]string
	xings []int
}

func scalarOutcome(t *testing.T, src string, rows []types.Row, failOn int64) outcome {
	reg, fakes := windowFixture(t, failOn)
	e := bind(t, src, reg)
	var o outcome
	for _, r := range rows {
		v, err := e.Eval(&Ctx{}, r)
		if err != nil {
			o.err = err.Error()
			break
		}
		o.vals = append(o.vals, v.String())
	}
	for _, u := range fakes {
		o.calls = append(o.calls, u.calls)
		o.xings = append(o.xings, u.xings)
	}
	return o
}

func windowOutcome(t *testing.T, src string, rows []types.Row, failOn int64, size int) outcome {
	reg, fakes := windowFixture(t, failOn)
	e := bind(t, src, reg)
	var o outcome
	out := make([]core.BatchResult, size)
	var win Window
windows:
	for lo := 0; lo < len(rows); lo += size {
		hi := min(lo+size, len(rows))
		res := out[:hi-lo]
		clear(res)
		if err := win.Eval(&Ctx{}, e, rows[lo:hi], res); err != nil {
			t.Fatalf("%s: window fault: %v", src, err)
		}
		for _, r := range res {
			if r.Err != nil {
				o.err = r.Err.Error()
				break windows
			}
			o.vals = append(o.vals, r.Value.String())
		}
	}
	for _, u := range fakes {
		o.calls = append(o.calls, u.calls)
		o.xings = append(o.xings, u.xings)
	}
	return o
}

var windowExprs = []string{
	`twice(i) > 10`,
	`twice(i) + 1`,
	`10 - twice(i)`,
	`NOT isodd(i)`,
	`isodd(i)`,
	`-twice(i)`,
	`twice(i) IS NULL`,
	`half(f) IS NOT NULL`,
	`half(f) > 2.0`,
	`half(twice(i)) < 9.5`,
	`twice(twice(i)) > 8`,
	`ABS(twice(i) - 21)`,
	`LENGTH(s) + twice(i)`,
	`GETBYTE(y, twice(i))`,
	`twice(i) / (i - 7)`,
	`(i - 7) / twice(i)`,
	`isodd(i) AND twice(i) > 6`,
	`twice(i) > 6 AND isodd(i)`,
	`i > 3 OR isodd(i)`,
	`isodd(i) OR twice(i) < 4`,
	`b AND isodd(i)`,
	`b OR NOT isodd(i)`,
	`(f > 3.0 AND isodd(i)) OR (s IS NULL AND twice(i) > 4)`,
	`twice(i) = 2 * i AND half(f) <= f`,
	`inc(twice(i)) > 9`,
	`twice(inc(i)) > inc(i) + 5`,
}

// TestEvalWindowMatchesScalar is the expression-level parity check:
// every node shape around a batchable call gives the scalar path's
// values and first error, and each UDF is invoked on exactly the rows
// (and arguments) the scalar path uses — except that a failing call was
// already sent the rest of its window.
func TestEvalWindowMatchesScalar(t *testing.T) {
	rows := windowRows(40)
	for _, failOn := range []int64{-1, 9} {
		for _, src := range windowExprs {
			want := scalarOutcome(t, src, rows, failOn)
			for _, size := range []int{1, 7, 64} {
				got := windowOutcome(t, src, rows, failOn, size)
				name := fmt.Sprintf("%s (fail on %d, window %d)", src, failOn, size)
				if strings.Join(got.vals, " ") != strings.Join(want.vals, " ") {
					t.Errorf("%s: values\n got %v\nwant %v", name, got.vals, want.vals)
				}
				if got.err != want.err {
					t.Errorf("%s: error %q, want %q", name, got.err, want.err)
				}
				for u := range want.calls {
					checkCalls(t, name, want.err != "", size, got.calls[u], want.calls[u])
				}
			}
		}
	}
}

// checkCalls compares one UDF's invocations as multisets (a call
// nested in itself interleaves differently per row than per window).
// Without an error they must be identical. With one, the window must
// make every scalar call and may only add read-ahead within the failing
// window.
func checkCalls(t *testing.T, name string, failed bool, size int, got, want []string) {
	t.Helper()
	left := map[string]int{}
	for _, c := range got {
		left[c]++
	}
	for _, c := range want {
		if left[c] == 0 {
			t.Errorf("%s: scalar call (%s) missing from window calls %v", name, c, got)
			return
		}
		left[c]--
	}
	extra := len(got) - len(want)
	if !failed && extra != 0 || extra >= size {
		t.Errorf("%s: %d calls the scalar path does not make\n got %v\nwant %v", name, extra, got, want)
	}
}

// TestEvalWindowOneCrossingPerCall pins the amortization: a call nested
// in a predicate crosses once per window, and a call reached by no row
// does not cross at all.
func TestEvalWindowOneCrossingPerCall(t *testing.T) {
	rows := windowRows(40)
	got := windowOutcome(t, `twice(i) > 10 AND isodd(i)`, rows, -1, 16)
	if got.xings[0] != 3 {
		t.Errorf("twice crossed %d times over 3 windows, want 3", got.xings[0])
	}
	// twice(i) > 10 first holds at i = 6: the first window still has
	// rows 6..15, so isodd crosses in all three windows.
	if got.xings[1] != 3 {
		t.Errorf("isodd crossed %d times, want 3", got.xings[1])
	}
	got = windowOutcome(t, `i > 100 AND isodd(i)`, rows, -1, 16)
	if got.xings[1] != 0 || len(got.calls[1]) != 0 {
		t.Errorf("isodd crossed %d times for no surviving row", got.xings[1])
	}
}

func TestHasBatchable(t *testing.T) {
	reg, _ := windowFixture(t, -1)
	for src, want := range map[string]bool{
		`twice(i)`:                  true,
		`twice(i) > 3`:              true,
		`NOT (i > 2 OR isodd(i))`:   true,
		`ABS(-twice(i))`:            true,
		`half(i) IS NULL`:           true,
		`i + 1 > 2`:                 false,
		`LENGTH(s) = 3 AND b`:       false,
		`GETBYTE(y, i) IS NOT NULL`: false,
	} {
		if got := HasBatchable(bind(t, src, reg)); got != want {
			t.Errorf("HasBatchable(%s) = %v, want %v", src, got, want)
		}
	}
}

// TestEvalWindowAllocsPerWindow: window evaluation allocates per node
// and window (rebound nodes and their operands), never per row, so a
// 64-row window allocates no more than an 8-row one.
func TestEvalWindowAllocsPerWindow(t *testing.T) {
	reg := core.NewRegistry()
	if err := reg.Register(&quietUDF{}); err != nil {
		t.Fatal(err)
	}
	e := bind(t, `NOT (quiet(i) > 10 AND ABS(quiet(i) - 20) < 15) OR i IS NULL`, reg)
	allocs := func(n int) float64 {
		rows := windowRows(n)
		out := make([]core.BatchResult, n)
		ec := &Ctx{}
		var win Window
		if err := win.Eval(ec, e, rows, out); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(100, func() {
			if err := win.Eval(ec, e, rows, out); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(8), allocs(64); large > small {
		t.Errorf("a 64-row window allocates %.1f, an 8-row one %.1f: allocation grows with rows", large, small)
	}
}

// quietUDF is an isolated-design UDF that doubles its argument without
// recording anything.
type quietUDF struct{}

func (quietUDF) Name() string           { return "quiet" }
func (quietUDF) ArgKinds() []types.Kind { return []types.Kind{types.KindInt} }
func (quietUDF) ReturnKind() types.Kind { return types.KindInt }
func (quietUDF) Design() core.Design    { return core.DesignNativeIsolated }
func (quietUDF) Close() error           { return nil }
func (quietUDF) Invoke(_ *core.Ctx, args []types.Value) (types.Value, error) {
	return types.NewInt(2 * args[0].Int), nil
}
func (quietUDF) InvokeBatch(_ *core.Ctx, _ int, args []types.Value, out []core.BatchResult) error {
	for i := range out {
		out[i] = core.BatchResult{Value: types.NewInt(2 * args[i].Int)}
	}
	return nil
}
