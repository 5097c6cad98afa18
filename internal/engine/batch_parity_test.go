package engine

import (
	"fmt"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"predator/internal/core"
	"predator/internal/isolate"
	"predator/internal/types"
)

// countingUDF wraps an isolated UDF and records the arguments of every
// row it is invoked on, however the rows are carried (one per crossing
// or a batch per crossing).
type countingUDF struct {
	core.BatchUDF
	mu    sync.Mutex
	calls []string
	xings int
}

func (c *countingUDF) record(args []types.Value, arity int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.xings++
	for i := 0; i+arity <= len(args); i += arity {
		parts := make([]string, arity)
		for j, a := range args[i : i+arity] {
			parts[j] = a.String()
		}
		c.calls = append(c.calls, strings.Join(parts, ","))
	}
}

func (c *countingUDF) Invoke(ctx *core.Ctx, args []types.Value) (types.Value, error) {
	c.record(args, len(args))
	return c.BatchUDF.Invoke(ctx, args)
}

func (c *countingUDF) InvokeBatch(ctx *core.Ctx, arity int, args []types.Value, out []core.BatchResult) error {
	c.record(args, arity)
	return c.BatchUDF.InvokeBatch(ctx, arity, args, out)
}

// take returns the recorded calls (sorted: batched and per-row paths
// may interleave two calls of one UDF differently) and resets them.
func (c *countingUDF) take() ([]string, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	calls, xings := c.calls, c.xings
	c.calls, c.xings = nil, 0
	sort.Strings(calls)
	return calls, xings
}

// registerCounting registers a native isolated UDF wrapped in a
// countingUDF.
func registerCounting(t *testing.T, e *Engine, name string, ret types.Kind) *countingUDF {
	t.Helper()
	u := isolate.NewNativeIsolated(name, []types.Kind{types.KindInt}, ret)
	c := &countingUDF{BatchUDF: e.attachFleet(isolate.WithSupervision(u, e.opts.Supervision)).(core.BatchUDF)}
	if err := e.reg.Register(c); err != nil {
		t.Fatal(err)
	}
	return c
}

// parityQueries place an isolated UDF in every expression shape the
// window evaluator handles. iso_check fails on x = 13 (row id 13).
var parityQueries = []string{
	`SELECT id FROM p WHERE iso_double(x) > 30`,
	`SELECT id, iso_double(x) + 1 FROM p`,
	`SELECT id FROM p WHERE NOT iso_odd(x)`,
	`SELECT id FROM p WHERE iso_double(x) IS NULL`,
	`SELECT id, ABS(iso_double(x) - 40) FROM p`,
	`SELECT id FROM p WHERE (iso_odd(x) AND iso_double(x) > 20) OR id = 3`,
	`SELECT id FROM p WHERE id = 3 OR (x > 10 AND iso_odd(x))`,
	`SELECT id FROM p WHERE iso_odd(x) OR iso_double(x) < 9`,
	`SELECT id, iso_odd(x) OR iso_double(x) > 50 FROM p`,
	`SELECT p.id, q.k FROM p, q WHERE iso_double(p.x) > q.k * 10`,
	`SELECT id FROM p WHERE iso_check(x) > 0`,
	`SELECT id, iso_double(x), iso_check(x) FROM p`,
	`SELECT id, iso_check(x), iso_double(x) FROM p`,
	`SELECT id FROM p WHERE iso_double(x) + iso_check(x) > 0`,
	`SELECT id FROM p WHERE iso_check(x) > 100 OR iso_odd(x)`,
	`SELECT id FROM p WHERE x IS NULL OR iso_check(x) < 0`,
}

// parityRun is one query's outcome and each UDF's invocations.
type parityRun struct {
	rows  []string
	err   string
	calls map[string][]string
	xings map[string]int
}

// TestBatchInvocationParity runs every parity query with batched
// crossings off (UDFBatchRows 1) and on (256). Rows, error text and the
// rows each UDF is invoked on must match. The one exception is that a
// UDF failing at row k was already sent the rest of its batch, so a
// failing query may show extra calls, all on rows after k.
func TestBatchInvocationParity(t *testing.T) {
	e, err := Open(filepath.Join(t.TempDir(), "parity.db"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	mustExec(t, e, `CREATE TABLE p (id INT, x INT)`)
	for i := 0; i < 40; i++ {
		x := fmt.Sprint(i)
		if i%5 == 4 {
			x = "NULL"
		}
		mustExec(t, e, fmt.Sprintf(`INSERT INTO p VALUES (%d, %s)`, i, x))
	}
	mustExec(t, e, `CREATE TABLE q (k INT)`)
	mustExec(t, e, `INSERT INTO q VALUES (1), (3), (5)`)
	udfs := map[string]*countingUDF{
		"iso_double": registerCounting(t, e, "iso_double", types.KindInt),
		"iso_odd":    registerCounting(t, e, "iso_odd", types.KindBool),
		"iso_check":  registerCounting(t, e, "iso_check", types.KindInt),
	}

	exec := func(q string, batch int) parityRun {
		e.SetUDFBatchRows(batch)
		defer e.SetUDFBatchRows(0)
		r := parityRun{calls: map[string][]string{}, xings: map[string]int{}}
		res, err := e.Exec(q)
		if err != nil {
			r.err = err.Error()
		} else {
			for _, row := range res.Rows {
				r.rows = append(r.rows, row.String())
			}
		}
		for name, u := range udfs {
			r.calls[name], r.xings[name] = u.take()
		}
		return r
	}

	for _, q := range parityQueries {
		scalar, batched := exec(q, 1), exec(q, 256)
		if strings.Join(batched.rows, "|") != strings.Join(scalar.rows, "|") {
			t.Errorf("%s: rows differ\nbatched %v\n scalar %v", q, batched.rows, scalar.rows)
		}
		if batched.err != scalar.err {
			t.Errorf("%s: error %q batched, %q scalar", q, batched.err, scalar.err)
		}
		failed := scalar.err != ""
		for name := range udfs {
			got, want := batched.calls[name], scalar.calls[name]
			if !failed && strings.Join(got, " ") != strings.Join(want, " ") {
				t.Errorf("%s: %s invoked on\n%v batched,\n%v scalar", q, name, got, want)
			}
			if failed {
				if extra, ok := extraCalls(got, want); !ok {
					t.Errorf("%s: %s batched calls %v miss scalar calls %v", q, name, got, want)
				} else if len(extra) > 0 && extra[0] <= 13 {
					t.Errorf("%s: %s invoked on x=%d, before the failing row", q, name, extra[0])
				}
			}
			// More than one window's worth of rows must share crossings.
			if len(want) > 8 && batched.xings[name] >= len(want) {
				t.Errorf("%s: %s crossed %d times for %d rows: not batched", q, name, batched.xings[name], len(want))
			}
		}
	}
	if r := exec(`SELECT id FROM p WHERE iso_check(x) > 0`, 256); !strings.Contains(r.err, "iso_check: refused 13") {
		t.Errorf("iso_check query reported %q, want its row error", r.err)
	}

	plan := mustExec(t, e, `EXPLAIN ANALYZE SELECT id FROM p WHERE iso_double(x) > 30`).Plan
	if !strings.Contains(plan, "(batched:") {
		t.Errorf("predicate iso_double(x) > 30 did not batch:\n%s", plan)
	}
}

// extraCalls checks that got makes every call of want and returns the
// arguments of the calls it makes beyond them, ascending.
func extraCalls(got, want []string) ([]int, bool) {
	left := map[string]int{}
	for _, c := range got {
		left[c]++
	}
	for _, c := range want {
		if left[c] == 0 {
			return nil, false
		}
		left[c]--
	}
	var extra []int
	for c, n := range left {
		x, _ := strconv.Atoi(c)
		for ; n > 0; n-- {
			extra = append(extra, x)
		}
	}
	sort.Ints(extra)
	return extra, true
}

// TestIsolatedBoolUDF: an ISOLATED Jaguar UDF declared RETURNS bool
// answers BOOL like the embedded VM design does, as a bare predicate,
// under NOT and inside AND, on dedicated and fleet executors, with
// batched crossings off and on.
func TestIsolatedBoolUDF(t *testing.T) {
	const body = `func gt(x int) bool { var s int = 0; for (var i int = 0; i < x; i = i + 1) { s = s + 1; } return s > 25; }`
	for _, fleet := range []int{0, 2} {
		e, err := Open(filepath.Join(t.TempDir(), "bool.db"), Options{FleetSize: fleet})
		if err != nil {
			t.Fatal(err)
		}
		mustExec(t, e, `CREATE TABLE t (v INT)`)
		mustExec(t, e, `INSERT INTO t VALUES (10), (30)`)
		mustExec(t, e, `CREATE FUNCTION gt(int) RETURNS bool LANGUAGE jaguar ISOLATED AS $$ `+body+` $$`)
		mustExec(t, e, `CREATE FUNCTION gt_vm(int) RETURNS bool LANGUAGE jaguar AS $$ `+strings.Replace(body, "func gt(", "func gt_vm(", 1)+` $$`)
		if plan := mustExec(t, e, `EXPLAIN SELECT v FROM t WHERE gt(v)`).Plan; strings.Contains(plan, "inlined") {
			t.Fatalf("gt was inlined, so it does not cross:\n%s", plan)
		}
		for _, batch := range []int{1, 256} {
			e.SetUDFBatchRows(batch)
			for _, where := range []string{`%s(v)`, `NOT %s(v)`, `%s(v) AND v > 5`} {
				count := func(fn string) int64 {
					q := `SELECT COUNT(*) FROM t WHERE ` + fmt.Sprintf(where, fn)
					return mustExec(t, e, q).Rows[0][0].Int
				}
				iso, vm := count("gt"), count("gt_vm")
				if iso != 1 || iso != vm {
					t.Errorf("fleet %d, batch %d, WHERE %s: isolated counts %d, VM %d, want 1",
						fleet, batch, fmt.Sprintf(where, "gt"), iso, vm)
				}
			}
			row := mustExec(t, e, `SELECT gt(v) FROM t WHERE v = 30`).Rows[0]
			if row[0].Kind != types.KindBool || !row[0].Bool {
				t.Errorf("fleet %d, batch %d: gt(30) = %v, want BOOL true", fleet, batch, row[0])
			}
		}
		e.Close()
	}
}
