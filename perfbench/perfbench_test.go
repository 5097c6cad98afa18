package main

import (
	"os"
	"slices"
	"testing"
	"time"

	"predator"
)

// TestMain lets the test binary serve as the reference's helper
// process, as the benchmark binary does.
func TestMain(m *testing.M) {
	if os.Getenv(echoEnv) == "1" {
		runEcho()
		return
	}
	os.Exit(m.Run())
}

func oltpSQL(seed int64, session, n int) []string {
	g := newOLTPGen(seed, session, genItems(seed), []int{classWrite, classRead, classUDFRead})
	var out []string
	for range n {
		out = append(out, g.next().sql)
	}
	return out
}

func scanSQL(seed int64, n int) []string {
	g := newScanGen(seed, 0, genScanTable(seed, streamBig, 500), genScanTable(seed, streamHot, 50))
	var out []string
	for range n {
		out = append(out, g.next().sql)
	}
	return out
}

func TestSameSeedSameStatements(t *testing.T) {
	if a, b := oltpSQL(7, 0, 60), oltpSQL(7, 0, 60); !slices.Equal(a, b) {
		t.Fatal("seed 7 generated two different OLTP statement sequences")
	}
	if a, b := scanSQL(7, 24), scanSQL(7, 24); !slices.Equal(a, b) {
		t.Fatal("seed 7 generated two different UDF-scan statement sequences")
	}
	if slices.Equal(oltpSQL(7, 0, 60), oltpSQL(8, 0, 60)) || slices.Equal(scanSQL(7, 24), scanSQL(8, 24)) {
		t.Fatal("seeds 7 and 8 generated the same statements")
	}
	if slices.Equal(oltpSQL(7, 0, 60), oltpSQL(7, 1, 60)) {
		t.Fatal("two sessions of one seed generated the same statements")
	}
}

// The scan references must agree with what the generated predicates
// mean; a COUNT(*) is only as good as its reference.
func TestScanReferences(t *testing.T) {
	big := genScanTable(3, streamBig, 300)
	hot := genScanTable(3, streamHot, 40)
	g := newScanGen(3, 0, big, hot)
	for range 2 * len(scanClassNames) {
		st := g.next()
		rows := big
		if scanClassTable(st.class) == "hot" {
			rows = hot
		}
		if st.class == classBatched {
			if len(st.want) != len(rows) {
				t.Fatalf("batched wants %d rows, table has %d", len(st.want), len(rows))
			}
			continue
		}
		want := st.want[0][0].(int64)
		if want < 0 || want > int64(len(rows)) {
			t.Fatalf("%s: reference count %d outside [0, %d]", st.sql, want, len(rows))
		}
	}
	if byteSum([]byte{255, 1, 0}) != 256 {
		t.Fatal("byteSum must read bytes as unsigned")
	}
}

func TestPercentile(t *testing.T) {
	ms := func(vs ...int) []time.Duration {
		var out []time.Duration
		for _, v := range vs {
			out = append(out, time.Duration(v)*time.Millisecond)
		}
		return out
	}
	cases := []struct {
		in   []time.Duration
		p    float64
		want time.Duration
	}{
		{ms(5, 1, 4, 2, 3), 0.5, 3 * time.Millisecond},
		{ms(1, 2, 3, 4), 0.5, 2 * time.Millisecond},
		{ms(10, 1, 2, 3, 4, 5, 6, 7, 8, 9), 0.9, 9 * time.Millisecond},
		{ms(10, 1, 2, 3, 4, 5, 6, 7, 8, 9), 1, 10 * time.Millisecond},
		{ms(7), 0.9, 7 * time.Millisecond},
		{nil, 0.5, 0},
	}
	for _, c := range cases {
		if got := percentile(c.in, c.p); got != c.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", c.in, c.p, got, c.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := geomean([]float64{1, 100}); got < 9.999 || got > 10.001 {
		t.Errorf("geomean(1, 100) = %v, want 10", got)
	}
	if got := ratio(1, 0); got != 0 {
		t.Errorf("ratio with no base = %v, want 0", got)
	}
}

func TestPairedNorm(t *testing.T) {
	t0 := time.Now()
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	var samples []refSample
	for k := range 10 {
		cpu := ms(1)
		if k >= 5 {
			cpu = ms(2)
		}
		samples = append(samples, refSample{at: t0.Add(ms(50 * k)), cpu: cpu})
	}
	// Each statement meets the median of the 5 samples around the one
	// nearest it: 1 ms up to sample 4, 2 ms from sample 5 on.
	stmts := []timedStmt{
		{t0.Add(ms(10)), ms(3)},  // nearest sample 0: 3
		{t0.Add(ms(460)), ms(4)}, // nearest sample 9: 2
		{t0.Add(ms(240)), ms(2)}, // nearest sample 5: 1
	}
	if got := pairedNorm(stmts, samples, refCPU); got != 2 {
		t.Fatalf("pairedNorm = %v, want 2", got)
	}
	if got := pairedNorm(nil, samples, refCPU); got != 0 {
		t.Fatalf("pairedNorm with no statements = %v, want 0", got)
	}
}

func TestSetupSeconds(t *testing.T) {
	// The set-ups' median is 4 s and the reference took twice its quiet
	// time in most samples, so they count as 2.
	setupRef := []refSample{{cpu: refQuiet.cpu}, {cpu: 2 * refQuiet.cpu}, {cpu: 2 * refQuiet.cpu}}
	if got := setupSeconds([]float64{2, 4, 5}, setupRef, refCPU); got != 2 {
		t.Fatalf("setupSeconds = %v, want 2", got)
	}
}

func TestReference(t *testing.T) {
	ref, err := newReference(t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	samples, err := ref.sample(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range samples {
		if s.cpu <= 0 || s.ipc <= 0 || s.disk <= 0 {
			t.Fatalf("reference part not timed: %+v", s)
		}
	}
	if err := ref.close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Parent: -1, Start: 0, End: 100},   // 0: root
		{Parent: 0, Start: 10, End: 40},    // 1: child
		{Parent: 0, Start: 30, End: 50},    // 2: overlaps 1: the union 10..50 counts once
		{Parent: 0, Start: 90, End: 120},   // 3: runs past the root: only 90..100 counts
		{Parent: 1, Start: 15, End: 20},    // 4: grandchild, charged to 1 only
		{Parent: -1, Start: 200, End: 210}, // 5: another root without children
	}
	want := []time.Duration{100 - 40 - 10, 30 - 5, 20, 30, 5, 10}
	if got := selfTimes(spans); !slices.Equal(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
}

func TestOperatorSpans(t *testing.T) {
	tree := "Aggregate(0 groups, 1 aggs) (actual rows=1 time=10ms)\n" +
		"  Filter(psum[JNI !loop-without-fuel-limit](payload) > 3) (actual rows=40 time=9ms)\n" +
		"    SeqScan(big) (actual rows=100 time=2.5ms)\n"
	ops, err := parseInstrumented(tree)
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 3 || ops[1].op != "Filter" || ops[2].depth != 2 || ops[2].rows != 100 {
		t.Fatalf("parsed %+v", ops)
	}
	r := newRecorder()
	root := r.add(span{Stmt: 1, Parent: -1, Start: 0, End: 11 * time.Millisecond})
	r.addOperatorSpans(1, root, ops)
	self := selfTimes(r.spans)
	want := []time.Duration{time.Millisecond, time.Millisecond, 6500 * time.Microsecond, 2500 * time.Microsecond}
	if !slices.Equal(self, want) {
		t.Fatalf("self times = %v, want %v", self, want)
	}
	if _, err := parseInstrumented("SeqScan(big)\n"); err == nil {
		t.Fatal("a plan line without actuals parsed")
	}
}

func TestWrongResultIsFailure(t *testing.T) {
	count := func(n int64) []predator.Row { return []predator.Row{{predator.NewInt(n)}} }
	st := stmt{sql: "SELECT COUNT(*) FROM big WHERE v < 5", want: [][]any{{int64(42)}}, key: -1}
	if err := checkResult(st, count(42), 0, nil); err != nil {
		t.Fatalf("right count rejected: %v", err)
	}
	if err := checkResult(st, count(41), 0, nil); err == nil {
		t.Fatal("wrong count accepted")
	}
	if err := checkResult(st, append(count(42), count(42)...), 0, nil); err == nil {
		t.Fatal("extra row accepted")
	}
	ins := stmt{sql: "INSERT INTO orders VALUES (1, 2, 3, 'x')", key: 1}
	if err := checkResult(ins, nil, 0, nil); err == nil {
		t.Fatal("INSERT affecting no row accepted")
	}

	// Through the runner: every statement answered wrongly is counted
	// as attempted and failed, and none contributes a latency.
	ref, err := newReference(t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.close()
	rn := &runner{classes: []string{"scan"}, ref: ref}
	rn.reset()
	wrong := func(string) ([]predator.Row, int64, error) { return count(41), 0, nil }
	sessions := []*session{
		{exec: wrong, next: func() stmt { return st }},
		{exec: wrong, next: func() stmt { return st }},
	}
	rn.run(sessions, 20*time.Millisecond)
	if a, f := rn.attempted.Load(), rn.failed.Load(); a == 0 || f != a {
		t.Fatalf("attempted %d, failed %d: want every attempt failed", a, f)
	}
	if len(rn.lat[0]) != 0 {
		t.Fatalf("%d wrong results were timed", len(rn.lat[0]))
	}
}
