package obs

import (
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHistogramBucketEdges(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 0},                // zero lands in the first bucket
		{-time.Second, 0},     // negative clamps to the first bucket
		{1, 0},                // 1ns ≤ 1µs
		{time.Microsecond, 0}, // exactly on the first upper bound
		{time.Microsecond + 1, 1},
		{2 * time.Microsecond, 1},
		{histUpper(histBuckets - 2), histBuckets - 2},   // largest finite bound
		{histUpper(histBuckets-2) + 1, histBuckets - 1}, // just past it: +Inf
		{24 * time.Hour, histBuckets - 1},               // way past: +Inf
	}
	for _, c := range cases {
		if got := bucketIndex(c.d); got != c.want {
			t.Errorf("bucketIndex(%v) = %d, want %d", c.d, got, c.want)
		}
	}
}

func TestHistogramObserveAndQuantile(t *testing.T) {
	h := &Histogram{}
	if h.Quantile(0.5) != 0 || h.Count() != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	h.Observe(0)            // edge: zero
	h.Observe(-time.Second) // edge: negative (counted, not summed)
	h.Observe(time.Millisecond)
	h.Observe(time.Millisecond)
	h.Observe(48 * time.Hour) // edge: overflow
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	want := 2*time.Millisecond + 48*time.Hour
	if h.Sum() != want {
		t.Fatalf("sum = %v, want %v", h.Sum(), want)
	}
	// The median observation is one of the 1ms ones; the bucket upper
	// bound for 1ms is 1.024ms (1µs<<10).
	if q := h.Quantile(0.5); q != histUpper(10) {
		t.Errorf("p50 = %v, want %v", q, histUpper(10))
	}
	// The max lives in +Inf; Quantile reports the largest finite bound.
	if q := h.Quantile(1.0); q != histUpper(histBuckets-2) {
		t.Errorf("p100 = %v, want %v", q, histUpper(histBuckets-2))
	}
}

func TestValueHistogram(t *testing.T) {
	h := &ValueHistogram{}
	if h.Count() != 0 || h.Sum() != 0 || h.Mean() != 0 {
		t.Fatal("empty value histogram should report zeros")
	}
	for _, v := range []int64{1, 2, 8, 8, 256} {
		h.Observe(v)
	}
	if h.Count() != 5 || h.Sum() != 275 {
		t.Fatalf("count=%d sum=%d, want 5/275", h.Count(), h.Sum())
	}
	if got := h.Mean(); got != 55 {
		t.Errorf("mean = %v, want 55", got)
	}
	// Bucket boundaries: 1 lands in bucket 0 (le=1), 2 in bucket 1
	// (le=2), 8s in bucket 3 (le=8), 256 in bucket 8 (le=256).
	cum := h.cumulative()
	for i, want := range map[int]int64{0: 1, 1: 2, 2: 2, 3: 4, 7: 4, 8: 5, vhistBuckets - 1: 5} {
		if cum[i] != want {
			t.Errorf("cumulative[%d] = %d, want %d", i, cum[i], want)
		}
	}
	// Out-of-range values clamp into the +Inf bucket without skewing sum
	// negative.
	h.Observe(1 << 30)
	h.Observe(-3)
	if h.Count() != 7 {
		t.Errorf("count = %d after edge observations, want 7", h.Count())
	}
}

func TestValueHistogramScrape(t *testing.T) {
	r := NewRegistry()
	vh := r.ValueHistogram("predator_test_batch_rows", "design", "IC++")
	vh.Observe(8)
	vh.Observe(64)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	body := sb.String()
	for _, want := range []string{
		"# TYPE predator_test_batch_rows histogram",
		`predator_test_batch_rows_bucket{design="IC++",le="8"} 1`,
		`predator_test_batch_rows_bucket{design="IC++",le="64"} 2`,
		`predator_test_batch_rows_bucket{design="IC++",le="+Inf"} 2`,
		`predator_test_batch_rows_sum{design="IC++"} 72`,
		`predator_test_batch_rows_count{design="IC++"} 2`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("scrape missing %q\nbody:\n%s", want, body)
		}
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Counter("c_total").Inc()
				r.Counter("labeled_total", "k", "v").Inc()
				r.Gauge("g").Add(1)
				r.Histogram("h_seconds", "design", "IC++").Observe(time.Duration(i) * time.Microsecond)
				if i%50 == 0 {
					r.Dump()
					r.WritePrometheus(new(strings.Builder))
				}
			}
		}(g)
	}
	wg.Wait()
	if got := r.Counter("c_total").Value(); got != 4000 {
		t.Errorf("c_total = %d, want 4000", got)
	}
	if got := r.Histogram("h_seconds", "design", "IC++").Count(); got != 4000 {
		t.Errorf("h_seconds count = %d, want 4000", got)
	}
}

func TestRegistryLabelsCanonical(t *testing.T) {
	r := NewRegistry()
	// Same label set in different order must resolve to the same series.
	a := r.Counter("x_total", "b", "2", "a", "1")
	b := r.Counter("x_total", "a", "1", "b", "2")
	if a != b {
		t.Fatal("label order changed series identity")
	}
	a.Inc()
	stats := r.Dump()
	if len(stats) != 1 || stats[0].Name != `x_total{a="1",b="2"}` || stats[0].Value != "1" {
		t.Fatalf("dump = %+v", stats)
	}
}

// TestRenderLabelsEscapesOnce: a label value is escaped exactly once,
// Prometheus-style, so quote, backslash and newline each gain a single
// backslash, and the exposition still lints.
func TestRenderLabelsEscapesOnce(t *testing.T) {
	const v = "a\"b\\c\nd"
	want := `esc_total{k="a\"b\\c\nd"}`
	r := NewRegistry()
	r.Counter("esc_total", "k", v).Inc()
	if stats := r.Dump(); len(stats) != 1 || stats[0].Name != want {
		t.Fatalf("dump = %+v, want series %s", stats, want)
	}
	r.Histogram("esc_seconds", "k", v).Observe(time.Millisecond)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), want+" 1\n") {
		t.Errorf("exposition lacks %s:\n%s", want, sb.String())
	}
	lintExposition(t, sb.String())
}

func TestMetricsScrape(t *testing.T) {
	r := NewRegistry()
	r.Counter("predator_test_requests_total", "verb", "select").Add(7)
	r.Gauge("predator_test_inflight").Set(3)
	r.Histogram("predator_test_latency_seconds").Observe(2 * time.Millisecond)

	srv := httptest.NewServer(Handler(r))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 64<<10)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	body := sb.String()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	for _, want := range []string{
		"# TYPE predator_test_requests_total counter",
		`predator_test_requests_total{verb="select"} 7`,
		"# TYPE predator_test_inflight gauge",
		"predator_test_inflight 3",
		"# TYPE predator_test_latency_seconds histogram",
		`predator_test_latency_seconds_bucket{le="+Inf"} 1`,
		"predator_test_latency_seconds_count 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("scrape missing %q\nbody:\n%s", want, body)
		}
	}
}

func TestTrace(t *testing.T) {
	tr := NewTrace()
	sp := tr.Start("parse")
	time.Sleep(time.Millisecond)
	sp.End()
	tr.Event("udf:f", 2*time.Millisecond)
	tr.Event("udf:f", 4*time.Millisecond)
	if d := tr.SpanDuration("parse"); d < time.Millisecond {
		t.Errorf("parse span %v, want ≥ 1ms", d)
	}
	evs := tr.Events()
	if len(evs) != 1 || evs[0].Count != 2 || evs[0].Total != 6*time.Millisecond {
		t.Fatalf("events = %+v", evs)
	}
	out := tr.Render()
	if !strings.Contains(out, "parse:") || !strings.Contains(out, "udf:f: 2 calls") {
		t.Errorf("render:\n%s", out)
	}
	// A nil trace must be safe everywhere.
	var nilTr *Trace
	nilTr.Event("x", time.Second)
	if nilTr.Render() != "" || nilTr.Events() != nil || nilTr.SpanDuration("x") != 0 {
		t.Error("nil trace misbehaved")
	}
}
