package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
)

// span is one traced interval. Spans of one statement share Stmt;
// Parent is the index of the enclosing span in the recorder (-1 for a
// statement's root). Start and End are offsets from the recorder epoch.
type span struct {
	Stmt   int64         `json:"stmt"`
	Parent int           `json:"parent"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	// Rows is the number of rows an operator span produced (0 for
	// spans around calls).
	Rows int64 `json:"rows,omitempty"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps spans in memory until the run ends.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	stmts int64
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// newStmt allocates the next statement ID.
func (r *recorder) newStmt() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.stmts++
	return r.stmts
}

// begin opens a span and returns its index.
func (r *recorder) begin(stmt int64, name string, parent int) int {
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Stmt: stmt, Parent: parent, Name: name, Start: now, End: -1})
	return len(r.spans) - 1
}

// end closes the span begin returned.
func (r *recorder) end(i int) {
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[i].End = now
	r.mu.Unlock()
}

// add records a complete span and returns its index.
func (r *recorder) add(s span) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, s)
	return len(r.spans) - 1
}

// writeFile writes every span as one JSON object per line.
func (r *recorder) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns every span's self time: its duration minus the
// part of its interval covered by its children (overlapping children
// count once, parts outside the parent not at all).
func selfTimes(spans []span) []time.Duration {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		out[i] = s.dur() - covered(s, kids[i])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, children []span) time.Duration {
	type iv struct{ lo, hi time.Duration }
	var ivs []iv
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	slices.SortFunc(ivs, func(a, b iv) int { return int(a.lo - b.lo) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.lo <= cur.hi:
			cur.hi = max(cur.hi, v.hi)
		default:
			total += cur.hi - cur.lo
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.hi - cur.lo
	}
	return total
}

// opStat is one operator line of an EXPLAIN ANALYZE-style rendering of
// an exec.Instrument-wrapped tree.
type opStat struct {
	op    string // operator name, e.g. "SeqScan"
	depth int
	rows  int64
	dur   time.Duration // inclusive: the operator and everything below it
}

var actualRe = regexp.MustCompile(`^(\s*)([A-Za-z]+).*\(actual rows=(\d+) time=([^)]+)\)$`)

// parseInstrumented reads the operator lines exec.ExplainTree renders
// for an instrumented tree.
func parseInstrumented(tree string) ([]opStat, error) {
	var ops []opStat
	for _, line := range strings.Split(strings.TrimRight(tree, "\n"), "\n") {
		m := actualRe.FindStringSubmatch(line)
		if m == nil {
			return nil, fmt.Errorf("perfbench: no actuals in plan line %q", line)
		}
		rows, err := strconv.ParseInt(m[3], 10, 64)
		if err != nil {
			return nil, err
		}
		d, err := time.ParseDuration(m[4])
		if err != nil {
			return nil, err
		}
		ops = append(ops, opStat{op: m[2], depth: len(m[1]) / 2, rows: rows, dur: d})
	}
	return ops, nil
}

// addOperatorSpans records the operators of one instrumented pass as
// spans under parent. A probe measures the total time an operator was
// busy across all its Open/Next/Close calls, not one interval, so each
// operator's span is laid out from its parent's start with that busy
// time as its length, and siblings follow one another. Self time then
// comes out as the operator's busy time minus its children's.
func (r *recorder) addOperatorSpans(stmt int64, parent int, ops []opStat) {
	r.mu.Lock()
	base := r.spans[parent].Start
	r.mu.Unlock()
	type frame struct {
		idx  int
		next time.Duration // where the frame's next child starts
	}
	stack := []frame{{idx: parent, next: base}}
	for _, o := range ops {
		stack = stack[:min(o.depth+1, len(stack))]
		top := &stack[len(stack)-1]
		start := top.next
		idx := r.add(span{Stmt: stmt, Parent: top.idx, Name: "exec." + o.op, Start: start, End: start + o.dur, Rows: o.rows})
		top.next = start + o.dur
		stack = append(stack, frame{idx: idx, next: start})
	}
}
