package main

import (
	"encoding/hex"
	"fmt"
	"math/rand/v2"
	"strings"
)

// Workload inputs are generated from the --seed argument alone: the
// same seed always yields the same tables and the same statement
// sequence per session. The engine only ever sees the generated SQL.

// newRand returns the deterministic stream number `stream` of a seed.
// Each session and each table draws from its own stream, so adding a
// session never shifts another session's statements.
func newRand(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), stream))
}

// Stream numbers (any distinct constants work).
const (
	streamItems   = 1
	streamBig     = 2
	streamHot     = 3
	streamSession = 100 // + session index
)

// warmSession numbers the sessions set-up warms the engine with, apart
// from the timed ones, so warm-up never shifts the timed statements.
const warmSession = 50

const letters = "abcdefghijklmnopqrstuvwxyz"

func randWord(r *rand.Rand, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = letters[r.IntN(len(letters))]
	}
	return string(b)
}

func randBytes(r *rand.Rand, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(r.IntN(256))
	}
	return b
}

// byteSum is the Go reference for the Jaguar payload loops below
// (Jaguar bytes index as unsigned values).
func byteSum(p []byte) int64 {
	var s int64
	for _, b := range p {
		s += int64(b)
	}
	return s
}

// linRef is the Go reference for the inlinable UDF lin.
func linRef(v int64) int64 { return v*3 + 7 }

// Jaguar UDFs. lin is straight-line code, so the planner inlines it.
// The payload loops carry no fuel limit, so they cannot be inlined
// (!loop-without-fuel-limit): psum runs in the embedded VM (Design 3)
// and the ISOLATED copies run in an executor process (Design 4).
// None returns bool: an ISOLATED Jaguar UDF declared RETURNS bool
// comes back as INT 0/1, so as a bare predicate it keeps no rows.
const (
	udfLin     = `CREATE FUNCTION lin(int) RETURNS int LANGUAGE jaguar AS $$ func lin(x int) int { return x * 3 + 7; } $$`
	udfPsum    = `CREATE FUNCTION psum(bytes) RETURNS int LANGUAGE jaguar AS $$ func psum(p bytes) int { var s int = 0; for (var i int = 0; i < len(p); i = i + 1) { s = s + p[i]; } return s; } $$`
	udfPsumIso = `CREATE FUNCTION psum_iso(bytes) RETURNS int LANGUAGE jaguar ISOLATED AS $$ func psum_iso(p bytes) int { var s int = 0; for (var i int = 0; i < len(p); i = i + 1) { s = s + p[i]; } return s; } $$`
	udfPtouch  = `CREATE FUNCTION ptouch_iso(bytes) RETURNS int LANGUAGE jaguar ISOLATED AS $$ func ptouch_iso(p bytes) int { cb_touch(0); var s int = 0; for (var i int = 0; i < len(p); i = i + 1) { s = s + p[i]; } return s; } $$`
)

// stmt is one generated statement with everything needed to check its
// result and account for it.
type stmt struct {
	class int // index into the workload's class list
	sql   string
	// want is the expected result rows, in any order: the exact row
	// for a point read, the count for COUNT(*). INSERTs check rows
	// affected instead.
	want [][]any
	// key is the primary key an INSERT acknowledges (-1 otherwise).
	key int64
	// userBytes is the payload an INSERT adds (ints count 8 bytes).
	userBytes int64
	// udfRows is how many rows the statement's isolated UDF sees.
	udfRows int64
}

func hexLit(b []byte) string { return "X'" + hex.EncodeToString(b) + "'" }

// --- OLTP: items (64 rows, read) and orders (growing, written) -------

const numItems = 64

type item struct {
	id, price int64
	name      string
	payload   []byte
}

func genItems(seed int64) []item {
	r := newRand(seed, streamItems)
	items := make([]item, numItems)
	for i := range items {
		items[i] = item{
			id:      int64(i),
			price:   int64(r.IntN(100000)),
			name:    fmt.Sprintf("item-%02d-%s", i, randWord(r, 8)),
			payload: randBytes(r, 48),
		}
	}
	return items
}

func itemsInsertSQL(items []item) string {
	var b strings.Builder
	b.WriteString("INSERT INTO items VALUES ")
	for i, it := range items {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(%d, '%s', %d, %s)", it.id, it.name, it.price, hexLit(it.payload))
	}
	return b.String()
}

func itemsUserBytes(items []item) int64 {
	var n int64
	for _, it := range items {
		n += 16 + int64(len(it.name)+len(it.payload))
	}
	return n
}

// OLTP statement classes.
const (
	classWrite = iota
	classRead
	classUDFRead
)

var oltpClassNames = []string{"write", "read", "udf_read"}

// oltpGen yields one session's statements: INSERTs of fresh keys and
// point reads of items, cycling through the given classes in order.
type oltpGen struct {
	r       *rand.Rand
	items   []item
	classes []int
	session int64
	n       int64
}

func newOLTPGen(seed int64, session int, items []item, classes []int) *oltpGen {
	return &oltpGen{r: newRand(seed, streamSession+uint64(session)), items: items, classes: classes, session: int64(session)}
}

// keyBase spaces the sessions' INSERT keys apart.
const keyBase = 1_000_000_000

func (g *oltpGen) next() stmt {
	class := g.classes[g.n%int64(len(g.classes))]
	g.n++
	switch class {
	case classWrite:
		key := g.session*keyBase + g.n
		itemID := g.r.IntN(numItems)
		qty := 1 + g.r.IntN(9)
		note := randWord(g.r, 16)
		return stmt{
			class:     classWrite,
			sql:       fmt.Sprintf("INSERT INTO orders VALUES (%d, %d, %d, '%s')", key, itemID, qty, note),
			key:       key,
			userBytes: 24 + int64(len(note)),
		}
	case classRead:
		it := g.items[g.r.IntN(numItems)]
		return stmt{
			class: classRead,
			sql:   fmt.Sprintf("SELECT id, name, price FROM items WHERE id = %d", it.id),
			want:  [][]any{{it.id, it.name, it.price}},
			key:   -1,
		}
	default:
		it := g.items[g.r.IntN(numItems)]
		return stmt{
			class:   classUDFRead,
			sql:     fmt.Sprintf("SELECT id, name, price FROM items WHERE id = %d AND psum_iso(payload) = %d", it.id, byteSum(it.payload)),
			want:    [][]any{{it.id, it.name, it.price}},
			key:     -1,
			udfRows: 1,
		}
	}
}

// --- UDF scan: big (> buffer pool) and hot (fits) --------------------

// The UDF-scan database runs with a 256-page (2 MiB) buffer pool: big
// is about 2.3 times that and misses on every scan, hot fits. A pool of
// the default 1,024 pages would need 4 times the rows for the same
// shape, and a run would then time a quarter as many statements.
const (
	scanPoolPages = 256
	payloadLen    = 160
	bigRows       = 26_000 // about 590 pages
	hotRows       = 400    // about 10 pages
	loadBatch     = 250    // rows per INSERT while loading
)

type scanRow struct {
	id, v   int64
	payload []byte
	sum     int64 // byteSum(payload), precomputed for the references
}

func genScanTable(seed int64, stream uint64, n int) []scanRow {
	r := newRand(seed, stream)
	rows := make([]scanRow, n)
	for i := range rows {
		p := randBytes(r, payloadLen)
		rows[i] = scanRow{id: int64(i), v: int64(r.IntN(1_000_000)), payload: p, sum: byteSum(p)}
	}
	return rows
}

// scanInsertSQL renders rows[lo:] as one multi-row INSERT of at most
// loadBatch rows.
func scanInsertSQL(table string, rows []scanRow, lo int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "INSERT INTO %s VALUES ", table)
	for i, r := range rows[lo:min(lo+loadBatch, len(rows))] {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(%d, %d, %s)", r.id, r.v, hexLit(r.payload))
	}
	return b.String()
}

func scanUserBytes(rows []scanRow) int64 { return int64(len(rows)) * (16 + payloadLen) }

// UDF-scan statement classes, in the order one cycle runs them.
const (
	classScan = iota
	classInline
	classVM
	classIsolated
	classBatched
	classCallback
)

var scanClassNames = []string{"scan", "inline", "vm", "isolated", "batched", "callback"}

// scanClassTable names the table each class scans.
func scanClassTable(class int) string {
	if class >= classIsolated {
		return "hot"
	}
	return "big"
}

// scanGen yields the UDF-scan statements, one class after another,
// each with a fresh threshold and its reference COUNT(*).
type scanGen struct {
	r        *rand.Rand
	big, hot []scanRow
	n        int
}

func newScanGen(seed int64, session int, big, hot []scanRow) *scanGen {
	return &scanGen{r: newRand(seed, streamSession+uint64(session)), big: big, hot: hot}
}

// sumThreshold draws a payload-sum threshold near the mean sum, so the
// predicate keeps a varying share of the rows.
func (g *scanGen) sumThreshold() int64 { return payloadLen*255/2 - 1500 + int64(g.r.IntN(3000)) }

func (g *scanGen) next() stmt {
	class := g.n % len(scanClassNames)
	g.n++
	rows := g.big
	if scanClassTable(class) == "hot" {
		rows = g.hot
	}
	st := stmt{class: class, key: -1}
	if class >= classIsolated {
		st.udfRows = int64(len(rows))
	}
	if class == classBatched {
		// A projected isolated UDF batches its crossings; its output
		// is checked row by row.
		st.sql = "SELECT id, psum_iso(payload) FROM hot"
		for _, r := range rows {
			st.want = append(st.want, []any{r.id, r.sum})
		}
		return st
	}
	var where string
	var keep func(scanRow) bool
	switch class {
	case classScan:
		c := int64(g.r.IntN(1_000_000))
		where, keep = fmt.Sprintf("v < %d", c), func(r scanRow) bool { return r.v < c }
	case classInline:
		c := int64(g.r.IntN(3_000_000))
		where, keep = fmt.Sprintf("lin(v) < %d", c), func(r scanRow) bool { return linRef(r.v) < c }
	case classVM:
		c := g.sumThreshold()
		where, keep = fmt.Sprintf("psum(payload) > %d", c), func(r scanRow) bool { return r.sum > c }
	case classIsolated:
		c := g.sumThreshold()
		where, keep = fmt.Sprintf("psum_iso(payload) > %d", c), func(r scanRow) bool { return r.sum > c }
	default:
		c := g.sumThreshold()
		where, keep = fmt.Sprintf("ptouch_iso(payload) > %d", c), func(r scanRow) bool { return r.sum > c }
	}
	var want int64
	for _, r := range rows {
		if keep(r) {
			want++
		}
	}
	st.sql = fmt.Sprintf("SELECT COUNT(*) FROM %s WHERE %s", scanClassTable(class), where)
	st.want = [][]any{{want}}
	return st
}
