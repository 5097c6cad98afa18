package main

import (
	"fmt"
	"path/filepath"
	"strings"

	"predator"
)

// instance is one set-up copy of a workload, ready for its first timed
// statement.
type instance struct {
	db       *predator.DB
	path     string // database file
	sessions []*session
	entry    string // name of the entry-point span
	// acked and userBytes cover what set-up inserted.
	acked     []int64
	userBytes int64
	close     func() error
}

// workload describes one benchmark workload.
type workload struct {
	classes []string
	// udf is the kind of UDF each class's predicate calls ("" = none).
	udf []string
	// rowsPerStmt is how many rows each class's predicate is evaluated
	// on (0 for OLTP classes).
	rowsPerStmt []int64
	// setups is how many times a run sets the workload up (setup_s is
	// their median); the last copy is the one measured.
	setups int
	setup  func(dir string) (*instance, error)
	// guard reports what no longer holds about the workload's shape.
	guard func(inst *instance, rn *runner, window counters) []string
	// verify reopens the closed database and checks its contents. lost
	// counts acknowledged INSERTs whose rows are gone.
	verify func(inst *instance, acked []int64) (lost int64, err error)
	// norm is, per class, the reference part its latency median is
	// reported in (calib.go).
	norm []refPart
	// setupNorm is the reference part set-up times are scaled by
	// (setupSeconds).
	setupNorm refPart
}

func dbExec(db *predator.DB) execFunc {
	return func(q string) ([]predator.Row, int64, error) {
		res, err := db.Exec(q)
		if err != nil {
			return nil, 0, err
		}
		return res.Rows, res.RowsAffected, nil
	}
}

func clientExec(c *predator.Client) execFunc {
	return func(q string) ([]predator.Row, int64, error) {
		res, err := c.Exec(q)
		if err != nil {
			return nil, 0, err
		}
		return res.Rows, res.RowsAffected, nil
	}
}

// execAll runs set-up statements, failing on the first error.
func execAll(ex execFunc, stmts ...string) error {
	for _, q := range stmts {
		if _, _, err := ex(q); err != nil {
			return fmt.Errorf("%.80s: %w", q, err)
		}
	}
	return nil
}

// --- OLTP ------------------------------------------------------------

const (
	oltpSessionsWire = 2
	oltpWarmRounds   = 20 // statements of each class per session before timing
)

// oltpWorkload builds oltp_embedded (one in-process session) or
// oltp_wire (two wire connections, both INSERTing into orders, one at
// a time: see runner.insertMu).
func oltpWorkload(seed int64, wire bool) *workload {
	items := genItems(seed)
	classes := []int{classWrite, classRead}
	if !wire {
		classes = append(classes, classUDFRead)
	}
	// A durable INSERT on oltp_wire waits mostly on a WAL fsync, a
	// read there on CPU and the loopback round trip; in process,
	// statements wait on CPU, and a UDF read on the crossing too.
	// Set-up on oltp_wire waits mostly on the fsync of each warm-up
	// INSERT; oltp_embedded's starts two executor processes.
	w := &workload{setups: 41, rowsPerStmt: make([]int64, len(classes)), setupNorm: refCPU | refIPC}
	if wire {
		w.setupNorm = refDisk
	}
	for _, c := range classes {
		w.classes = append(w.classes, oltpClassNames[c])
		w.udf = append(w.udf, "")
		norm := refCPU
		switch {
		case c == classUDFRead:
			w.udf[len(w.udf)-1] = udfIsolated
			norm = refCPU | refIPC
		case wire && c == classWrite:
			norm = refDisk
		case wire:
			norm = refCPU | refIPC
		}
		w.norm = append(w.norm, norm)
	}
	w.setup = func(dir string) (*instance, error) {
		inst := &instance{path: filepath.Join(dir, "oltp.db")}
		opts := []predator.Option{predator.WithDurability("none"), predator.WithFleetSize(2)}
		if wire {
			opts = []predator.Option{predator.WithDurability("commit")}
		}
		db, err := predator.Open(inst.path, opts...)
		if err != nil {
			return nil, err
		}
		inst.db = db
		var execs []execFunc
		if wire {
			srv := predator.NewServer(db, nil)
			addr, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				srv.Close()
				return nil, err
			}
			var clients []*predator.Client
			inst.close = func() error {
				for _, c := range clients {
					c.Close()
				}
				return srv.Close()
			}
			for range oltpSessionsWire {
				c, err := predator.Dial(addr, "perfbench")
				if err != nil {
					inst.close()
					return nil, err
				}
				clients = append(clients, c)
				execs = append(execs, clientExec(c))
			}
			inst.entry = entryWire
		} else {
			inst.close = db.Close
			execs = []execFunc{dbExec(db)}
			inst.entry = "engine.db_exec"
		}
		ddl := []string{
			`CREATE TABLE items (id INT, name STRING, price INT, payload BYTES)`,
			`CREATE TABLE orders (id INT, item INT, qty INT, note STRING)`,
			itemsInsertSQL(items),
		}
		if !wire {
			ddl = append(ddl, udfPsumIso)
		}
		if err := execAll(execs[0], ddl...); err != nil {
			inst.close()
			return nil, err
		}
		inst.userBytes = itemsUserBytes(items)
		for i, ex := range execs {
			warm := newOLTPGen(seed, warmSession+i, items, classes)
			for range oltpWarmRounds * len(classes) {
				st := warm.next()
				rows, affected, err := ex(st.sql)
				if err := checkResult(st, rows, affected, err); err != nil {
					inst.close()
					return nil, fmt.Errorf("warm-up: %w", err)
				}
				if st.key >= 0 {
					inst.acked = append(inst.acked, st.key)
					inst.userBytes += st.userBytes
				}
			}
			gen := newOLTPGen(seed, i, items, classes)
			inst.sessions = append(inst.sessions, &session{exec: ex, next: gen.next})
		}
		return inst, nil
	}
	w.guard = func(inst *instance, rn *runner, window counters) []string {
		if wire && window.checkpoints < minCheckpoints {
			return []string{fmt.Sprintf("oltp_wire crossed %d auto-checkpoints, want at least %d", window.checkpoints, minCheckpoints)}
		}
		return nil
	}
	w.verify = func(inst *instance, acked []int64) (int64, error) {
		db, err := predator.Open(inst.path, predator.WithDurability("none"))
		if err != nil {
			return 0, err
		}
		defer db.Close()
		res, err := db.Exec("SELECT id FROM orders")
		if err != nil {
			return 0, err
		}
		have := make(map[int64]bool, len(acked))
		for _, r := range res.Rows {
			have[r[0].Int] = true
		}
		var lost int64
		for _, k := range acked {
			if !have[k] {
				lost++
			}
		}
		if lost > 0 || len(have) != len(acked) || len(res.Rows) != len(acked) {
			return lost, fmt.Errorf("%d of %d acknowledged orders missing after reopen (%d rows, %d distinct keys present)",
				lost, len(acked), len(res.Rows), len(have))
		}
		res, err = db.Exec(`SELECT COUNT(*) FROM items`)
		if err != nil {
			return 0, err
		}
		if n := res.Rows[0][0].Int; n != numItems {
			return 0, fmt.Errorf("items holds %d rows after reopen, want %d", n, numItems)
		}
		return 0, nil
	}
	return w
}

// minCheckpoints is how many automatic checkpoints the timed part of
// an oltp_wire run must cross, so the run averages over the WAL's
// fill-and-truncate cycle instead of landing on one part of it.
const minCheckpoints = 3

// --- UDF scan --------------------------------------------------------

func scanWorkload(seed int64) *workload {
	big := genScanTable(seed, streamBig, bigRows)
	hot := genScanTable(seed, streamHot, hotRows)
	w := &workload{
		classes:     scanClassNames,
		udf:         []string{"", udfInline, udfVM, udfIsolated, udfIsolated, udfIsolated},
		rowsPerStmt: []int64{bigRows, bigRows, bigRows, hotRows, hotRows, hotRows},
		// The big scans and the VM run in this process for tens of
		// milliseconds; the hot classes also wait on crossings. Set-up
		// is a durable bulk load.
		norm:      []refPart{refLong, refLong, refLong, refCPU | refIPC, refCPU | refIPC, refCPU | refIPC},
		setups:    5,
		setupNorm: refCPU | refBulk,
	}
	w.setup = func(dir string) (*instance, error) {
		inst := &instance{path: filepath.Join(dir, "scan.db"), entry: "engine.db_exec"}
		db, err := predator.Open(inst.path, predator.WithDurability("commit"), predator.WithFleetSize(2),
			predator.WithBufferPoolPages(scanPoolPages))
		if err != nil {
			return nil, err
		}
		inst.db = db
		inst.close = db.Close
		ex := dbExec(db)
		ddl := []string{
			`CREATE TABLE big (id INT, v INT, payload BYTES)`,
			`CREATE TABLE hot (id INT, v INT, payload BYTES)`,
			udfLin, udfPsum, udfPsumIso, udfPtouch,
		}
		if err := execAll(ex, ddl...); err != nil {
			db.Close()
			return nil, err
		}
		for _, t := range []struct {
			name string
			rows []scanRow
		}{{"big", big}, {"hot", hot}} {
			for lo := 0; lo < len(t.rows); lo += loadBatch {
				if err := execAll(ex, scanInsertSQL(t.name, t.rows, lo)); err != nil {
					db.Close()
					return nil, err
				}
			}
		}
		inst.userBytes = scanUserBytes(big) + scanUserBytes(hot)
		warm := newScanGen(seed, warmSession, big, hot)
		for range scanClassNames {
			st := warm.next()
			rows, affected, err := ex(st.sql)
			if err := checkResult(st, rows, affected, err); err != nil {
				db.Close()
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
		gen := newScanGen(seed, 0, big, hot)
		inst.sessions = []*session{{exec: ex, next: gen.next, prepare: func(st stmt) error {
			if st.class != classIsolated {
				return nil
			}
			// The big scans just cycled the whole buffer pool; bring hot
			// back in, untimed, so the hot classes measure UDF crossings
			// rather than page reads.
			return rewarmHot(ex)
		}}}
		return inst, nil
	}
	w.guard = func(inst *instance, rn *runner, _ counters) []string {
		var bad []string
		for c, name := range rn.classes {
			if rn.stmts[c] == 0 {
				bad = append(bad, fmt.Sprintf("class %s never completed", name))
				continue
			}
			if scanClassTable(c) == "big" && rn.missMin[c] == 0 {
				bad = append(bad, fmt.Sprintf("class %s scanned big without a buffer-pool miss", name))
			}
			if scanClassTable(c) == "hot" && rn.missMax[c] != 0 {
				bad = append(bad, fmt.Sprintf("class %s took %d buffer-pool misses on hot", name, rn.missMax[c]))
			}
		}
		return append(bad, explainGuards(inst.db, seed, big, hot)...)
	}
	w.verify = func(inst *instance, _ []int64) (int64, error) {
		db, err := predator.Open(inst.path, predator.WithDurability("none"))
		if err != nil {
			return 0, err
		}
		defer db.Close()
		for table, want := range map[string]int{"big": bigRows, "hot": hotRows} {
			res, err := db.Exec("SELECT COUNT(*) FROM " + table)
			if err != nil {
				return 0, err
			}
			if n := res.Rows[0][0].Int; n != int64(want) {
				return 0, fmt.Errorf("%s holds %d rows after reopen, want %d", table, n, want)
			}
		}
		return 0, nil
	}
	return w
}

func rewarmHot(ex execFunc) error {
	rows, _, err := ex(`SELECT COUNT(*) FROM hot`)
	if err != nil {
		return err
	}
	if len(rows) != 1 || len(rows[0]) != 1 || rows[0][0].Int != hotRows {
		return fmt.Errorf("hot re-warm counted %v, want %d", rows, hotRows)
	}
	return nil
}

// explainWant is what EXPLAIN must show for each UDF class: the call
// inlined into the plan, run in the embedded VM, or run in an isolated
// executor. A projection does not name its calls, so the batched class
// is checked with EXPLAIN ANALYZE: its projection batched, and the
// executor reported spans.
var explainWant = map[int][]string{
	classInline:   {"lin[inlined]"},
	classVM:       {"psum[JNI"},
	classIsolated: {"psum_iso[IJNI"},
	classBatched:  {"(batched:", "child/invoke"},
	classCallback: {"ptouch_iso[IJNI"},
}

func explainGuards(db *predator.DB, seed int64, big, hot []scanRow) []string {
	var bad []string
	g := newScanGen(seed, 0, big, hot)
	for range scanClassNames {
		st := g.next()
		want, ok := explainWant[st.class]
		if !ok {
			continue
		}
		q := "EXPLAIN " + st.sql
		if st.class == classBatched {
			q = "EXPLAIN ANALYZE " + st.sql
		}
		res, err := db.Exec(q)
		if err != nil {
			bad = append(bad, fmt.Sprintf("%s: %v", q, err))
			continue
		}
		for _, w := range want {
			if !strings.Contains(res.Plan, w) {
				bad = append(bad, fmt.Sprintf("EXPLAIN of class %s lacks %q:\n%s", scanClassNames[st.class], w, res.Plan))
			}
		}
	}
	return bad
}
