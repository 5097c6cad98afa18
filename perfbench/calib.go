package main

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"
)

// The machine this benchmark runs on is shared: other tenants' load
// slows every statement of a run alike, by 10-50%, for minutes at a
// time, and moves process wake-up and fsync latency with it. A run
// therefore also times a fixed reference computation at regular points
// while every session is paused, and reports each class's latency in
// multiples of the reference parts that match what the class waits on
// (workload.norm), each statement against the reference of its own
// moment (pairedNorm). Set-up times are scaled the same way
// (setupSeconds). The raw medians are printed beside them.
//
// The reference has these parts, timed separately:
//   - cpu: sorting and hashing in cache, and loads that miss the
//     last-level cache;
//   - ipc: round trips of a small message to a helper process over
//     pipes, the shape of an isolated UDF's crossing;
//   - disk: an 8 KiB append plus fsync to a file beside the database,
//     the shape of a WAL commit;
//   - bulk, timed around set-ups only: 2 MiB of appends with an fsync
//     every 128 KiB, the shape of a WAL taking a bulk load;
//   - long, timed only for workloads that use it: the cpu part
//     longReps times back to back. A statement of tens of milliseconds
//     gets only its share of a CPU when other tenants' threads compete
//     for it, and the cpu part alone, shorter than a scheduler slice,
//     mostly does not.
//
// None of them touches the program under test, and none allocates, so
// neither the engine's collector nor its write volume reaches it
// through this process's heap.

const calibEvery = 50 * time.Millisecond

// setupRefRuns is how many times the reference runs before each
// set-up and after the last one.
const setupRefRuns = 3

// refPart selects reference parts; a set of several stands for the
// sum of their times.
type refPart int

const (
	refCPU refPart = 1 << iota
	refIPC
	refDisk
	refBulk
	refLong
)

var refPartNames = []string{"cpu", "ipc", "disk", "bulk", "long"}

// longReps is how many times the long part repeats the cpu part.
const longReps = 16

func (p refPart) String() string {
	var names []string
	for i, n := range refPartNames {
		if p&(1<<i) != 0 {
			names = append(names, n)
		}
	}
	return strings.Join(names, "+")
}

// refSample is one timing of the reference, started at at. bulk is
// only timed around set-ups, long only for workloads that use it.
type refSample struct {
	at                         time.Time
	cpu, ipc, disk, bulk, long time.Duration
}

func (s refSample) part(p refPart) time.Duration {
	var d time.Duration
	for i, t := range []time.Duration{s.cpu, s.ipc, s.disk, s.bulk, s.long} {
		if p&(1<<i) != 0 {
			d += t
		}
	}
	return d
}

// refQuiet is the reference's median time on the benchmark's machine
// (2 vCPUs of a shared VM, ext4 on a virtio disk) with no other load.
// setup_s reports set-up times scaled to it.
var refQuiet = refSample{cpu: 1100 * time.Microsecond, ipc: 450 * time.Microsecond,
	disk: 400 * time.Microsecond, bulk: 6500 * time.Microsecond}

// refMedian is the median of part p over samples.
func refMedian(samples []refSample, p refPart) time.Duration {
	ds := make([]time.Duration, len(samples))
	for i, s := range samples {
		ds[i] = s.part(p)
	}
	return percentile(ds, 0.5)
}

// timedStmt is one statement's start and latency.
type timedStmt struct {
	at time.Time
	d  time.Duration
}

// refWindow is how many reference samples around a statement make its
// local reference time.
const refWindow = 5

// pairedNorm is the median, over stmts, of each statement's latency in
// units of part p of the reference timed nearest to it: the median of
// the refWindow samples around the nearest one. Pairing each statement
// with the reference of its own moment cancels load that comes and
// goes within a run. samples are in time order.
func pairedNorm(stmts []timedStmt, samples []refSample, p refPart) float64 {
	if len(samples) == 0 || len(stmts) == 0 {
		return 0
	}
	local := make([]float64, len(samples))
	for k := range samples {
		lo, hi := max(0, k-refWindow/2), min(len(samples), k+refWindow/2+1)
		local[k] = float64(refMedian(samples[lo:hi], p))
	}
	rs := make([]float64, len(stmts))
	for i, st := range stmts {
		k := sort.Search(len(samples), func(j int) bool { return !samples[j].at.Before(st.at) })
		if k == len(samples) || (k > 0 && st.at.Sub(samples[k-1].at) < samples[k].at.Sub(st.at)) {
			k--
		}
		rs[i] = ratio(float64(st.d), local[k])
	}
	return median(rs)
}

const (
	ipcRoundTrips = 16
	ipcMsg        = 64
	diskAppend    = 8 << 10
	diskWrap      = 8 << 20 // the file is truncated at this size, like a checkpointed WAL
	bulkAppends   = 256     // 2 MiB of 8 KiB appends per bulk pass
	bulkSyncEvery = 16      // appends per fsync in a bulk pass
)

// echoEnv makes the benchmark binary run as the reference's helper
// process: it echoes every ipcMsg-byte message on stdin to stdout.
const echoEnv = "PERFBENCH_ECHO"

// runEcho is the helper process's main loop; it ends when stdin closes.
func runEcho() {
	buf := make([]byte, ipcMsg)
	for {
		if _, err := io.ReadFull(os.Stdin, buf); err != nil {
			return
		}
		if _, err := os.Stdout.Write(buf); err != nil {
			return
		}
	}
}

// reference is the fixed computation.
type reference struct {
	ints   []uint64
	buf    []byte
	counts map[uint64]int // cleared, not reallocated, on each run
	// big is mapped outside the Go heap: 8 MiB of live heap would
	// halve how often the collector runs for the engine in this process.
	big  []byte
	sink uint64
	// long is whether run times the long part.
	long bool

	echo    *exec.Cmd
	toEcho  io.WriteCloser
	frEcho  io.ReadCloser
	msg     []byte
	disk    *os.File
	diskOff int64
	bulk    *os.File
}

// newReference starts the helper process and creates the disk part's
// file in dir; long says whether to time the long part. close stops
// and waits for the helper.
func newReference(dir string, long bool) (r *reference, err error) {
	big, err := syscall.Mmap(-1, 0, 8<<20, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("map reference buffer: %w", err)
	}
	for i := range big { // written, so its loads reach real pages
		big[i] = byte(i)
	}
	r = &reference{ints: make([]uint64, 4096), buf: make([]byte, 32<<10), counts: make(map[uint64]int, 512),
		big: big, msg: make([]byte, ipcMsg), long: long}
	defer func() {
		if err != nil {
			r.close()
		}
	}()
	if r.disk, err = os.Create(filepath.Join(dir, "reference.sync")); err != nil {
		return nil, err
	}
	if r.bulk, err = os.Create(filepath.Join(dir, "reference.bulk")); err != nil {
		return nil, err
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self)
	cmd.Env = append(os.Environ(), echoEnv+"=1")
	cmd.Stderr = os.Stderr
	if r.toEcho, err = cmd.StdinPipe(); err != nil {
		return nil, err
	}
	if r.frEcho, err = cmd.StdoutPipe(); err != nil {
		return nil, err
	}
	if err = cmd.Start(); err != nil {
		return nil, fmt.Errorf("start reference helper: %w", err)
	}
	r.echo = cmd
	return r, nil
}

func (r *reference) close() error {
	var errs []error
	if r.echo != nil {
		r.toEcho.Close() // the helper's stdin ends, so it exits
		errs = append(errs, r.echo.Wait())
		r.echo = nil
	}
	for _, f := range []**os.File{&r.disk, &r.bulk} {
		if *f != nil {
			errs = append(errs, (*f).Close())
			*f = nil
		}
	}
	if r.big != nil {
		errs = append(errs, syscall.Munmap(r.big))
		r.big = nil
	}
	return errors.Join(errs...)
}

// compute is the cpu part's computation.
func (r *reference) compute() {
	x := uint64(88172645463325252)
	next := func() uint64 { // xorshift64
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for i := range r.ints {
		r.ints[i] = next()
	}
	slices.Sort(r.ints)
	for i := range r.buf {
		r.buf[i] = byte(r.ints[i%len(r.ints)] >> 3)
	}
	r.sink += uint64(crc32.ChecksumIEEE(r.buf))
	for range 20000 {
		r.sink += uint64(r.big[next()&(uint64(len(r.big))-1)])
	}
	clear(r.counts)
	for _, v := range r.ints[:2000] {
		r.counts[v%512]++
	}
	r.sink += uint64(len(r.counts))
}

// run performs the computation once and times each part.
func (r *reference) run() (refSample, error) {
	s := refSample{at: time.Now()}
	r.compute()
	s.cpu = time.Since(s.at)
	if r.long {
		t0 := time.Now()
		for range longReps {
			r.compute()
		}
		s.long = time.Since(t0)
	}

	t0 := time.Now()
	for i := range ipcRoundTrips {
		r.msg[0] = byte(i)
		if _, err := r.toEcho.Write(r.msg); err != nil {
			return s, err
		}
		if _, err := io.ReadFull(r.frEcho, r.msg); err != nil {
			return s, err
		}
		if r.msg[0] != byte(i) {
			return s, errors.New("reference helper echoed the wrong message")
		}
	}
	s.ipc = time.Since(t0)

	if r.diskOff >= diskWrap {
		if err := r.disk.Truncate(0); err != nil {
			return s, err
		}
		r.diskOff = 0
	}
	t0 = time.Now()
	if _, err := r.disk.WriteAt(r.buf[:diskAppend], r.diskOff); err != nil {
		return s, err
	}
	if err := r.disk.Sync(); err != nil {
		return s, err
	}
	s.disk = time.Since(t0)
	r.diskOff += diskAppend
	return s, nil
}

// runBulk times the bulk part: bulkAppends 8 KiB appends with an
// fsync every bulkSyncEvery, the shape of a WAL taking a bulk load.
func (r *reference) runBulk() (time.Duration, error) {
	if err := r.bulk.Truncate(0); err != nil {
		return 0, err
	}
	t0 := time.Now()
	for i := range bulkAppends {
		if _, err := r.bulk.WriteAt(r.buf[:diskAppend], int64(i)*diskAppend); err != nil {
			return 0, err
		}
		if (i+1)%bulkSyncEvery == 0 {
			if err := r.bulk.Sync(); err != nil {
				return 0, err
			}
		}
	}
	return time.Since(t0), nil
}

// sample runs the reference, bulk part included, n times back to back.
func (r *reference) sample(n int) ([]refSample, error) {
	out := make([]refSample, 0, n)
	for range n {
		s, err := r.run()
		if err != nil {
			return nil, err
		}
		if s.bulk, err = r.runBulk(); err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// calibrateUntil times the reference every calibEvery, each time with
// all sessions paused, until stop is closed.
func (rn *runner) calibrateUntil(stop <-chan struct{}) error {
	tick := time.NewTicker(calibEvery)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return nil
		case <-tick.C:
			rn.sideMu.Lock()
			s, err := rn.ref.run()
			rn.sideMu.Unlock()
			if err != nil {
				return err
			}
			rn.mu.Lock()
			rn.calib = append(rn.calib, s)
			rn.mu.Unlock()
		}
	}
}
