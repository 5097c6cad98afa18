package storage

import (
	"bytes"
	"path/filepath"
	"testing"
	"time"
)

// TestWALStatsConcurrentWithCommit reads the WAL counters while another
// goroutine commits (run under -race). The counters only grow, and a
// reader never waits for the manager lock that Commit holds across its
// fsync.
func TestWALStatsConcurrentWithCommit(t *testing.T) {
	d := openDurable(t, filepath.Join(t.TempDir(), "stats.db"))
	defer d.Close()
	id, err := d.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	const commits = 50
	done := make(chan struct{})
	go func() {
		defer close(done)
		page := make([]byte, PageSize)
		for i := 0; i < commits; i++ {
			page[0] = byte(i)
			if err := d.LogPageImage(id, page); err != nil {
				t.Error(err)
				return
			}
			if err := d.Write(id, page); err != nil {
				t.Error(err)
				return
			}
			if err := d.Commit(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var last WALStats
	for finished := false; !finished; {
		select {
		case <-done:
			finished = true
		default:
		}
		s := d.WALStats()
		if s.Appends < last.Appends || s.Bytes < last.Bytes || s.Fsyncs < last.Fsyncs || s.FsyncNanos < last.FsyncNanos {
			t.Fatalf("WAL counters went backwards: %+v after %+v", s, last)
		}
		last = s
	}
	if last.Fsyncs < commits {
		t.Errorf("Fsyncs = %d after %d commits", last.Fsyncs, commits)
	}

	// With the manager lock held (as during a commit's fsync), the
	// counters are still readable.
	d.mu.Lock()
	read := make(chan WALStats, 1)
	go func() { read <- d.WALStats() }()
	select {
	case s := <-read:
		if s != last {
			t.Errorf("WALStats under the lock = %+v, want %+v", s, last)
		}
	case <-time.After(5 * time.Second):
		t.Error("WALStats waited for the manager lock")
	}
	d.mu.Unlock()
}

// TestWALStatsSurviveRebuild: the counters are shared by every WAL
// generation, so rebuilding the log after ENOSPC keeps them, and later
// activity adds to them.
func TestWALStatsSurviveRebuild(t *testing.T) {
	t.Cleanup(func() { ArmFault("") })
	d := openDurable(t, filepath.Join(t.TempDir(), "rebuild-stats.db"))
	defer d.Close()
	id, err := d.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	logAndWrite(t, d, id, 0x0A)
	ArmFault("walwrite:enospc")
	dirty := bytes.Repeat([]byte{0x0B}, PageSize)
	if err := d.LogPageImage(id, dirty); !IsDiskFull(err) {
		t.Fatalf("append under enospc: got %v", err)
	}
	ArmFault("")
	before := d.WALStats()
	if before.Appends == 0 || before.Fsyncs == 0 {
		t.Fatalf("no WAL activity before the rebuild: %+v", before)
	}
	if err := d.RebuildWAL(map[PageID][]byte{id: dirty}); err != nil {
		t.Fatalf("RebuildWAL: %v", err)
	}
	if got := d.WALStats(); got != before {
		t.Fatalf("WALStats after rebuild = %+v, want %+v", got, before)
	}
	logAndWrite(t, d, id, 0x0C)
	after := d.WALStats()
	if after.Appends <= before.Appends || after.Fsyncs <= before.Fsyncs {
		t.Errorf("commit after rebuild not counted: %+v, before %+v", after, before)
	}
}
