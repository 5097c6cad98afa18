package storage

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync/atomic"
	"time"

	"predator/internal/obs"
)

// Write-ahead logging. The WAL is a physical redo log: whole-page
// after-images plus meta-page updates, CRC-framed so a torn tail is
// detected and ignored at replay. The ordering invariant is the
// classic one — a page's log record is durable before the page itself
// is written to the data file — enforced by DiskManager, which flushes
// and fsyncs the WAL ahead of every data-file write. Recovery replays
// the valid record prefix onto the data file at open; checkpoints
// (flush-all + data fsync) archive the log into a segment (when
// archiving is on) and truncate it.
//
// Record framing (little-endian). The record's LSN is its *global*
// byte offset: the offsets of every log generation concatenate into
// one monotone stream, so an archived history addresses every record
// a database ever logged (the base of the current generation is
// recovered from the archive at open).
//
//	type(1) | pageID(4) | payloadLen(4) | payload | crc32c(4)
//
// where the CRC covers everything before it. Record types:
//
//	walPageImage — payload is the full PageSize after-image of pageID
//	walMeta      — payload is numPages(4) | freeHead(4)
//	walCommit    — empty payload; marks a statement-boundary commit.
//	               Redo ignores it; point-in-time recovery replays up
//	               to (exclusive) a chosen post-commit LSN.
const (
	walPageImage byte = 1
	walMeta      byte = 2
	walCommit    byte = 3

	walHeaderSize  = 9 // type + pageID + payloadLen
	walTrailerSize = 4 // crc32c
)

// Process-wide WAL metrics.
var (
	obsWALAppends        = obs.Default.Counter("predator_wal_appends_total")
	obsWALBytes          = obs.Default.Counter("predator_wal_bytes_total")
	obsWALFsyncs         = obs.Default.Counter("predator_wal_fsyncs_total")
	obsWALFsyncSeconds   = obs.Default.Histogram("predator_wal_fsync_seconds")
	obsWALCheckpoints    = obs.Default.Counter("predator_wal_checkpoints_total")
	obsWALRecoveries     = obs.Default.Counter("predator_wal_recoveries_total")
	obsWALRecoveredRecs  = obs.Default.Counter("predator_wal_recovered_records_total")
	obsWALRecoveredBytes = obs.Default.Counter("predator_wal_recovered_bytes_total")
)

var walCRC = crc32.MakeTable(crc32.Castagnoli)

// WALStats reports cumulative write-ahead-log activity for one disk
// manager (process-wide equivalents live in the obs registry).
type WALStats struct {
	Appends uint64
	Bytes   uint64
	Fsyncs  uint64
	// FsyncNanos is the cumulative wall time spent inside fsync calls;
	// the engine's query store diffs it around a statement to attribute
	// commit-latency waits.
	FsyncNanos uint64
}

// walCounters holds WALStats as atomics, shared by every WAL generation
// of one DiskManager (so they survive a rebuild). The log updates them
// with d.mu held; WALStats loads them without it, so a statement that
// reads the counters never waits behind another session's fsync.
type walCounters struct {
	appends, bytes, fsyncs, fsyncNanos atomic.Uint64
}

func (c *walCounters) snapshot() WALStats {
	return WALStats{
		Appends:    c.appends.Load(),
		Bytes:      c.bytes.Load(),
		Fsyncs:     c.fsyncs.Load(),
		FsyncNanos: c.fsyncNanos.Load(),
	}
}

// wal is the append side of the write-ahead log. It is owned by a
// DiskManager and only ever called with d.mu held, so it needs no lock
// of its own.
type wal struct {
	f      *os.File
	w      *bufio.Writer
	base   int64 // global LSN of the log's first byte (archived history before it)
	size   int64 // logical end offset within this generation (includes buffered records)
	synced int64 // offset known durable on stable storage
	marked int64 // offset as of the last commit-mark append (or reset)
	err    error // sticky: first append/flush/fsync failure poisons the log
	stats  *walCounters
}

// openWAL creates (truncating) the log file at path. Any previous log
// contents have already been consumed by recovery (and, when archiving
// is on, preserved as a segment). base is the global LSN the new
// generation starts at.
func openWAL(path string, base int64, stats *walCounters) (*wal, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open wal %s: %w", path, err)
	}
	return &wal{f: f, w: bufio.NewWriterSize(f, 1<<16), base: base, stats: stats}, nil
}

// encodeWALRecord frames one record into a fresh buffer.
func encodeWALRecord(typ byte, page PageID, payload []byte) []byte {
	rec := make([]byte, walHeaderSize+len(payload)+walTrailerSize)
	rec[0] = typ
	binary.LittleEndian.PutUint32(rec[1:], uint32(page))
	binary.LittleEndian.PutUint32(rec[5:], uint32(len(payload)))
	copy(rec[walHeaderSize:], payload)
	crc := crc32.Checksum(rec[:walHeaderSize+len(payload)], walCRC)
	binary.LittleEndian.PutUint32(rec[walHeaderSize+len(payload):], crc)
	return rec
}

// append frames and buffers one record. The record is not durable
// until sync; callers enforce WAL-before-data ordering. A failed
// append poisons the log: later appends, commits and checkpoints fail
// fast on the sticky error rather than risking a silent durability
// hole (the fsyncgate rule applies to the whole buffered pipeline).
func (l *wal) append(typ byte, page PageID, payload []byte) error {
	if l.err != nil {
		return l.err
	}
	rec := encodeWALRecord(typ, page, payload)
	fireFault("walwrite", func() {
		// Torn log write: half the record reaches the file, then the
		// process dies. Replay must discard the fragment.
		l.w.Flush()
		l.f.Write(rec[:len(rec)/2])
	})
	if err := fireFaultIO("walwrite", "eio", "enospc"); err != nil {
		l.err = fmt.Errorf("storage: wal append: %w", err)
		return l.err
	}
	if _, err := l.w.Write(rec); err != nil {
		l.err = fmt.Errorf("storage: wal append: %w", err)
		return l.err
	}
	l.size += int64(len(rec))
	l.stats.appends.Add(1)
	l.stats.bytes.Add(uint64(len(rec)))
	obsWALAppends.Inc()
	obsWALBytes.Add(int64(len(rec)))
	return nil
}

// appendCommitMark logs a statement-boundary record if anything has
// been appended since the last mark. The post-mark global LSN is the
// exact point-in-time-recovery target for the statement.
func (l *wal) appendCommitMark() error {
	if l.size == l.marked {
		return nil
	}
	if err := l.append(walCommit, 0, nil); err != nil {
		return err
	}
	l.marked = l.size
	return nil
}

// dirty reports whether records are buffered or unfsynced.
func (l *wal) dirty() bool { return l.size > l.synced }

// sync makes every appended record durable (flush + fsync), observing
// the fsync latency histogram. No-op when already durable. A failed
// fsync is sticky: the kernel may have dropped the very pages it
// failed to write (fsyncgate), so no later sync may report success for
// records appended before the failure.
func (l *wal) sync() error {
	if l.err != nil {
		return l.err
	}
	if !l.dirty() {
		return nil
	}
	if err := l.w.Flush(); err != nil {
		l.err = fmt.Errorf("storage: wal flush: %w", err)
		return l.err
	}
	if err := fireFaultIO("walwrite", "fsyncfail"); err != nil {
		l.err = fmt.Errorf("storage: wal fsync: %w", err)
		return l.err
	}
	start := time.Now()
	if err := l.f.Sync(); err != nil {
		l.err = fmt.Errorf("storage: wal fsync: %w", err)
		return l.err
	}
	elapsed := time.Since(start)
	obsWALFsyncSeconds.Observe(elapsed)
	obsWALFsyncs.Inc()
	l.stats.fsyncs.Add(1)
	l.stats.fsyncNanos.Add(uint64(elapsed))
	l.synced = l.size
	return nil
}

// reset truncates the log after a checkpoint: every logged change is
// on the data file, so this generation's history is no longer needed
// in the live log (the archive keeps it when archiving is on). The
// global stream continues: the next generation's base advances by the
// truncated size.
func (l *wal) reset() error {
	if l.err != nil {
		return l.err
	}
	l.w.Reset(l.f) // discard buffered records; they describe flushed pages
	if err := l.f.Truncate(0); err != nil {
		l.err = fmt.Errorf("storage: wal truncate: %w", err)
		return l.err
	}
	if _, err := l.f.Seek(0, 0); err != nil {
		l.err = fmt.Errorf("storage: wal seek: %w", err)
		return l.err
	}
	if err := l.f.Sync(); err != nil {
		l.err = fmt.Errorf("storage: wal truncate fsync: %w", err)
		return l.err
	}
	l.base += l.size
	l.size = 0
	l.synced = 0
	l.marked = 0
	return nil
}

// close flushes, fsyncs and releases the log file.
func (l *wal) close() error {
	syncErr := l.sync()
	if err := l.f.Close(); err != nil && syncErr == nil {
		return err
	}
	return syncErr
}

// walRecord is one decoded log record handed to scanWAL's callback.
type walRecord struct {
	typ     byte
	page    PageID
	payload []byte
	off     int // byte offset of the record within the scanned buffer
}

// scanWAL walks the valid record prefix of log bytes, invoking fn per
// record. It returns the length of the valid prefix and whether the
// log ended in a torn/corrupt record (expected after a mid-append
// crash). A non-nil error from fn aborts the scan.
func scanWAL(log []byte, fn func(rec walRecord) error) (valid int64, torn bool, err error) {
	off := 0
	for {
		if off+walHeaderSize+walTrailerSize > len(log) {
			return int64(off), off < len(log), nil
		}
		typ := log[off]
		page := PageID(binary.LittleEndian.Uint32(log[off+1:]))
		plen := int(binary.LittleEndian.Uint32(log[off+5:]))
		end := off + walHeaderSize + plen + walTrailerSize
		if plen < 0 || plen > PageSize || end > len(log) {
			return int64(off), true, nil
		}
		want := binary.LittleEndian.Uint32(log[end-walTrailerSize:])
		if crc32.Checksum(log[off:end-walTrailerSize], walCRC) != want {
			return int64(off), true, nil
		}
		payload := log[off+walHeaderSize : off+walHeaderSize+plen]
		switch typ {
		case walPageImage:
			if plen != PageSize {
				return int64(off), true, nil
			}
		case walMeta:
			if plen != 8 {
				return int64(off), true, nil
			}
		case walCommit:
			if plen != 0 {
				return int64(off), true, nil
			}
		default:
			return int64(off), true, nil
		}
		if fn != nil {
			if err := fn(walRecord{typ: typ, page: page, payload: payload, off: off}); err != nil {
				return int64(off), false, err
			}
		}
		off = end
	}
}

// RecoveryInfo describes the redo pass that ran (if any) when the
// database was opened.
type RecoveryInfo struct {
	// Ran is true when a non-empty WAL was found and replayed.
	Ran bool
	// Records is the number of valid records applied.
	Records int
	// Bytes is the length of the valid record prefix.
	Bytes int64
	// TornTail is true when the log ended in a torn/corrupt record
	// (expected after a mid-append crash; the fragment is discarded).
	TornTail bool
}

// replayWAL applies the valid prefix of the log at walPath onto data
// file f: page images are written in order (framed and checksummed)
// and the last meta record, if any, rewrites the meta page. Torn or
// corrupt records end the replay — they can only be the unsynced tail.
//
// When archiveDir is non-empty the valid prefix is preserved as an
// archive segment before the log is truncated, so the point-in-time
// history stays gapless across crashes. base is the end of the
// archived history; the returned nextBase is the global LSN the next
// log generation starts at. Two cases: normally the crashed
// generation began at base and is archived there; but if the crash
// hit a checkpoint's window between archiving and truncation, the
// newest segment already holds exactly these bytes — then the
// generation began at base-valid, nothing new is archived, and the
// stream does not advance again.
func replayWAL(walPath string, f *os.File, archiveDir string, base int64) (RecoveryInfo, int64, error) {
	var info RecoveryInfo
	log, err := os.ReadFile(walPath)
	if err != nil {
		if os.IsNotExist(err) {
			return info, base, nil
		}
		return info, base, fmt.Errorf("storage: read wal %s: %w", walPath, err)
	}
	if len(log) == 0 {
		return info, base, nil
	}
	info.Ran = true

	// Establish this generation's true start before stamping frames.
	valid, torn, _ := scanWAL(log, nil)
	genBase, nextBase := base, base+valid
	alreadyArchived := false
	if archiveDir != "" && valid > 0 && lastSegmentMatches(archiveDir, log[:valid]) {
		alreadyArchived = true
		genBase, nextBase = base-valid, base
	}

	var metaSeen bool
	var numPages, freeHead uint32
	_, _, err = scanWAL(log, func(rec walRecord) error {
		switch rec.typ {
		case walPageImage:
			if err := writeFrameTo(f, rec.page, rec.payload, uint64(genBase)+uint64(rec.off)); err != nil {
				return fmt.Errorf("storage: recovery: redo page %d: %w", rec.page, err)
			}
		case walMeta:
			metaSeen = true
			numPages = binary.LittleEndian.Uint32(rec.payload[0:])
			freeHead = binary.LittleEndian.Uint32(rec.payload[4:])
		}
		info.Records++
		return nil
	})
	if err != nil {
		return info, base, err
	}
	info.TornTail = torn
	info.Bytes = valid
	if metaSeen {
		if err := writeFrameTo(f, 0, encodeMetaPayload(numPages, freeHead), uint64(genBase)+uint64(valid)); err != nil {
			return info, base, fmt.Errorf("storage: recovery: redo meta page: %w", err)
		}
	}
	if err := healFramesAfterReplay(f); err != nil {
		return info, base, err
	}
	if err := f.Sync(); err != nil {
		return info, base, fmt.Errorf("storage: recovery: data fsync: %w", err)
	}
	if archiveDir != "" && valid > 0 && !alreadyArchived {
		// Preserve the replayed prefix in the archive before discarding
		// it, so restores spanning this crash see a contiguous history.
		if _, err := writeSegment(archiveDir, log[:valid], genBase); err != nil {
			return info, base, fmt.Errorf("storage: recovery: archive replayed log: %w", err)
		}
	}
	// The log is fully applied; truncate so it is not replayed twice.
	if err := os.Truncate(walPath, 0); err != nil {
		return info, base, fmt.Errorf("storage: recovery: truncate wal: %w", err)
	}
	obsWALRecoveries.Inc()
	obsWALRecoveredRecs.Add(int64(info.Records))
	obsWALRecoveredBytes.Add(info.Bytes)
	return info, nextBase, nil
}

// healFramesAfterReplay stamps valid empty frames over pages that the
// meta page accounts for but that were never durably written — a crash
// between the file extension and its first page write leaves either a
// short file or an all-zero hole. Genuinely torn pages (non-zero, bad
// CRC) are left alone so reads surface ErrChecksum.
func healFramesAfterReplay(f *os.File) error {
	var meta [DiskFrameSize]byte
	if n, err := f.ReadAt(meta[:], 0); n < DiskFrameSize || !verifyFrame(meta[:]) {
		// No readable meta page: nothing to heal against (the open path
		// will report the real error).
		_ = err
		return nil
	}
	numPages := binary.LittleEndian.Uint32(meta[frameHeaderSize+8:])
	var frame [DiskFrameSize]byte
	zero := make([]byte, PageSize)
	for id := PageID(1); uint32(id) < numPages; id++ {
		n, err := f.ReadAt(frame[:], int64(id)*DiskFrameSize)
		if err != nil && err != io.EOF {
			return fmt.Errorf("storage: recovery: heal read page %d: %w", id, err)
		}
		if n == DiskFrameSize && verifyFrame(frame[:]) {
			continue
		}
		short := n < DiskFrameSize
		allZero := true
		for _, b := range frame[:n] {
			if b != 0 {
				allZero = false
				break
			}
		}
		if short || allZero {
			if err := writeFrameTo(f, id, zero, 0); err != nil {
				return fmt.Errorf("storage: recovery: heal page %d: %w", id, err)
			}
		}
	}
	return nil
}

// encodeMetaPayload renders the meta page contents (the framing CRC is
// added by the frame writer).
func encodeMetaPayload(numPages, freeHead uint32) []byte {
	payload := make([]byte, PageSize)
	binary.LittleEndian.PutUint32(payload[0:], metaMagic)
	binary.LittleEndian.PutUint32(payload[4:], metaVersion)
	binary.LittleEndian.PutUint32(payload[8:], numPages)
	binary.LittleEndian.PutUint32(payload[12:], freeHead)
	return payload
}
