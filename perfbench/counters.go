package main

import (
	"predator/internal/core"
	"predator/internal/engine"
	"predator/internal/obs"
	"predator/internal/storage"
)

// counters is a snapshot of the counters the program already exports,
// read from the benchmark's side. Per-layer ratios come from deltas of
// two snapshots.
type counters struct {
	wireOut       int64 // bytes written to wire connections (both ends of a loopback session)
	crossIsolated int64 // process crossings of isolated UDFs (IC++ + IJNI)
	crossJNI      int64 // calls into the embedded VM (one "crossing" per call)
	faults        int64 // classified isolated-UDF failures
	fleetOpens    int64
	fleetReuses   int64
	fleetWarm     int64
	fleetRestarts int64
	checkpoints   int64
	touches       int64 // callbacks served (cb_touch)
	wal           storage.WALStats
	pool          storage.BufferStats
	disk          storage.DiskStats
}

// counterSet holds the resolved registry handles.
type counterSet struct {
	eng                                  *engine.Engine
	wireOut, ic, ijni, jni               *obs.Counter
	opens, reuses, warm, restarts, ckpts *obs.Counter
	faults                               []*obs.Counter
}

func newCounterSet(eng *engine.Engine) *counterSet {
	c := obs.Default.Counter
	cs := &counterSet{
		eng:      eng,
		wireOut:  c("predator_wire_bytes_out_total"),
		ic:       c("predator_udf_crossings_total", "design", core.DesignNativeIsolated.String()),
		ijni:     c("predator_udf_crossings_total", "design", core.DesignVMIsolated.String()),
		jni:      c("predator_udf_crossings_total", "design", core.DesignVMIntegrated.String()),
		opens:    c("predator_fleet_stream_opens_total"),
		reuses:   c("predator_fleet_stream_reuses_total"),
		warm:     c("predator_fleet_warm_hits_total"),
		restarts: c("predator_fleet_restarts_total"),
		ckpts:    c("predator_wal_checkpoints_total"),
	}
	for fc := core.FaultClass(1); fc < 64; fc++ {
		if name := fc.String(); name != "none" {
			cs.faults = append(cs.faults, c("predator_isolate_faults_total", "class", name))
		}
	}
	return cs
}

func (cs *counterSet) read() counters {
	var faults int64
	for _, f := range cs.faults {
		faults += f.Value()
	}
	return counters{
		wireOut:       cs.wireOut.Value(),
		crossIsolated: cs.ic.Value() + cs.ijni.Value(),
		crossJNI:      cs.jni.Value(),
		faults:        faults,
		fleetOpens:    cs.opens.Value(),
		fleetReuses:   cs.reuses.Value(),
		fleetWarm:     cs.warm.Value(),
		fleetRestarts: cs.restarts.Value(),
		checkpoints:   cs.ckpts.Value(),
		touches:       cs.eng.Objects().Stats().Touches,
		wal:           cs.eng.WALStats(),
		pool:          cs.eng.BufferStats(),
		disk:          cs.eng.DiskStats(),
	}
}

// sub returns a - b field by field.
func (a counters) sub(b counters) counters {
	return counters{
		wireOut:       a.wireOut - b.wireOut,
		crossIsolated: a.crossIsolated - b.crossIsolated,
		crossJNI:      a.crossJNI - b.crossJNI,
		faults:        a.faults - b.faults,
		fleetOpens:    a.fleetOpens - b.fleetOpens,
		fleetReuses:   a.fleetReuses - b.fleetReuses,
		fleetWarm:     a.fleetWarm - b.fleetWarm,
		fleetRestarts: a.fleetRestarts - b.fleetRestarts,
		checkpoints:   a.checkpoints - b.checkpoints,
		touches:       a.touches - b.touches,
		wal: storage.WALStats{
			Appends:    a.wal.Appends - b.wal.Appends,
			Bytes:      a.wal.Bytes - b.wal.Bytes,
			Fsyncs:     a.wal.Fsyncs - b.wal.Fsyncs,
			FsyncNanos: a.wal.FsyncNanos - b.wal.FsyncNanos,
		},
		pool: storage.BufferStats{
			Hits:      a.pool.Hits - b.pool.Hits,
			Misses:    a.pool.Misses - b.pool.Misses,
			Evictions: a.pool.Evictions - b.pool.Evictions,
		},
		disk: storage.DiskStats{
			Reads:  a.disk.Reads - b.disk.Reads,
			Writes: a.disk.Writes - b.disk.Writes,
			Allocs: a.disk.Allocs - b.disk.Allocs,
		},
	}
}

// add returns a + b field by field.
func (a counters) add(b counters) counters {
	var zero counters
	return a.sub(zero.sub(b))
}
