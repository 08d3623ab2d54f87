package main

import (
	"fmt"
	"time"

	"repro/internal/disk"
	"repro/internal/ld"
	"repro/internal/lld"
)

// ldStack is an LLD on a fresh simulated disk, with the disk.Backend and
// ld.Disk wrapped for tracing when the run is traced.
type ldStack struct {
	dsk *disk.Disk
	be  disk.Backend
	l   *lld.LLD
	d   ld.Disk
	tr  *tracer
}

// newLDStack formats and opens LLD with the shipped lld.DefaultOptions()
// on a simulated C3010 of the given capacity.
func newLDStack(capacity int64, tr *tracer) (*ldStack, error) {
	s := &ldStack{dsk: disk.New(disk.DefaultConfig(capacity)), tr: tr}
	s.be = s.dsk
	if tr != nil {
		s.be = &tracedBackend{b: s.dsk, tr: tr}
	}
	if err := lld.Format(s.be, lld.DefaultOptions()); err != nil {
		return nil, fmt.Errorf("format: %w", err)
	}
	if err := s.open(); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *ldStack) open() error {
	l, err := lld.Open(s.be, lld.DefaultOptions())
	if err != nil {
		return fmt.Errorf("open: %w", err)
	}
	s.l, s.d = l, l
	if s.tr != nil {
		s.d = &tracedDisk{d: l, tr: s.tr, layer: "lld"}
	}
	return nil
}

// recovery is what one unclean stop and one-sweep rebuild cost.
type recovery struct {
	vclock time.Duration // virtual time of lld.Open
	wall   time.Duration
	sweep  int64 // segment summaries read
	disk   disk.Stats
}

// crashAndRecover stops LLD uncleanly (the host crashes; the disk keeps
// what reached it) and reopens it, timing the one-sweep recovery.
func (s *ldStack) crashAndRecover() (recovery, error) {
	if err := s.l.Shutdown(false); err != nil {
		return recovery{}, fmt.Errorf("unclean shutdown: %w", err)
	}
	d0, v0, w0 := s.dsk.Stats(), s.dsk.Now(), time.Now()
	if err := s.open(); err != nil {
		return recovery{}, fmt.Errorf("recovery: %w", err)
	}
	r := recovery{vclock: s.dsk.Now() - v0, wall: time.Since(w0), disk: diskDelta(d0, s.dsk.Stats())}
	r.sweep = s.l.Stats().RecoverySweepSegments
	return r, nil
}

// close stops LLD's goroutines; the stack is discarded afterwards.
func (s *ldStack) close() {
	_ = s.l.Shutdown(false) // the stack is thrown away, so nothing needs to be durable
}

// recordShape notes the configuration LLD resolved on the host it runs on.
func recordShape(rep *report, l *lld.LLD) {
	st := l.Stats()
	rep.host["lld_map_shards"] = st.MapShards
	rep.host["lld_segment_lanes"] = st.SegmentLanes
}

func diskDelta(a, b disk.Stats) disk.Stats {
	return disk.Stats{
		Reads: b.Reads - a.Reads, Writes: b.Writes - a.Writes,
		SectorsRead: b.SectorsRead - a.SectorsRead, SectorsWritten: b.SectorsWritten - a.SectorsWritten,
		Seeks:    b.Seeks - a.Seeks,
		SeekTime: b.SeekTime - a.SeekTime, RotationTime: b.RotationTime - a.RotationTime,
		TransferTime: b.TransferTime - a.TransferTime, OverheadTime: b.OverheadTime - a.OverheadTime,
		IdleTime: b.IdleTime - a.IdleTime,
	}
}

func addDisk(a, b disk.Stats) disk.Stats {
	a.Reads += b.Reads
	a.Writes += b.Writes
	a.SectorsRead += b.SectorsRead
	a.SectorsWritten += b.SectorsWritten
	a.Seeks += b.Seeks
	a.SeekTime += b.SeekTime
	a.RotationTime += b.RotationTime
	a.TransferTime += b.TransferTime
	a.OverheadTime += b.OverheadTime
	a.IdleTime += b.IdleTime
	return a
}

// lldDelta is the part of lld.Stats the per-layer metrics read.
type lldDelta struct {
	sealed, partial, cleaned, moved, userBlocks int64
	sealWaits, writerWaits, groupCommits        int64
	hintHits, hintMisses                        int64
}

func lldStatsDelta(a, b lld.Stats) lldDelta {
	return lldDelta{
		sealed: b.SegmentsSealed - a.SegmentsSealed, partial: b.PartialWrites - a.PartialWrites,
		cleaned: b.SegmentsCleaned - a.SegmentsCleaned, moved: b.BlocksMoved - a.BlocksMoved,
		userBlocks: b.BlocksWritten - a.BlocksWritten,
		sealWaits:  b.SealWaits - a.SealWaits, writerWaits: b.WriterWaits - a.WriterWaits,
		groupCommits: b.GroupCommits - a.GroupCommits,
		hintHits:     b.HintHits - a.HintHits, hintMisses: b.HintMisses - a.HintMisses,
	}
}

func (a lldDelta) add(b lldDelta) lldDelta {
	return lldDelta{
		sealed: a.sealed + b.sealed, partial: a.partial + b.partial, cleaned: a.cleaned + b.cleaned,
		moved: a.moved + b.moved, userBlocks: a.userBlocks + b.userBlocks,
		sealWaits: a.sealWaits + b.sealWaits, writerWaits: a.writerWaits + b.writerWaits,
		groupCommits: a.groupCommits + b.groupCommits,
		hintHits:     a.hintHits + b.hintHits, hintMisses: a.hintMisses + b.hintMisses,
	}
}

// tracedDelta brackets lld.Stats around the traced windows of a mix:
// toggle is driveMix's callback, and sum accumulates the windows' deltas.
func (s *ldStack) tracedDelta() (toggle func(on bool), sum *lldDelta) {
	var from lld.Stats
	sum = &lldDelta{}
	toggle = func(on bool) {
		if on {
			from = s.l.Stats()
		} else {
			*sum = sum.add(lldStatsDelta(from, s.l.Stats()))
		}
	}
	return toggle, sum
}

// lldMethods are the LLD methods reported one by one; every other method
// is folded into "other".
var lldMethods = []string{"read", "write", "read_blocks", "flush", "new_block", "delete_list"}

// lldLayer fills the lld.* per-layer metrics. Counts and busy times are
// divided by per, the number of units (windows or repetitions) traced.
func lldLayer(rep *report, tr *tracer, st lldDelta, rec recovery, per float64) {
	var other []string
	for _, m := range tr.methodsOf("lld") {
		if !contains(lldMethods, m) {
			other = append(other, m)
		}
	}
	for _, m := range append(lldMethods, "other") {
		var a spanAgg
		if m == "other" {
			if len(other) > 0 {
				a = tr.sum("", "lld", other...)
			}
		} else {
			a = tr.sum("", "lld", m)
		}
		rep.layer["lld."+m+".calls"] = float64(a.n) / per
		rep.layer["lld."+m+".self_us_mean"] = ratio(float64(a.self)/float64(time.Microsecond), float64(a.n))
		rep.layer["lld."+m+".busy_ms"] = ms(a.total) / per
	}
	rep.layer["lld.segments_sealed"] = float64(st.sealed) / per
	rep.layer["lld.partial_writes"] = float64(st.partial) / per
	rep.layer["lld.segments_cleaned"] = float64(st.cleaned) / per
	rep.layer["lld.cleaner_blocks_moved_per_user_block"] = ratio(float64(st.moved), float64(st.userBlocks))
	rep.layer["lld.seal_waits"] = float64(st.sealWaits) / per
	rep.layer["lld.writer_waits"] = float64(st.writerWaits) / per
	rep.layer["lld.group_commits"] = float64(st.groupCommits) / per
	rep.layer["lld.hint_miss_ratio"] = ratio(float64(st.hintMisses), float64(st.hintHits+st.hintMisses))
	rep.layer["lld.recovery_sweep_segments"] = float64(rec.sweep)
	rep.layer["lld.recovery_wall_ms"] = ms(rec.wall)
}

// diskLayer fills the disk.* totals from the traced Backend calls.
func diskLayer(rep *report, tr *tracer, per float64) {
	r, w := tr.sum("", "disk", "read"), tr.sum("", "disk", "write")
	rep.layer["disk.read_calls"] = float64(r.n) / per
	rep.layer["disk.read_bytes"] = float64(r.bytes) / per
	rep.layer["disk.write_calls"] = float64(w.n) / per
	rep.layer["disk.write_bytes"] = float64(w.bytes) / per
	rep.layer["disk.write_busy_ms"] = ms(w.total) / per
}

// diskPhase fills the disk.<phase>.* virtual-time breakdown of one phase.
func diskPhase(rep *report, phase string, s disk.Stats, per float64) {
	rep.layer["disk."+phase+".vseek_s"] = s.SeekTime.Seconds() / per
	rep.layer["disk."+phase+".vrotation_s"] = s.RotationTime.Seconds() / per
	rep.layer["disk."+phase+".vtransfer_s"] = s.TransferTime.Seconds() / per
	rep.layer["disk."+phase+".voverhead_s"] = s.OverheadTime.Seconds() / per
	rep.layer["disk."+phase+".seeks"] = float64(s.Seeks) / per
}

// kbPerSec converts bytes moved in a virtual interval to KB/s.
func kbPerSec(bytes int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) / 1024 / d.Seconds()
}
