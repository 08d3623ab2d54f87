package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/disk"
	"repro/internal/ld"
	"repro/internal/minixfs"
	"repro/internal/vfs"
)

// paperConfig sizes the paper-minix workload. The defaults are the paper's
// §4 setup at full scale, the same as harness.Table4 and harness.Table5 at
// Scale 1 for the MINIX LLD row.
type paperConfig struct {
	partition int64            // simulated C3010 partition
	files     int              // Table 4: 1-KB files created, read and deleted
	largeFile int64            // Table 5: the large file, written and read in 8-KB chunks
	cache     int              // MINIX buffer cache
	damage    func(*disk.Disk) // self-test hook, run before the remount
}

var paperDefault = paperConfig{
	partition: 400 << 20, files: 10000, largeFile: 80 << 20, cache: 6144 * 1024,
}

const (
	smallFileBytes = 1024
	chunkBytes     = 8192
)

// paperPhases are the timed phases, in the order they run.
var paperPhases = []string{"create", "read", "delete", "seq_write", "seq_read", "rand_write", "rand_read", "reread"}

// minixStack is MINIX LLD: minixfs with per-file LD lists over LLD.
type minixStack struct {
	*ldStack
	fs *minixfs.FS
	v  vfs.FileSystem // fs, wrapped when traced
}

func (s *minixStack) ldConfig() minixfs.LDConfig {
	return minixfs.LDConfig{
		PerFileLists: true,
		Hints:        ld.ListHints{Cluster: true},
		Now:          func() uint32 { return uint32(s.dsk.Now().Seconds()) },
	}
}

// newMinixStack builds what harness.BuildMinixLLD builds for the MINIX LLD
// rows, with the layers wrapped for tracing when tr is set.
func newMinixStack(pc paperConfig, tr *tracer) (*minixStack, error) {
	st, err := newLDStack(pc.partition, tr)
	if err != nil {
		return nil, err
	}
	s := &minixStack{ldStack: st}
	be, err := minixfs.FormatLD(st.d, 4096, s.ldConfig())
	if err != nil {
		return nil, fmt.Errorf("minixfs format: %w", err)
	}
	if s.fs, err = minixfs.Mkfs(be, minixfs.Config{BlockSize: 4096, NInodes: 16384, CacheBytes: pc.cache}); err != nil {
		return nil, fmt.Errorf("mkfs: %w", err)
	}
	s.mount(tr)
	return s, nil
}

func (s *minixStack) mount(tr *tracer) {
	s.v = s.fs
	if tr != nil {
		s.v = &tracedFS{fs: s.fs, tr: tr}
	}
}

// paperRep is one repetition: Table 4's stack, then Table 5's.
type paperRep struct {
	setups    []float64
	vclock    map[string]time.Duration
	disk      map[string]disk.Stats
	cache     map[string][2]int64 // buffer-cache hits and misses per phase
	lat       [numOps][]time.Duration
	calls     int64
	wall      time.Duration // wall time of the timed phases
	userBytes int64         // bytes passed to WriteAt
	media     int64         // bytes the timed phases wrote to the disk
	lld       lldDelta
	rec       recovery
}

func runPaper(cfg runConfig) (*report, error) { return paper(cfg, paperDefault) }

func paper(cfg runConfig, pc paperConfig) (*report, error) {
	// Each stack holds a 400-MB disk image. Every set-up collects the
	// previous stack first, and the soft limit keeps garbage from piling up
	// on top of the live one.
	defer debug.SetMemoryLimit(debug.SetMemoryLimit(768 << 20))
	rep := newReport()
	minReps := 1
	if cfg.tr != nil {
		minReps = 2 // one untraced and one traced repetition at least
	}
	// A first, untimed repetition grows the heap and faults in its pages;
	// its checks still count. Without it the first measured repetition
	// ran markedly slower than the rest (about twice the Sync time).
	if _, err := paperOnce(cfg.seed, pc, nil, rep); err != nil {
		return nil, err
	}
	var reps []*paperRep
	start := time.Now()
	for i := 0; i < minReps || time.Since(start) < cfg.seconds; i++ {
		// In a traced run, odd repetitions are traced and even ones are
		// not; the two sides' phase wall times give the tracing overhead.
		var tr *tracer
		if cfg.tr != nil && i%2 == 1 {
			tr = cfg.tr
		}
		r, err := paperOnce(cfg.seed, pc, tr, rep)
		if err != nil {
			return nil, err
		}
		reps = append(reps, r)
	}

	var setups []float64
	perRep := map[string][]float64{}
	add := func(k string, v float64) { perRep[k] = append(perRep[k], v) }
	for _, r := range reps {
		setups = append(setups, r.setups...)
		add("ops_per_s", float64(r.calls)/r.wall.Seconds())
		add("read_p50_us", quantile(r.lat[opRead], 0.50))
		add("write_p50_us", quantile(r.lat[opWrite], 0.50))
		// A repetition makes four Sync calls of different sizes; the mean
		// of the middle two is steadier than either.
		var syncs []float64
		for _, d := range r.lat[opFlush] {
			syncs = append(syncs, float64(d)/float64(time.Microsecond))
		}
		add("flush_p50_us", median(syncs))
		add("write_amp", ratio(float64(r.media), float64(r.userBytes)))
		add("vclock_seq_write_kb_per_s", kbPerSec(pc.largeFile, r.vclock["seq_write"]))
		add("vclock_seq_read_kb_per_s", kbPerSec(pc.largeFile, r.vclock["seq_read"]))
		add("vclock_reread_kb_per_s", kbPerSec(pc.largeFile, r.vclock["reread"]))
		add("vclock_recovery_s", r.rec.vclock.Seconds())
		add("vclock_create_files_per_s", float64(pc.files)/r.vclock["create"].Seconds())
		add("vclock_read_files_per_s", float64(pc.files)/r.vclock["read"].Seconds())
		add("vclock_delete_files_per_s", float64(pc.files)/r.vclock["delete"].Seconds())
	}
	// The Table 4 rates are per-layer metrics; paperLayers reads them here.
	rep.e2e["setup_s"] = sample{median(setups), len(setups)}
	for k, vs := range perRep {
		rep.e2e[k] = sample{median(vs), len(vs)}
	}
	// Sample counts of the latency metrics are per repetition.
	last := reps[len(reps)-1]
	for k, op := range map[string]int{"read_p50_us": opRead, "write_p50_us": opWrite, "flush_p50_us": opFlush} {
		rep.e2e[k] = sample{rep.e2e[k].v, len(last.lat[op])}
	}

	if cfg.tr != nil {
		paperLayers(rep, cfg.tr, reps)
	}
	return rep, nil
}

// paperLayers fills the per-layer metrics of a traced paper-minix run.
// Span-derived totals are per traced repetition; virtual-clock breakdowns
// are per repetition over all of them (tracing does not move the virtual
// clock).
func paperLayers(rep *report, tr *tracer, reps []*paperRep) {
	var untraced, traced []float64
	var st lldDelta
	var rec recovery
	var readTail, writeTail []float64
	for i, r := range reps {
		if i%2 == 1 {
			traced = append(traced, r.wall.Seconds())
			st = st.add(r.lld)
			rec = r.rec
		} else {
			untraced = append(untraced, r.wall.Seconds())
			readTail = append(readTail, quantile(r.lat[opRead], 0.99))
			writeTail = append(writeTail, quantile(r.lat[opWrite], 0.99))
		}
	}
	rep.layer["client.read_p99_us"] = median(readTail)
	rep.layer["client.write_p99_us"] = median(writeTail)
	per := float64(len(traced))
	rep.layer["trace.overhead_pct"] = (ratio(median(traced), median(untraced)) - 1) * 100
	lldLayer(rep, tr, st, rec, per)
	diskLayer(rep, tr, per)
	n := float64(len(reps))
	for _, p := range append(paperPhases, "recovery") {
		var ds disk.Stats
		var hm [2]int64
		for _, r := range reps {
			ds = addDisk(ds, r.disk[p])
			hm[0] += r.cache[p][0]
			hm[1] += r.cache[p][1]
		}
		diskPhase(rep, p, ds, n)
		if p == "recovery" {
			continue
		}
		v, l := tr.sum(p, "vfs"), tr.sum(p, "lld")
		rep.layer["minixfs."+p+".self_ms"] = ms(v.self) / per
		rep.layer["minixfs."+p+".ld_calls_per_op"] = ratio(float64(l.n), float64(v.n))
		rep.layer["minixfs."+p+".cache_hit_ratio"] = ratio(float64(hm[0]), float64(hm[0]+hm[1]))
	}
	for _, p := range []string{"create", "read", "delete"} {
		rep.layer["minixfs."+p+".vclock_files_per_s"] = rep.e2e["vclock_"+p+"_files_per_s"].v
	}
}

// paperOnce runs one repetition; check failures are counted in rep.
func paperOnce(seed int64, pc paperConfig, tr *tracer, rep *report) (*paperRep, error) {
	r := &paperRep{vclock: map[string]time.Duration{}, disk: map[string]disk.Stats{}, cache: map[string][2]int64{}}
	useed := uint64(seed)

	build := func() (*minixStack, error) {
		runtime.GC()
		w0 := time.Now()
		s, err := newMinixStack(pc, tr)
		if err != nil {
			return nil, err
		}
		r.setups = append(r.setups, time.Since(w0).Seconds())
		recordShape(rep, s.l)
		return s, nil
	}
	// phase times work on the virtual clock after dropping the caches, as
	// workload.SmallFile and workload.LargeFile do.
	phase := func(s *minixStack, name string, work func() error) error {
		if err := s.fs.DropCaches(); err != nil {
			return err
		}
		d0, f0, v0, w0 := s.dsk.Stats(), s.fs.Stats(), s.dsk.Now(), time.Now()
		if tr != nil {
			tr.setPhase(name)
			tr.on.Store(true)
		}
		err := work()
		if tr != nil {
			tr.on.Store(false)
		}
		r.wall += time.Since(w0)
		r.vclock[name] = s.dsk.Now() - v0
		r.disk[name] = diskDelta(d0, s.dsk.Stats())
		r.media += r.disk[name].SectorsWritten * int64(s.dsk.SectorSize())
		f1 := s.fs.Stats()
		r.cache[name] = [2]int64{f1.CacheHits - f0.CacheHits, f1.CacheMisses - f0.CacheMisses}
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if r.vclock[name] <= 0 {
			return fmt.Errorf("%s: phase took no virtual time", name)
		}
		return nil
	}
	// call times one vfs call; kind is the latency class or -1.
	call := func(kind int, f func() error) error {
		t0 := time.Now()
		err := f()
		if kind >= 0 {
			r.lat[kind] = append(r.lat[kind], time.Since(t0))
		}
		r.calls++
		return err
	}
	check := func(what string, p []byte, n int, err error, key, version uint64) {
		rep.attempted++
		if err == nil && n != len(p) {
			err = fmt.Errorf("short read of %d bytes", n)
		}
		if err == nil {
			err = checkPayload(p, key, version, useed)
		}
		if err != nil {
			rep.fail("%s: %v", what, err)
		}
	}

	// Table 4's stack: small files created, read back and deleted.
	s, err := build()
	if err != nil {
		return nil, err
	}
	l0 := s.l.Stats()
	small := make([]byte, smallFileBytes)
	name := func(i int) string { return fmt.Sprintf("/sf-%06d", i) }
	err = phase(s, "create", func() error {
		for i := 0; i < pc.files; i++ {
			var f vfs.File
			if err := call(-1, func() (err error) { f, err = s.v.Create(name(i)); return }); err != nil {
				return err
			}
			fillPayload(small, uint64(i), 1, useed)
			r.userBytes += int64(len(small))
			if err := call(opWrite, func() error { _, err := f.WriteAt(small, 0); return err }); err != nil {
				return err
			}
			if err := call(-1, f.Close); err != nil {
				return err
			}
		}
		return call(opFlush, s.v.Sync)
	})
	if err == nil {
		err = phase(s, "read", func() error {
			for i := 0; i < pc.files; i++ {
				var f vfs.File
				if err := call(-1, func() (err error) { f, err = s.v.Open(name(i)); return }); err != nil {
					return err
				}
				var n int
				rerr := call(opRead, func() (err error) { n, err = f.ReadAt(small, 0); return })
				check(name(i), small, n, rerr, uint64(i), 1)
				if err := call(-1, f.Close); err != nil {
					return err
				}
			}
			return nil
		})
	}
	if err == nil {
		err = phase(s, "delete", func() error {
			for i := 0; i < pc.files; i++ {
				if err := call(-1, func() error { return s.v.Unlink(name(i)) }); err != nil {
					return err
				}
			}
			return call(opFlush, s.v.Sync)
		})
	}
	r.lld = lldStatsDelta(l0, s.l.Stats())
	s.close()
	if err != nil {
		return nil, err
	}

	// Table 5's stack: one large file in chunks, then an unclean stop,
	// recovery and a remount that checks every chunk.
	s = nil
	if s, err = build(); err != nil {
		return nil, err
	}
	defer func() { s.close() }()
	l0 = s.l.Stats()
	nChunks := int(pc.largeFile / int64(chunkBytes))
	buf := make([]byte, chunkBytes)
	var f vfs.File
	if err := call(-1, func() (err error) { f, err = s.v.Create("/large-file"); return }); err != nil {
		return nil, err
	}
	writeChunk := func(c int, version uint64) error {
		fillPayload(buf, uint64(c), version, useed)
		r.userBytes += int64(len(buf))
		return call(opWrite, func() error { _, err := f.WriteAt(buf, int64(c)*int64(chunkBytes)); return err })
	}
	readChunk := func(c int, version uint64) {
		var n int
		err := call(opRead, func() (err error) { n, err = f.ReadAt(buf, int64(c)*int64(chunkBytes)); return })
		check(fmt.Sprintf("chunk %d", c), buf, n, err, uint64(c), version)
	}
	rng := rand.New(rand.NewSource(seed))
	steps := []struct {
		name string
		work func() error
	}{
		{"seq_write", func() error {
			for c := 0; c < nChunks; c++ {
				if err := writeChunk(c, 1); err != nil {
					return err
				}
			}
			return call(opFlush, s.v.Sync)
		}},
		{"seq_read", func() error {
			for c := 0; c < nChunks; c++ {
				readChunk(c, 1)
			}
			return nil
		}},
		{"rand_write", func() error {
			for _, c := range rng.Perm(nChunks) {
				if err := writeChunk(c, 2); err != nil {
					return err
				}
			}
			return call(opFlush, s.v.Sync)
		}},
		{"rand_read", func() error {
			for _, c := range rng.Perm(nChunks) {
				readChunk(c, 2)
			}
			return nil
		}},
		{"reread", func() error {
			for c := 0; c < nChunks; c++ {
				readChunk(c, 2)
			}
			return nil
		}},
	}
	for _, st := range steps {
		if err := phase(s, st.name, st.work); err != nil {
			return nil, err
		}
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	if err := s.fs.Sync(); err != nil {
		return nil, err
	}
	r.lld = r.lld.add(lldStatsDelta(l0, s.l.Stats()))
	if pc.damage != nil {
		pc.damage(s.dsk)
	}
	if r.rec, err = s.crashAndRecover(); err != nil {
		return nil, err
	}
	r.disk["recovery"] = r.rec.disk
	be, err := minixfs.OpenLD(s.d, 4096, s.ldConfig())
	if err != nil {
		return nil, fmt.Errorf("remount: %w", err)
	}
	if s.fs, err = minixfs.Open(be, pc.cache); err != nil {
		return nil, fmt.Errorf("remount: %w", err)
	}
	s.mount(nil)
	if f, err = s.v.Open("/large-file"); err != nil {
		return nil, fmt.Errorf("remount: %w", err)
	}
	for c := 0; c < nChunks; c++ {
		n, err := f.ReadAt(buf, int64(c)*int64(chunkBytes))
		check(fmt.Sprintf("after recovery: chunk %d", c), buf, n, err, uint64(c), 2)
	}
	return r, nil
}
