package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/disk"
	"repro/internal/ld"
)

const blockBytes = 4096

// hotColdConfig sizes the ld-hotcold workload.
type hotColdConfig struct {
	capacity int64            // simulated disk bytes
	blocks   int              // 4-KB blocks in the one list; client c owns k%mixClients == c
	setups   int              // set-ups per run; set-up time is their median
	damage   func(*disk.Disk) // self-test hook, run after set-up
}

// hotColdDefault holds 8,000 blocks (about 70% of the 48-MB disk's usable
// space) so the foreground cleaner must run.
var hotColdDefault = hotColdConfig{capacity: 48 << 20, blocks: 8000, setups: 9}

// 90% of accesses go to 10% of each client's blocks (Ruemmler–Wilkes
// skew, paper §3.5).
const (
	hotFrac  = 0.10
	hotShare = 0.90
)

func runHotCold(cfg runConfig) (*report, error) { return hotCold(cfg, hotColdDefault) }

func hotCold(cfg runConfig, hc hotColdConfig) (*report, error) {
	rep := newReport()
	var (
		st     *ldStack
		ids    []ld.BlockID
		setups []float64
		vwrite []float64
		dsPop  disk.Stats
	)
	for i := 0; i < hc.setups; i++ {
		if st != nil {
			st.close()
			runtime.GC()
		}
		w0 := time.Now()
		var err error
		if st, err = newLDStack(hc.capacity, cfg.tr); err != nil {
			return nil, err
		}
		d0, v0 := st.dsk.Stats(), st.dsk.Now()
		if ids, err = populateOneList(st.d, hc.blocks, cfg.seed); err != nil {
			st.close()
			return nil, err
		}
		setups = append(setups, time.Since(w0).Seconds())
		vwrite = append(vwrite, kbPerSec(int64(hc.blocks)*blockBytes, st.dsk.Now()-v0))
		dsPop = diskDelta(d0, st.dsk.Stats())
	}
	defer st.close()
	recordShape(rep, st.l)
	rep.e2e["setup_s"] = sample{median(setups), len(setups)}
	rep.e2e["vclock_seq_write_kb_per_s"] = sample{median(vwrite), len(vwrite)}
	if hc.damage != nil {
		hc.damage(st.dsk)
	}

	ver := make([]uint64, hc.blocks)
	for k := range ver {
		ver[k] = 1
	}
	seqRead, dsSeqRead := readAllTimed(st, ids, ver, cfg.seed, rep)
	rep.e2e["vclock_seq_read_kb_per_s"] = sample{seqRead, 1}

	// Each client owns the blocks k with k%clients == c, so it alone knows
	// every block's last acknowledged version and checks each read exactly.
	type clientState struct {
		rng       *rand.Rand
		hot, cold []int
		buf, wbuf []byte
		writes    int
	}
	cs := make([]*clientState, mixClients)
	for c := range cs {
		rng := rand.New(rand.NewSource(cfg.seed*1_000_003 + int64(c)))
		var own []int
		for k := c; k < hc.blocks; k += mixClients {
			own = append(own, k)
		}
		rng.Shuffle(len(own), func(i, j int) { own[i], own[j] = own[j], own[i] })
		nHot := int(float64(len(own)) * hotFrac)
		if nHot < 1 {
			nHot = 1
		}
		cs[c] = &clientState{rng: rng, hot: own[:nHot], cold: own[nHot:],
			buf: make([]byte, blockBytes), wbuf: make([]byte, blockBytes)}
	}
	step := func(c int, cl *clientLog) {
		s := cs[c]
		var k int
		if s.rng.Float64() < hotShare || len(s.cold) == 0 {
			k = s.hot[s.rng.Intn(len(s.hot))]
		} else {
			k = s.cold[s.rng.Intn(len(s.cold))]
		}
		cl.rep.attempted++
		if s.rng.Intn(2) == 0 {
			t0 := time.Now()
			n, err := st.d.Read(ids[k], s.buf)
			cl.record(opRead, t0)
			if err != nil {
				cl.rep.fail("read block %d: %v", k, err)
			} else if err := checkPayload(s.buf[:n], uint64(k), ver[k], uint64(cfg.seed)); err != nil {
				cl.rep.fail("read block %d: %v", k, err)
			}
			return
		}
		fillPayload(s.wbuf, uint64(k), ver[k]+1, uint64(cfg.seed))
		t0 := time.Now()
		err := st.d.Write(ids[k], s.wbuf)
		cl.record(opWrite, t0)
		if err != nil {
			cl.rep.fail("write block %d: %v", k, err)
			return
		}
		ver[k]++
		cl.userBytes += blockBytes
		s.writes++
		if s.writes%flushEvery == 0 {
			cl.rep.attempted++
			t0 := time.Now()
			err := st.d.Flush(ld.FailPower)
			cl.record(opFlush, t0)
			if err != nil {
				cl.rep.fail("flush: %v", err)
			}
		}
	}

	toggle, traced := st.tracedDelta()
	d0 := st.dsk.Stats()
	mix := driveMix(cfg, step, toggle)
	dMix := diskDelta(d0, st.dsk.Stats())
	rep.merge(mix.log.rep)
	if cfg.tr != nil {
		cfg.tr.setPhase("")
	}

	// Make every acknowledged write durable, check it, then crash,
	// recover, and check it again.
	if err := st.d.Flush(ld.FailPower); err != nil {
		rep.fail("final flush: %v", err)
	}
	reread, dsReread := readAllTimed(st, ids, ver, cfg.seed, rep)
	rec, err := st.crashAndRecover()
	if err != nil {
		return nil, err
	}
	readAll(st.d, ids, ver, cfg.seed, rep, "after recovery")

	rep.e2e["vclock_reread_kb_per_s"] = sample{reread, 1}
	rep.e2e["vclock_recovery_s"] = sample{rec.vclock.Seconds(), 1}
	mixE2E(rep, mix)
	rep.e2e["write_amp"] = sample{ratio(float64(dMix.SectorsWritten)*float64(st.dsk.SectorSize()), float64(mix.log.userBytes)), len(mix.log.lat[opWrite])}

	if cfg.tr != nil {
		rep.layer["trace.overhead_pct"] = mix.overheadPct
		lldLayer(rep, cfg.tr, *traced, rec, 1)
		diskLayer(rep, cfg.tr, 1)
		diskPhase(rep, "seq_write", dsPop, 1)
		diskPhase(rep, "seq_read", dsSeqRead, 1)
		diskPhase(rep, "reread", dsReread, 1)
		diskPhase(rep, "recovery", rec.disk, 1)
	}
	return rep, nil
}

// populateOneList fills a new list with n blocks and makes them durable.
func populateOneList(d ld.Disk, n int, seed int64) ([]ld.BlockID, error) {
	lid, err := d.NewList(ld.NilList, ld.ListHints{Cluster: true})
	if err != nil {
		return nil, fmt.Errorf("populate: new list: %w", err)
	}
	ids, err := populateList(d, lid, 0, n, seed)
	if err != nil {
		return nil, err
	}
	if err := d.Flush(ld.FailPower); err != nil {
		return nil, fmt.Errorf("populate: flush: %w", err)
	}
	return ids, nil
}

// populateList appends n blocks to lid, block i holding version 1 of key
// keyBase+i, and returns their ids in list order.
func populateList(d ld.Disk, lid ld.ListID, keyBase, n int, seed int64) ([]ld.BlockID, error) {
	ids := make([]ld.BlockID, n)
	buf := make([]byte, blockBytes)
	pred := ld.NilBlock
	for i := range ids {
		b, err := d.NewBlock(lid, pred)
		if err != nil {
			return nil, fmt.Errorf("populate: new block %d: %w", keyBase+i, err)
		}
		fillPayload(buf, uint64(keyBase+i), 1, uint64(seed))
		if err := d.Write(b, buf); err != nil {
			return nil, fmt.Errorf("populate: write block %d: %w", keyBase+i, err)
		}
		ids[i], pred = b, b
	}
	return ids, nil
}

// readAll reads every block in list order and checks that block i holds
// version ver[i] of key i.
func readAll(d ld.Disk, ids []ld.BlockID, ver []uint64, seed int64, rep *report, when string) {
	buf := make([]byte, blockBytes)
	for k, b := range ids {
		rep.attempted++
		n, err := d.Read(b, buf)
		if err == nil {
			err = checkPayload(buf[:n], uint64(k), ver[k], uint64(seed))
		}
		if err != nil {
			rep.fail("%s: block %d: %v", when, k, err)
		}
	}
}

// readAllTimed is readAll measured on the virtual clock: it returns the
// sequential read rate in KB/s and the disk's work.
func readAllTimed(st *ldStack, ids []ld.BlockID, ver []uint64, seed int64, rep *report) (float64, disk.Stats) {
	d0, v0 := st.dsk.Stats(), st.dsk.Now()
	readAll(st.d, ids, ver, seed, rep, "sequential read")
	return kbPerSec(int64(len(ids))*blockBytes, st.dsk.Now()-v0), diskDelta(d0, st.dsk.Stats())
}
