package main

import (
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"time"

	"repro/internal/disk"
	"repro/internal/ld"
	"repro/internal/netld/client"
	"repro/internal/netld/server"
)

// netldConfig sizes the netld-readmostly workload.
type netldConfig struct {
	capacity int64 // simulated disk bytes
	lists    int   // lists of perList 4-KB blocks; client c owns lists l%mixClients == c
	perList  int
	setups   int              // set-ups per run; set-up time is their median
	damage   func(*disk.Disk) // self-test hook, run after set-up
}

// The netld mix: 85% Read, 5% ReadBlocks of one whole list, 10% Write.
const (
	readShare  = 0.85
	batchShare = 0.05
)

// netldDefault keeps 16 MB of data on a 256-MB disk, large enough that a
// run's writes never wrap the log: the cleaner stays idle and the wire
// round trip dominates each call.
var netldDefault = netldConfig{capacity: 256 << 20, lists: 64, perList: 64, setups: 9}

// netStack is an LLD served by netld/server on TCP loopback, in process,
// with one client connection (client.Dial) per load client.
type netStack struct {
	*ldStack
	srv     *server.Server
	served  chan error
	clients []*client.Client
	cds     []ld.Disk // the clients, wrapped when traced
}

func startNet(capacity int64, tr *tracer) (*netStack, error) {
	st, err := newLDStack(capacity, tr)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.close()
		return nil, err
	}
	n := &netStack{ldStack: st, srv: server.New(server.Config{Disk: st.d}), served: make(chan error, 1)}
	go func() { n.served <- n.srv.Serve(ln) }()
	for c := 0; c < mixClients; c++ {
		cl, err := client.Dial(ln.Addr().String(), client.Options{})
		if err != nil {
			n.stop()
			st.close()
			return nil, fmt.Errorf("dial: %w", err)
		}
		n.clients = append(n.clients, cl)
		var cd ld.Disk = cl
		if tr != nil {
			cd = &tracedDisk{d: cl, tr: tr, layer: "client", root: true}
		}
		n.cds = append(n.cds, cd)
	}
	return n, nil
}

// stop closes the connections and the server and waits for it to return;
// the LLD stays open.
func (n *netStack) stop() {
	for _, c := range n.clients {
		c.Close()
	}
	n.srv.Close()
	<-n.served
}

func runNetLD(cfg runConfig) (*report, error) { return netLD(cfg, netldDefault) }

func netLD(cfg runConfig, nc netldConfig) (*report, error) {
	rep := newReport()
	var (
		ns     *netStack
		ids    [][]ld.BlockID
		setups []float64
		vwrite []float64
		dsPop  disk.Stats
	)
	total := nc.lists * nc.perList
	for i := 0; i < nc.setups; i++ {
		if ns != nil {
			ns.stop()
			ns.close()
			runtime.GC()
		}
		w0 := time.Now()
		var err error
		if ns, err = startNet(nc.capacity, cfg.tr); err != nil {
			return nil, err
		}
		d0, v0 := ns.dsk.Stats(), ns.dsk.Now()
		if ids, err = populateLists(ns.d, nc, cfg.seed); err != nil {
			ns.stop()
			ns.close()
			return nil, err
		}
		setups = append(setups, time.Since(w0).Seconds())
		vwrite = append(vwrite, kbPerSec(int64(total)*blockBytes, ns.dsk.Now()-v0))
		dsPop = diskDelta(d0, ns.dsk.Stats())
	}
	stopped := false
	defer func() {
		if !stopped {
			ns.stop()
		}
		ns.close()
	}()
	recordShape(rep, ns.l)
	rep.e2e["setup_s"] = sample{median(setups), len(setups)}
	rep.e2e["vclock_seq_write_kb_per_s"] = sample{median(vwrite), len(vwrite)}
	if nc.damage != nil {
		nc.damage(ns.dsk)
	}

	ver := make([]uint64, total)
	for k := range ver {
		ver[k] = 1
	}
	seqRead, dsSeqRead := readListsTimed(ns, ids, ver, cfg.seed, rep)
	rep.e2e["vclock_seq_read_kb_per_s"] = sample{seqRead, 1}

	type clientState struct {
		rng    *rand.Rand
		own    []int // list indices
		buf    []byte
		bufs   [][]byte
		writes int
	}
	cs := make([]*clientState, mixClients)
	for c := range cs {
		s := &clientState{rng: rand.New(rand.NewSource(cfg.seed*1_000_003 + int64(c))), buf: make([]byte, blockBytes)}
		for l := c; l < nc.lists; l += mixClients {
			s.own = append(s.own, l)
		}
		for j := 0; j < nc.perList; j++ {
			s.bufs = append(s.bufs, make([]byte, blockBytes))
		}
		cs[c] = s
	}
	step := func(c int, cl *clientLog) {
		s, cd := cs[c], ns.cds[c]
		l := s.own[s.rng.Intn(len(s.own))]
		r := s.rng.Float64()
		switch {
		case r < readShare:
			j := s.rng.Intn(nc.perList)
			k := l*nc.perList + j
			cl.rep.attempted++
			t0 := time.Now()
			n, err := cd.Read(ids[l][j], s.buf)
			cl.record(opRead, t0)
			if err == nil {
				err = checkPayload(s.buf[:n], uint64(k), ver[k], uint64(cfg.seed))
			}
			if err != nil {
				cl.rep.fail("read block %d: %v", k, err)
			}
		case r < readShare+batchShare:
			t0 := time.Now()
			res, err := ld.ReadBlocks(cd, ids[l], s.bufs)
			cl.record(opBatch, t0)
			checkBatch(cl.rep, l, nc.perList, res, err, s.bufs, ver, cfg.seed)
		default:
			j := s.rng.Intn(nc.perList)
			k := l*nc.perList + j
			fillPayload(s.buf, uint64(k), ver[k]+1, uint64(cfg.seed))
			cl.rep.attempted++
			t0 := time.Now()
			err := cd.Write(ids[l][j], s.buf)
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
				err := cd.Flush(ld.FailPower)
				cl.record(opFlush, t0)
				if err != nil {
					cl.rep.fail("flush: %v", err)
				}
			}
		}
	}

	// The server's counters are bracketed around the traced windows, like
	// LLD's.
	lldToggle, traced := ns.tracedDelta()
	var srvFrom server.Stats
	var srvErrs, srvChunks uint64
	toggle := func(on bool) {
		lldToggle(on)
		st := ns.srv.Stats()
		if on {
			srvFrom = st
			return
		}
		srvErrs += serverErrors(st) - serverErrors(srvFrom)
		srvChunks += st.ReadMultiChunks - srvFrom.ReadMultiChunks
	}
	d0 := ns.dsk.Stats()
	mix := driveMix(cfg, step, toggle)
	dMix := diskDelta(d0, ns.dsk.Stats())
	rep.merge(mix.log.rep)
	if cfg.tr != nil {
		cfg.tr.setPhase("")
	}
	var dials uint64
	for _, c := range ns.clients {
		dials += c.Dials()
	}
	rep.retries = int64(dials) - int64(mixClients)

	// Make every acknowledged write durable and check it over the wire;
	// then stop the server, crash, recover, and check it in process.
	if err := ns.cds[0].Flush(ld.FailPower); err != nil {
		rep.fail("final flush: %v", err)
	}
	reread, dsReread := readListsTimed(ns, ids, ver, cfg.seed, rep)
	ns.stop()
	stopped = true
	rec, err := ns.crashAndRecover()
	if err != nil {
		return nil, err
	}
	var flat []ld.BlockID
	for _, l := range ids {
		flat = append(flat, l...)
	}
	readAll(ns.d, flat, ver, cfg.seed, rep, "after recovery")

	rep.e2e["vclock_reread_kb_per_s"] = sample{reread, 1}
	rep.e2e["vclock_recovery_s"] = sample{rec.vclock.Seconds(), 1}
	mixE2E(rep, mix)
	rep.e2e["write_amp"] = sample{ratio(float64(dMix.SectorsWritten)*float64(ns.dsk.SectorSize()), float64(mix.log.userBytes)), len(mix.log.lat[opWrite])}

	if cfg.tr != nil {
		rep.layer["trace.overhead_pct"] = mix.overheadPct
		lldLayer(rep, cfg.tr, *traced, rec, 1)
		diskLayer(rep, cfg.tr, 1)
		diskPhase(rep, "seq_write", dsPop, 1)
		diskPhase(rep, "seq_read", dsSeqRead, 1)
		diskPhase(rep, "reread", dsReread, 1)
		diskPhase(rep, "recovery", rec.disk, 1)
		for _, m := range []string{"read", "write", "flush", "read_blocks"} {
			c, s := cfg.tr.sum("", "client", m), cfg.tr.sum("", "lld", m)
			cMean := ratio(float64(c.total)/float64(time.Microsecond), float64(c.n))
			sMean := ratio(float64(s.total)/float64(time.Microsecond), float64(s.n))
			rep.layer["netld.client."+m+".p50_us"] = quantile(c.durs, 0.50)
			rep.layer["netld.client."+m+".p99_us"] = quantile(c.durs, 0.99)
			rep.layer["netld.server."+m+".busy_us_mean"] = sMean
			rep.layer["netld.wire."+m+".self_us_mean"] = cMean - sMean
		}
		rep.layer["netld.client.dials"] = float64(dials)
		rep.layer["netld.server.errors"] = float64(srvErrs)
		rep.layer["netld.server.read_multi_chunks"] = float64(srvChunks)
	}
	return rep, nil
}

// serverErrors counts the requests the server failed.
func serverErrors(st server.Stats) uint64 {
	n := st.ProtoErrors
	for _, o := range st.Ops {
		n += o.Errors
	}
	return n
}

// populateLists creates and fills the lists in process, through the
// server's own LLD, one list at a time in an order drawn from seed; list
// l's block j holds version 1 of key l*perList+j. Filling one list at a
// time keeps each list's blocks together in the log. The blocks are
// durable when it returns.
func populateLists(d ld.Disk, nc netldConfig, seed int64) ([][]ld.BlockID, error) {
	ids := make([][]ld.BlockID, nc.lists)
	for _, l := range rand.New(rand.NewSource(seed)).Perm(nc.lists) {
		lid, err := d.NewList(ld.NilList, ld.ListHints{Cluster: true})
		if err != nil {
			return nil, fmt.Errorf("populate: new list %d: %w", l, err)
		}
		if ids[l], err = populateList(d, lid, l*nc.perList, nc.perList, seed); err != nil {
			return nil, err
		}
	}
	if err := d.Flush(ld.FailPower); err != nil {
		return nil, fmt.Errorf("populate: flush: %w", err)
	}
	return ids, nil
}

// checkBatch checks every entry of a ReadBlocks of list l.
func checkBatch(rep *report, l, perList int, res []ld.BlockRead, err error, bufs [][]byte, ver []uint64, seed int64) {
	rep.attempted += int64(perList)
	if err != nil {
		for j := 0; j < perList; j++ {
			rep.fail("read list %d: %v", l, err)
		}
		return
	}
	for j, r := range res {
		k := l*perList + j
		e := r.Err
		if e == nil {
			e = checkPayload(bufs[j][:r.N], uint64(k), ver[k], uint64(seed))
		}
		if e != nil {
			rep.fail("read list %d block %d: %v", l, k, e)
		}
	}
}

// readListsTimed reads every list with one ReadBlocks each over the first
// connection and checks every entry; it returns the rate in KB/s on the
// virtual clock and the disk's work.
func readListsTimed(ns *netStack, ids [][]ld.BlockID, ver []uint64, seed int64, rep *report) (float64, disk.Stats) {
	bufs := make([][]byte, len(ids[0]))
	for j := range bufs {
		bufs[j] = make([]byte, blockBytes)
	}
	d0, v0 := ns.dsk.Stats(), ns.dsk.Now()
	var n int64
	for l, bs := range ids {
		res, err := ld.ReadBlocks(ns.cds[0], bs, bufs[:len(bs)])
		checkBatch(rep, l, len(bs), res, err, bufs, ver, seed)
		n += int64(len(bs)) * blockBytes
	}
	return kbPerSec(n, ns.dsk.Now()-v0), diskDelta(d0, ns.dsk.Stats())
}
