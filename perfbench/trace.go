package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/disk"
	"repro/internal/ld"
	"repro/internal/vfs"
)

// maxKeptSpans bounds the spans kept for the trace file; aggregates still
// count every span.
const maxKeptSpans = 200_000

// A tracer records a span around every call that crosses a wrapped layer
// boundary: the vfs.FileSystem, an ld.Disk (in process, behind the netld
// server, or the netld client) and the disk.Backend under LLD. Spans nest
// per caller, so a layer's self time is its span minus the spans it caused
// on the same goroutine. Work a layer hands to another goroutine — LLD's
// async seal writes — has no caller span and counts only as that
// goroutine's own busy time.
//
// A span pins its goroutine to its OS thread for its duration, so the
// thread id names the caller: nested spans on that goroutine see the same
// id, and no other goroutine can run on the thread meanwhile. The netld
// client's spans are the exception: they are roots (beginRoot).
type tracer struct {
	t0 time.Time
	on atomic.Bool // spans are recorded only while on; starts off

	mu      sync.Mutex
	phase   string
	stacks  map[int][]frame // open spans by OS thread id
	aggs    map[aggKey]*spanAgg
	kept    []spanRec
	dropped int64
	nextID  uint64
	nextReq uint64
}

type aggKey struct{ phase, layer, method string }

// spanAgg summarizes the spans of one layer method in one phase.
type spanAgg struct {
	n     int64
	total time.Duration
	self  time.Duration
	bytes int64
	durs  []time.Duration
}

type frame struct {
	id, parent, req uint64
	start           time.Time
	child           time.Duration
}

// span is the handle begin returns and end consumes.
type span struct {
	layer, method string
	tid           int   // 0 when the tracer was off, rootTid for a root span
	root          frame // a root span's own frame
}

// rootTid marks a span begun with beginRoot.
const rootTid = -1

type spanRec struct {
	Layer  string `json:"layer"`
	Method string `json:"method"`
	Phase  string `json:"phase"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Req    uint64 `json:"req"`
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), stacks: make(map[int][]frame), aggs: make(map[aggKey]*spanAgg)}
}

func (t *tracer) setPhase(p string) {
	t.mu.Lock()
	t.phase = p
	t.mu.Unlock()
}

func (t *tracer) begin(layer, method string) span {
	if !t.on.Load() {
		return span{}
	}
	runtime.LockOSThread()
	tid := syscall.Gettid()
	t.mu.Lock()
	st := t.stacks[tid]
	t.nextID++
	f := frame{id: t.nextID}
	if len(st) > 0 {
		top := &st[len(st)-1]
		f.parent, f.req = top.id, top.req
	} else {
		t.nextReq++
		f.req = t.nextReq
	}
	f.start = time.Now()
	t.stacks[tid] = append(st, f)
	t.mu.Unlock()
	return span{layer: layer, method: method, tid: tid}
}

// beginRoot begins a span that has no parent and no children on its
// goroutine, so it needs no pinned thread: the netld client's calls, which
// are the outermost layer of their goroutine and block on the network.
// Pinning a goroutine that blocks would make every call hand its processor
// to another thread, and the tracer would time that hand-off.
func (t *tracer) beginRoot(layer, method string) span {
	if !t.on.Load() {
		return span{}
	}
	t.mu.Lock()
	t.nextID++
	t.nextReq++
	f := frame{id: t.nextID, req: t.nextReq}
	t.mu.Unlock()
	f.start = time.Now()
	return span{layer: layer, method: method, tid: rootTid, root: f}
}

func (t *tracer) end(s span) { t.endBytes(s, 0) }

// endBytes ends s, crediting it with n payload bytes (the disk layer's).
func (t *tracer) endBytes(s span, n int) {
	if s.tid == 0 {
		return
	}
	end := time.Now()
	t.mu.Lock()
	f := s.root
	if s.tid != rootTid {
		st := t.stacks[s.tid]
		f = st[len(st)-1]
		st = st[:len(st)-1]
		if len(st) > 0 {
			st[len(st)-1].child += end.Sub(f.start)
		}
		t.stacks[s.tid] = st
	}
	d := end.Sub(f.start)
	k := aggKey{t.phase, s.layer, s.method}
	a := t.aggs[k]
	if a == nil {
		a = &spanAgg{}
		t.aggs[k] = a
	}
	a.n++
	a.total += d
	a.self += d - f.child
	a.bytes += int64(n)
	a.durs = append(a.durs, d)
	if len(t.kept) < maxKeptSpans {
		t.kept = append(t.kept, spanRec{
			Layer: s.layer, Method: s.method, Phase: t.phase,
			Start: f.start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(),
			ID: f.id, Parent: f.parent, Req: f.req,
		})
	} else {
		t.dropped++
	}
	t.mu.Unlock()
	if s.tid != rootTid {
		runtime.UnlockOSThread()
	}
}

// sum merges the aggregates of layer's methods (all methods when methods
// is empty) over the given phase ("" for every phase).
func (t *tracer) sum(phase, layer string, methods ...string) spanAgg {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out spanAgg
	for k, a := range t.aggs {
		if k.layer != layer || (phase != "" && k.phase != phase) {
			continue
		}
		if len(methods) > 0 && !contains(methods, k.method) {
			continue
		}
		out.n += a.n
		out.total += a.total
		out.self += a.self
		out.bytes += a.bytes
		out.durs = append(out.durs, a.durs...)
	}
	return out
}

// methodsOf lists the methods of layer seen in any phase.
func (t *tracer) methodsOf(layer string) []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	seen := map[string]bool{}
	var out []string
	for k := range t.aggs {
		if k.layer == layer && !seen[k.method] {
			seen[k.method] = true
			out = append(out, k.method)
		}
	}
	sort.Strings(out)
	return out
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

// write stores the kept spans as JSON lines in dir/name.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.kept {
		if err := enc.Encode(&t.kept[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return "", err
		}
	}
	dropped := t.dropped
	t.mu.Unlock()
	if dropped > 0 {
		fmt.Fprintf(w, "{\"dropped_spans\":%d}\n", dropped)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// tracedDisk wraps an ld.Disk; layer names the side it stands for ("lld"
// for an in-process or server-side LLD, "client" for the netld client).
type tracedDisk struct {
	d     ld.Disk
	tr    *tracer
	layer string
	root  bool // its spans are roots (see beginRoot)
}

func (w *tracedDisk) begin(method string) span {
	if w.root {
		return w.tr.beginRoot(w.layer, method)
	}
	return w.tr.begin(w.layer, method)
}

var _ ld.MultiReadDisk = (*tracedDisk)(nil)

func (w *tracedDisk) Read(b ld.BlockID, buf []byte) (int, error) {
	f := w.begin("read")
	n, err := w.d.Read(b, buf)
	w.tr.end(f)
	return n, err
}

func (w *tracedDisk) ReadBlocks(bs []ld.BlockID, bufs [][]byte) ([]ld.BlockRead, error) {
	f := w.begin("read_blocks")
	r, err := ld.ReadBlocks(w.d, bs, bufs)
	w.tr.end(f)
	return r, err
}

func (w *tracedDisk) Write(b ld.BlockID, data []byte) error {
	f := w.begin("write")
	err := w.d.Write(b, data)
	w.tr.end(f)
	return err
}

func (w *tracedDisk) NewBlock(lid ld.ListID, pred ld.BlockID) (ld.BlockID, error) {
	f := w.begin("new_block")
	b, err := w.d.NewBlock(lid, pred)
	w.tr.end(f)
	return b, err
}

func (w *tracedDisk) DeleteBlock(b ld.BlockID, lid ld.ListID, predHint ld.BlockID) error {
	f := w.begin("delete_block")
	err := w.d.DeleteBlock(b, lid, predHint)
	w.tr.end(f)
	return err
}

func (w *tracedDisk) NewList(predList ld.ListID, hints ld.ListHints) (ld.ListID, error) {
	f := w.begin("new_list")
	l, err := w.d.NewList(predList, hints)
	w.tr.end(f)
	return l, err
}

func (w *tracedDisk) DeleteList(lid ld.ListID, predHint ld.ListID) error {
	f := w.begin("delete_list")
	err := w.d.DeleteList(lid, predHint)
	w.tr.end(f)
	return err
}

func (w *tracedDisk) MoveBlocks(first, last ld.BlockID, srcList, dstList ld.ListID, pred ld.BlockID, srcPredHint ld.BlockID) error {
	f := w.begin("move_blocks")
	err := w.d.MoveBlocks(first, last, srcList, dstList, pred, srcPredHint)
	w.tr.end(f)
	return err
}

func (w *tracedDisk) MoveList(lid ld.ListID, newPred ld.ListID, predHint ld.ListID) error {
	f := w.begin("move_list")
	err := w.d.MoveList(lid, newPred, predHint)
	w.tr.end(f)
	return err
}

func (w *tracedDisk) FlushList(lid ld.ListID) error {
	f := w.begin("flush_list")
	err := w.d.FlushList(lid)
	w.tr.end(f)
	return err
}

func (w *tracedDisk) BeginARU() error {
	f := w.begin("begin_aru")
	err := w.d.BeginARU()
	w.tr.end(f)
	return err
}

func (w *tracedDisk) EndARU() error {
	f := w.begin("end_aru")
	err := w.d.EndARU()
	w.tr.end(f)
	return err
}

func (w *tracedDisk) Flush(failures ld.FailureSet) error {
	f := w.begin("flush")
	err := w.d.Flush(failures)
	w.tr.end(f)
	return err
}

func (w *tracedDisk) Reserve(n int) error {
	f := w.begin("reserve")
	err := w.d.Reserve(n)
	w.tr.end(f)
	return err
}

func (w *tracedDisk) CancelReservation(n int) error {
	f := w.begin("cancel_reservation")
	err := w.d.CancelReservation(n)
	w.tr.end(f)
	return err
}

func (w *tracedDisk) SwapContents(a, b ld.BlockID) error {
	f := w.begin("swap_contents")
	err := w.d.SwapContents(a, b)
	w.tr.end(f)
	return err
}

func (w *tracedDisk) ListBlocks(lid ld.ListID) ([]ld.BlockID, error) {
	f := w.begin("list_blocks")
	bs, err := w.d.ListBlocks(lid)
	w.tr.end(f)
	return bs, err
}

func (w *tracedDisk) ListIndex(lid ld.ListID, i int) (ld.BlockID, error) {
	f := w.begin("list_index")
	b, err := w.d.ListIndex(lid, i)
	w.tr.end(f)
	return b, err
}

func (w *tracedDisk) Lists() ([]ld.ListID, error) {
	f := w.begin("lists")
	ls, err := w.d.Lists()
	w.tr.end(f)
	return ls, err
}

func (w *tracedDisk) BlockSize(b ld.BlockID) (int, error) {
	f := w.begin("block_size")
	n, err := w.d.BlockSize(b)
	w.tr.end(f)
	return n, err
}

func (w *tracedDisk) MaxBlockSize() int { return w.d.MaxBlockSize() }

func (w *tracedDisk) Shutdown(clean bool) error {
	f := w.begin("shutdown")
	err := w.d.Shutdown(clean)
	w.tr.end(f)
	return err
}

// tracedBackend wraps the disk.Backend LLD writes its segments to. The
// simulated disk implements no optional backend interface (Syncer,
// MultiReader), so the wrapper changes nothing LLD can observe.
type tracedBackend struct {
	b  disk.Backend
	tr *tracer
}

func (w *tracedBackend) ReadAt(p []byte, off int64) error {
	f := w.tr.begin("disk", "read")
	err := w.b.ReadAt(p, off)
	w.tr.endBytes(f, len(p))
	return err
}

func (w *tracedBackend) WriteAt(p []byte, off int64) error {
	f := w.tr.begin("disk", "write")
	err := w.b.WriteAt(p, off)
	w.tr.endBytes(f, len(p))
	return err
}

func (w *tracedBackend) WriteAtNVRAM(p []byte, off int64) error {
	f := w.tr.begin("disk", "write")
	err := w.b.WriteAtNVRAM(p, off)
	w.tr.endBytes(f, len(p))
	return err
}

func (w *tracedBackend) Capacity() int64             { return w.b.Capacity() }
func (w *tracedBackend) SectorSize() int             { return w.b.SectorSize() }
func (w *tracedBackend) Now() time.Duration          { return w.b.Now() }
func (w *tracedBackend) AdvanceIdle(d time.Duration) { w.b.AdvanceIdle(d) }

// tracedFS wraps the file system the paper workload drives.
type tracedFS struct {
	fs vfs.FileSystem
	tr *tracer
}

func (w *tracedFS) Create(path string) (vfs.File, error) {
	f := w.tr.begin("vfs", "create")
	file, err := w.fs.Create(path)
	w.tr.end(f)
	if err != nil {
		return nil, err
	}
	return &tracedFile{f: file, tr: w.tr}, nil
}

func (w *tracedFS) Open(path string) (vfs.File, error) {
	f := w.tr.begin("vfs", "open")
	file, err := w.fs.Open(path)
	w.tr.end(f)
	if err != nil {
		return nil, err
	}
	return &tracedFile{f: file, tr: w.tr}, nil
}

func (w *tracedFS) Unlink(path string) error {
	f := w.tr.begin("vfs", "unlink")
	err := w.fs.Unlink(path)
	w.tr.end(f)
	return err
}

func (w *tracedFS) Mkdir(path string) error {
	f := w.tr.begin("vfs", "mkdir")
	err := w.fs.Mkdir(path)
	w.tr.end(f)
	return err
}

func (w *tracedFS) Rmdir(path string) error {
	f := w.tr.begin("vfs", "rmdir")
	err := w.fs.Rmdir(path)
	w.tr.end(f)
	return err
}

func (w *tracedFS) ReadDir(path string) ([]vfs.FileInfo, error) {
	f := w.tr.begin("vfs", "readdir")
	infos, err := w.fs.ReadDir(path)
	w.tr.end(f)
	return infos, err
}

func (w *tracedFS) Rename(oldPath, newPath string) error {
	f := w.tr.begin("vfs", "rename")
	err := w.fs.Rename(oldPath, newPath)
	w.tr.end(f)
	return err
}

func (w *tracedFS) Stat(path string) (vfs.FileInfo, error) {
	f := w.tr.begin("vfs", "stat")
	info, err := w.fs.Stat(path)
	w.tr.end(f)
	return info, err
}

func (w *tracedFS) Sync() error {
	f := w.tr.begin("vfs", "sync")
	err := w.fs.Sync()
	w.tr.end(f)
	return err
}

func (w *tracedFS) DropCaches() error {
	f := w.tr.begin("vfs", "drop_caches")
	err := w.fs.DropCaches()
	w.tr.end(f)
	return err
}

func (w *tracedFS) Close() error {
	f := w.tr.begin("vfs", "close_fs")
	err := w.fs.Close()
	w.tr.end(f)
	return err
}

type tracedFile struct {
	f  vfs.File
	tr *tracer
}

func (w *tracedFile) ReadAt(p []byte, off int64) (int, error) {
	f := w.tr.begin("vfs", "read")
	n, err := w.f.ReadAt(p, off)
	w.tr.end(f)
	return n, err
}

func (w *tracedFile) WriteAt(p []byte, off int64) (int, error) {
	f := w.tr.begin("vfs", "write")
	n, err := w.f.WriteAt(p, off)
	w.tr.end(f)
	return n, err
}

func (w *tracedFile) Truncate(size int64) error {
	f := w.tr.begin("vfs", "truncate")
	err := w.f.Truncate(size)
	w.tr.end(f)
	return err
}

func (w *tracedFile) Size() int64 { return w.f.Size() }

func (w *tracedFile) Sync() error {
	f := w.tr.begin("vfs", "fsync")
	err := w.f.Sync()
	w.tr.end(f)
	return err
}

func (w *tracedFile) Close() error {
	f := w.tr.begin("vfs", "close")
	err := w.f.Close()
	w.tr.end(f)
	return err
}
