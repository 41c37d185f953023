package main

import (
	"github.com/easyio-sim/easyio/internal/caladan"
	"github.com/easyio-sim/easyio/internal/fsapi"
	"github.com/easyio-sim/easyio/internal/nova"
	"github.com/easyio-sim/easyio/internal/sim"
	"github.com/easyio-sim/easyio/internal/stats"
)

// fsOp indexes the per-operation counters at the fsapi boundary.
type fsOp int

const (
	opCreate fsOp = iota
	opOpen
	opRead
	opWrite
	opAppend
	opTruncate
	opUnlink
	opStat
	opMkdir
	opOther // OpenOrCreate, Rename, Link, Fsync
	numOps
)

var opNames = [numOps]string{"create", "open", "read", "write", "append", "truncate", "unlink", "stat", "mkdir", "other"}

// fsCounts is what the count-only decorator accumulates: calls and
// errors per operation and data bytes moved by timed (non-nil task)
// calls. It reads no clock.
type fsCounts struct {
	calls  [numOps]int64
	errors int64
	bytes  int64 // read + write + append payload of timed calls
}

// total is the number of FS calls of every kind.
func (c *fsCounts) total() int64 {
	var n int64
	for _, k := range c.calls {
		n += k
	}
	return n
}

func (c *fsCounts) add(o *fsCounts) {
	for i := range c.calls {
		c.calls[i] += o.calls[i]
	}
	c.errors += o.errors
	c.bytes += o.bytes
}

// maxSpansPerCell bounds the VT spans a traced cell keeps in memory; the
// rest are counted as dropped.
const maxSpansPerCell = 400

// vtSpan is one FS call on the virtual clock.
type vtSpan struct {
	op         fsOp
	ut         int // uthread (request) id within the cell
	start, end sim.Time
}

// fsRecorder is the traced decorator's state for one cell: VT latency
// histograms at the fsapi boundary and bounded VT spans.
type fsRecorder struct {
	readLat, writeLat stats.Hist
	spans             []vtSpan
	dropped           int64
	uts               map[*caladan.UThread]int
}

// countingFS decorates an fsapi.FileSystem. With rec nil it only counts
// (no clock reads, no VT charge); with rec set it also records VT
// latencies and spans from task.Now() before and after each call, which
// likewise charges no virtual time.
type countingFS struct {
	fs  fsapi.FileSystem
	c   fsCounts
	rec *fsRecorder
}

func newCountingFS(fs fsapi.FileSystem, traced bool) *countingFS {
	d := &countingFS{fs: fs}
	if traced {
		d.rec = &fsRecorder{uts: map[*caladan.UThread]int{}}
	}
	return d
}

var _ fsapi.FileSystem = (*countingFS)(nil)

// begin returns the call's VT start when tracing a timed (non-nil task)
// call.
func (d *countingFS) begin(t *caladan.Task) sim.Time {
	if d.rec == nil || t == nil {
		return 0
	}
	return t.Now()
}

func (d *countingFS) end(t *caladan.Task, op fsOp, n int, err error, vt0 sim.Time) {
	d.c.calls[op]++
	if err != nil {
		d.c.errors++
	}
	if t != nil {
		d.c.bytes += int64(n)
	}
	r := d.rec
	if r == nil || t == nil {
		return
	}
	vt1 := t.Now()
	switch op {
	case opRead:
		r.readLat.Add(sim.Duration(vt1 - vt0))
	case opWrite, opAppend:
		r.writeLat.Add(sim.Duration(vt1 - vt0))
	}
	if len(r.spans) >= maxSpansPerCell {
		r.dropped++
		return
	}
	ut := t.UThread()
	id, ok := r.uts[ut]
	if !ok {
		id = len(r.uts)
		r.uts[ut] = id
	}
	r.spans = append(r.spans, vtSpan{op: op, ut: id, start: vt0, end: vt1})
}

func (d *countingFS) Create(t *caladan.Task, path string) (*nova.File, error) {
	v := d.begin(t)
	f, err := d.fs.Create(t, path)
	d.end(t, opCreate, 0, err, v)
	return f, err
}

func (d *countingFS) Open(t *caladan.Task, path string) (*nova.File, error) {
	v := d.begin(t)
	f, err := d.fs.Open(t, path)
	d.end(t, opOpen, 0, err, v)
	return f, err
}

func (d *countingFS) OpenOrCreate(t *caladan.Task, path string) (*nova.File, error) {
	v := d.begin(t)
	f, err := d.fs.OpenOrCreate(t, path)
	d.end(t, opOther, 0, err, v)
	return f, err
}

func (d *countingFS) ReadAt(t *caladan.Task, f *nova.File, off int64, buf []byte) (int, error) {
	v := d.begin(t)
	n, err := d.fs.ReadAt(t, f, off, buf)
	d.end(t, opRead, n, err, v)
	return n, err
}

func (d *countingFS) WriteAt(t *caladan.Task, f *nova.File, off int64, data []byte) (int, error) {
	v := d.begin(t)
	n, err := d.fs.WriteAt(t, f, off, data)
	d.end(t, opWrite, n, err, v)
	return n, err
}

func (d *countingFS) Append(t *caladan.Task, f *nova.File, data []byte) (int, error) {
	v := d.begin(t)
	n, err := d.fs.Append(t, f, data)
	d.end(t, opAppend, n, err, v)
	return n, err
}

func (d *countingFS) Truncate(t *caladan.Task, f *nova.File, size int64) error {
	v := d.begin(t)
	err := d.fs.Truncate(t, f, size)
	d.end(t, opTruncate, 0, err, v)
	return err
}

func (d *countingFS) Unlink(t *caladan.Task, path string) error {
	v := d.begin(t)
	err := d.fs.Unlink(t, path)
	d.end(t, opUnlink, 0, err, v)
	return err
}

func (d *countingFS) Rename(t *caladan.Task, oldpath, newpath string) error {
	v := d.begin(t)
	err := d.fs.Rename(t, oldpath, newpath)
	d.end(t, opOther, 0, err, v)
	return err
}

func (d *countingFS) Link(t *caladan.Task, oldpath, newpath string) error {
	v := d.begin(t)
	err := d.fs.Link(t, oldpath, newpath)
	d.end(t, opOther, 0, err, v)
	return err
}

func (d *countingFS) Mkdir(t *caladan.Task, path string) error {
	v := d.begin(t)
	err := d.fs.Mkdir(t, path)
	d.end(t, opMkdir, 0, err, v)
	return err
}

func (d *countingFS) Stat(t *caladan.Task, path string) (nova.Stat, error) {
	v := d.begin(t)
	st, err := d.fs.Stat(t, path)
	d.end(t, opStat, 0, err, v)
	return st, err
}

func (d *countingFS) Fsync(t *caladan.Task, f *nova.File) error {
	v := d.begin(t)
	err := d.fs.Fsync(t, f)
	d.end(t, opOther, 0, err, v)
	return err
}
