// Package filebench reimplements the two Filebench personalities the
// paper evaluates (§6.3, Table 1):
//
//   - Fileserver: create, write (whole file), append, read (whole file),
//     stat, delete over a file set — write-heavy (R:W = 1:2).
//   - Webserver: whole-file reads from a file set plus an append to a
//     single shared log — read-heavy (R:W = 10:1) with high contention on
//     the log's inode.
package filebench

import (
	"fmt"

	"github.com/easyio-sim/easyio/internal/caladan"
	"github.com/easyio-sim/easyio/internal/fsapi"
	"github.com/easyio-sim/easyio/internal/nova"
	"github.com/easyio-sim/easyio/internal/rng"
	"github.com/easyio-sim/easyio/internal/sim"
	"github.com/easyio-sim/easyio/internal/stats"
)

// Personality selects the workload.
type Personality string

// The implemented personalities.
const (
	Fileserver Personality = "fileserver"
	Webserver  Personality = "webserver"
)

// Config parameterizes a run.
type Config struct {
	Personality Personality
	Cores       int
	Uthreads    int // default Cores
	// Files is the file-set size. Default 64.
	Files int
	// FileSize: fileserver writes/reads whole files of this size
	// (Table 1: ~1 MB); webserver reads this much per op (256 KB).
	FileSize int
	// AppendSize: fileserver 1040KB-1MB delta appends (16 KB here per
	// Table 1's webserver log append; fileserver appends 16 KB too).
	AppendSize int
	Warmup     sim.Duration
	Measure    sim.Duration
	Seed       uint64
}

func (c Config) withDefaults() Config {
	if c.Uthreads == 0 {
		c.Uthreads = c.Cores
	}
	if c.Files == 0 {
		c.Files = 64
	}
	if c.FileSize == 0 {
		if c.Personality == Webserver {
			c.FileSize = 256 << 10
		} else {
			c.FileSize = 1 << 20
		}
	}
	if c.AppendSize == 0 {
		c.AppendSize = 16 << 10
	}
	if c.Warmup == 0 {
		c.Warmup = 2 * sim.Millisecond
	}
	if c.Measure == 0 {
		c.Measure = 30 * sim.Millisecond
	}
	return c
}

// Result summarizes a run. Ops counts whole personality iterations.
type Result struct {
	Ops  int64
	Lat  stats.Recorder
	Span sim.Duration
}

// Throughput returns iterations/second.
func (r *Result) Throughput() float64 { return stats.Throughput(int(r.Ops), r.Span) }

// Run executes the personality; same contract as fxmark.Run.
// mustOp panics on a workload I/O error: the personality loops operate
// on files the generator itself created, so failures mean corrupted
// simulation state, not a recoverable condition.
func mustOp(op string, err error) {
	if err != nil {
		panic("filebench: " + op + ": " + err.Error())
	}
}

func Run(eng *sim.Engine, rt *caladan.Runtime, fs fsapi.FileSystem, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	res := &Result{Span: cfg.Measure}
	g := rng.New(cfg.Seed ^ 0xf11e)

	if err := fs.Mkdir(nil, "/fb"); err != nil && err != nova.ErrExist {
		return nil, err
	}
	// Pre-populate the file set.
	files := make([]*nova.File, cfg.Files)
	blob := make([]byte, cfg.FileSize)
	for i := range files {
		f, err := fs.Create(nil, fmt.Sprintf("/fb/f%04d", i))
		if err != nil {
			return nil, err
		}
		if _, err := fs.WriteAt(nil, f, 0, blob); err != nil {
			f.Close()
			return nil, err
		}
		files[i] = f
	}
	var logFile *nova.File
	if cfg.Personality == Webserver {
		f, err := fs.Create(nil, "/fb/weblog")
		if err != nil {
			return nil, err
		}
		logFile = f
	}

	start := eng.Now()
	warmEnd := start + sim.Time(cfg.Warmup)
	end := warmEnd + sim.Time(cfg.Measure)
	// createErr is the first failed Fileserver create; its uthread stops
	// and Run reports it.
	var createErr error

	for i := 0; i < cfg.Uthreads; i++ {
		i := i
		wg := g.Fork(uint64(i))
		rt.Spawn(i%cfg.Cores, fmt.Sprintf("fb-%d", i), func(task *caladan.Task) {
			rbuf := make([]byte, cfg.FileSize)
			wbuf := make([]byte, cfg.FileSize)
			abuf := make([]byte, cfg.AppendSize)
			seq := 0
			for task.Now() < end {
				opStart := task.Now()
				switch cfg.Personality {
				case Fileserver:
					// create+write / append / read / stat / delete.
					name := fmt.Sprintf("/fb/w%d-%d", i, seq)
					seq++
					nf, err := fs.Create(task, name)
					if err != nil {
						if createErr == nil {
							createErr = fmt.Errorf("filebench: create %s: %w", name, err)
						}
						return
					}
					_, err = fs.WriteAt(task, nf, 0, wbuf)
					mustOp("write", err)
					_, err = fs.Append(task, nf, abuf)
					mustOp("append", err)
					_, err = fs.ReadAt(task, nf, 0, rbuf)
					mustOp("read", err)
					_, err = fs.Stat(task, name)
					mustOp("stat", err)
					nf.Close()
					mustOp("unlink", fs.Unlink(task, name))
				case Webserver:
					// 10 reads : 1 log append (Table 1 R/W ratio).
					for k := 0; k < 10; k++ {
						f := files[wg.Intn(len(files))]
						_, err := fs.ReadAt(task, f, 0, rbuf)
						mustOp("read", err)
					}
					_, err := fs.Append(task, logFile, abuf)
					mustOp("append", err)
					if logFile.Size() > 64<<20 {
						mustOp("truncate", fs.Truncate(task, logFile, 0))
					}
				}
				if task.Now() > warmEnd && opStart >= warmEnd {
					res.Ops++
					res.Lat.Add(sim.Duration(task.Now() - opStart))
				}
			}
		})
	}
	eng.RunUntil(end)
	if createErr != nil {
		return nil, createErr
	}
	return res, nil
}
