package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"sync/atomic"
	"syscall"
	"time"

	"opgate"
	"opgate/internal/store"
)

// childOut is what one timed-phase process reports back to the parent on
// its standard output.
type childOut struct {
	Digest          string            `json:"digest"`
	Ops             int64             `json:"ops"`
	Err             string            `json:"err,omitempty"`
	Emulations      int64             `json:"emulations"`
	TrainEmulations int64             `json:"train_emulations"`
	Store           opgate.StoreStats `json:"store"`
	HasStore        bool              `json:"has_store"`
	// Traffic the timing backend wrapper saw (traced runs only).
	Gets, Hits, Puts, PutErrors int64
}

// childRun is one timed-phase process as the parent measured it.
type childRun struct {
	out   childOut
	wall  float64 // seconds, spawn to exit
	cpu   float64 // user+sys seconds of the child
	rssMB float64 // peak resident set of the child
}

// runChild starts this binary in child mode and measures it.
func runChild(kind string, seed uint64, storeDir, spansPath string) (childRun, error) {
	self, err := os.Executable()
	if err != nil {
		return childRun{}, err
	}
	args := []string{"-child", kind, "-seed", strconv.FormatUint(seed, 10)}
	if storeDir != "" {
		args = append(args, "-store", storeDir)
	}
	if spansPath != "" {
		args = append(args, "-spans", spansPath)
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	start := time.Now()
	stdout, err := cmd.Output()
	wall := time.Since(start).Seconds()
	if err != nil {
		return childRun{}, fmt.Errorf("child %s: %w", kind, err)
	}
	var cr childRun
	if err := json.Unmarshal(stdout, &cr.out); err != nil {
		return childRun{}, fmt.Errorf("child %s: bad output: %w", kind, err)
	}
	cr.wall = wall
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return childRun{}, fmt.Errorf("child %s: no resource usage", kind)
	}
	cr.cpu = tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
	cr.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	return cr, nil
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// childMain runs one timed phase in this process and prints childOut.
// kind "suite" evaluates every experiment over the store at storeDir;
// kind "sweep" sweeps the analysis figures with no store. With spansPath
// set, spans are recorded around every Session call and store access
// and written there.
func childMain(kind string, seed uint64, storeDir, spansPath string) error {
	names, err := synthetics(seed)
	if err != nil {
		return err
	}
	var tr *Tracer
	if spansPath != "" {
		tr = newTracer(kind)
	}
	var open atomic.Int64 // the harness span store traffic belongs to
	opts := []opgate.Option{opgate.WithSynthetics(names...)}
	var timed *timedBackend
	if storeDir != "" {
		dir, err := store.OpenDir(storeDir, 0)
		if err != nil {
			return err
		}
		var b opgate.Backend = dir
		if tr != nil {
			timed = &timedBackend{Backend: dir, tr: tr, parent: &open}
			b = timed
		}
		opts = append(opts, opgate.WithBackend(b))
	}
	sess, err := opgate.NewSession(opts...)
	if err != nil {
		return err
	}
	ctx := context.Background()
	var out childOut
	h := sha256.New()
	switch kind {
	case "suite":
		exps := opgate.Experiments()
		out.Ops = int64(len(exps))
		var reports []*opgate.Report
		if tr == nil {
			reports, err = sess.RunAll(ctx)
		} else {
			// One Run per experiment, in RunAll's order, so each gets a
			// span; the encoded sequence is the same bytes RunAll gives.
			for _, e := range exps {
				id, end := tr.Begin("harness."+e.ID, 0)
				open.Store(id)
				var r *opgate.Report
				r, err = sess.Run(ctx, e.ID)
				end(0)
				if err != nil {
					break
				}
				reports = append(reports, r)
			}
		}
		if err == nil {
			var blob []byte
			if blob, err = opgate.EncodeReports(reports); err == nil {
				h.Write(blob)
			}
		}
	case "sweep":
		for _, id := range sweepFigures {
			out.Ops += int64(len(sweepGrid))
			sid, end := tr.Begin("harness."+id, 0)
			open.Store(sid)
			var sw *opgate.SweepReport
			sw, err = sess.Sweep(ctx, id, sweepGrid...)
			end(0)
			if err != nil {
				break
			}
			var blob []byte
			if blob, err = opgate.EncodeSweep(sw); err != nil {
				break
			}
			h.Write(blob)
		}
	default:
		return fmt.Errorf("unknown child kind %q", kind)
	}
	if err != nil {
		out.Err = err.Error()
	} else {
		out.Digest = hex.EncodeToString(h.Sum(nil))
	}
	out.Emulations = sess.Emulations()
	out.TrainEmulations = sess.TrainEmulations()
	out.Store, out.HasStore = sess.StoreStats()
	if timed != nil {
		out.Gets, out.Hits = timed.gets.Load(), timed.hits.Load()
		out.Puts, out.PutErrors = timed.puts.Load(), timed.putErrs.Load()
	}
	if tr != nil {
		if err := writeSpans(spansPath, tr.Spans()); err != nil {
			return err
		}
	}
	return json.NewEncoder(os.Stdout).Encode(out)
}
