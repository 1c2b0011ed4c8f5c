package main

import (
	"os"
	"path/filepath"

	"opgate"
)

// metricDecl is a metric's name and unit.
type metricDecl struct{ name, unit string }

// perLayer lists every per-layer metric the traced run prints. A layer a
// workload does not exercise reads 0.
func perLayer() []metricDecl {
	ls := []metricDecl{
		{"uarch.sim_ms", "ms"}, {"uarch.passes", "count"}, {"uarch.events", "count"},
		{"uarch.mips_1mode", "MIPS"}, {"uarch.mips_2mode", "MIPS"},
		{"emu.setup_ms", "ms"}, {"emu.run_ms", "ms"}, {"emu.mips", "MIPS"},
		{"emu.emulations", "count"}, {"emu.capture_mb", "MB"},
		{"emu.replay_mips", "MIPS"}, {"emu.records_mips", "MIPS"},
		{"store.encode_mbps", "MB/s"}, {"store.put_ms", "ms"}, {"store.puts", "count"},
		{"store.put_errors", "count"}, {"store.decode_mbps", "MB/s"}, {"store.get_ms", "ms"},
		{"store.hit_ratio", "ratio"},
		{"vrp.analyze_ms", "ms"}, {"vrp.analyses", "count"},
		{"vrs.profile_ms", "ms"}, {"vrs.profiles", "count"},
		{"vrs.select_ms", "ms"}, {"vrs.selects", "count"},
		{"workload.build_ms", "ms"}, {"workload.programs", "count"},
	}
	for _, e := range opgate.Experiments() {
		ls = append(ls, metricDecl{"harness." + e.ID + "_ms", "ms"})
	}
	return append(ls, []metricDecl{
		{"harness.emulations", "count"}, {"harness.train_emulations", "count"},
		{"error_ratio", "ratio"}, {"bench.trace_overhead_ms", "ms"},
	}...)
}

// layerMetrics fills every per-layer metric from values, 0 where absent.
func layerMetrics(values map[string]float64) map[string]Metric {
	out := map[string]Metric{}
	for _, l := range perLayer() {
		out[l.name] = Metric{values[l.name], l.unit}
	}
	return out
}

// pipelineValues derives the pipeline layers' metrics from the spans of a
// traced session process and of the stage pass, the stage pass's counts
// and the session's own probes.
func pipelineValues(spans []Span, c stageCounts, o childOut) map[string]float64 {
	t := totals(spans)
	ms := func(n string) float64 { return t[n].self * 1000 }
	calls := func(n string) float64 { return float64(t[n].calls) }
	rate := func(n string) float64 { // units of count per microsecond
		if t[n].self == 0 {
			return 0
		}
		return float64(t[n].count) / t[n].self / 1e6
	}
	v := map[string]float64{
		"uarch.sim_ms":      ms("uarch.pass1") + ms("uarch.pass2"),
		"uarch.passes":      calls("uarch.pass1") + calls("uarch.pass2"),
		"uarch.events":      float64(t["uarch.pass1"].count + t["uarch.pass2"].count),
		"uarch.mips_1mode":  rate("uarch.pass1"),
		"uarch.mips_2mode":  rate("uarch.pass2"),
		"emu.setup_ms":      ms("emu.new"),
		"emu.run_ms":        ms("emu.run"),
		"emu.mips":          rate("emu.run"),
		"emu.emulations":    calls("emu.run"),
		"emu.capture_mb":    float64(c.captureB) / 1e6,
		"emu.replay_mips":   rate("emu.replay"),
		"emu.records_mips":  rate("emu.records"),
		"store.encode_mbps": rate("store.encode"),
		"store.put_ms":      ms("store.put"),
		"store.puts":        float64(o.Puts),
		"store.put_errors":  float64(o.PutErrors),
		"store.decode_mbps": rate("store.decode"),
		"store.get_ms":      ms("store.get"),
		"vrp.analyze_ms":    ms("vrp.analyze"),
		"vrp.analyses":      calls("vrp.analyze"),
		"vrs.profile_ms":    ms("vrs.profile"),
		"vrs.profiles":      calls("vrs.profile"),
		"vrs.select_ms":     ms("vrs.select"),
		"vrs.selects":       calls("vrs.select"),
		"workload.build_ms": ms("workload.build"),
		"workload.programs": float64(t["workload.build"].count),

		"harness.emulations":       float64(o.Emulations),
		"harness.train_emulations": float64(o.TrainEmulations),
	}
	if o.Gets > 0 {
		v["store.hit_ratio"] = float64(o.Hits) / float64(o.Gets)
	}
	// A harness span's time is its whole duration: the experiment's share
	// of the session's wall time, store traffic included.
	for _, sp := range spans {
		if sp.Run != "stages" && sp.Parent == 0 {
			v[sp.Name+"_ms"] += float64(sp.End-sp.Start) / 1e6
		}
	}
	return v
}

// saveTrace writes a traced run's spans beside the build, replacing the
// previous trace of the workload.
func (b *bench) saveTrace(spans []Span) error {
	dir := filepath.Join(".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return writeSpans(filepath.Join(dir, b.name+".json"), spans)
}

// tracedPass is the traced run of a process-per-job workload: one
// untraced job, the same job traced, then the stage pass over the same
// programs, variants and mode groups. The stage pass must have done
// exactly the work the traced session reports; otherwise its per-layer
// numbers describe another pipeline and the run fails.
func (b *bench) tracedPass(iter func(int, string) (childRun, error),
	stages func(*Tracer) (stageCounts, error)) (map[string]Metric, error) {
	plain, err := iter(0, "")
	if err != nil {
		return nil, err
	}
	path := filepath.Join(b.work, "session-spans.json")
	tc, err := iter(1, path)
	if err != nil {
		return nil, err
	}
	spans, err := readSpans(path)
	if err != nil {
		return nil, err
	}
	tr := newTracer("stages")
	c, err := stages(tr)
	if err != nil {
		return nil, err
	}
	spans = append(spans, tr.Spans()...)
	if err := b.saveTrace(spans); err != nil {
		return nil, err
	}
	o := tc.out
	b.attempted++
	for _, check := range []struct {
		what           string
		stage, session int64
	}{
		{"emulations", c.emulations, o.Emulations},
		{"profiles", c.profiles, o.TrainEmulations},
		{"store puts", c.encodes, o.Store.Puts},
		{"wrapper puts", o.Puts, o.Store.Puts},
		{"store hits", c.decodes, o.Store.Hits},
		{"wrapper hits", o.Hits, o.Store.Hits},
	} {
		if check.stage != check.session {
			b.fail(1, "reconcile %s: stage pass %d, session %d", check.what, check.stage, check.session)
			break
		}
	}
	v := pipelineValues(spans, c, o)
	v["bench.trace_overhead_ms"] = (tc.wall - plain.wall) * 1000
	return layerMetrics(v), nil
}
