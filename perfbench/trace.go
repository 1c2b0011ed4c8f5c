package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"opgate"
	"opgate/internal/store"
)

// Span is one timed call at a layer boundary. Parent is the ID of the
// span that caused it (0 for a root); Run groups the spans of one
// process's run.
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Run    string `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
	// Count is the span's unit of work where the layer has one (events
	// replayed, bytes encoded), so throughput is measured where the work
	// happens.
	Count int64 `json:"count,omitempty"`
}

// Tracer keeps spans in memory until the run writes them out. A nil
// *Tracer records nothing, so untraced runs pay one nil check per call.
type Tracer struct {
	run   string
	epoch time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []Span
}

func newTracer(run string) *Tracer { return &Tracer{run: run, epoch: time.Now()} }

// Begin opens a span under parent and returns the function that closes
// it, recording count units of work.
func (t *Tracer) Begin(name string, parent int64) (id int64, end func(count int64)) {
	if t == nil {
		return 0, func(int64) {}
	}
	id = t.next.Add(1)
	start := time.Since(t.epoch).Nanoseconds()
	return id, func(count int64) {
		sp := Span{ID: id, Parent: parent, Run: t.run, Name: name,
			Start: start, End: time.Since(t.epoch).Nanoseconds(), Count: count}
		t.mu.Lock()
		t.spans = append(t.spans, sp)
		t.mu.Unlock()
	}
}

// Spans returns a copy of every closed span.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

func writeSpans(path string, spans []Span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func readSpans(path string) ([]Span, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spans []Span
	err = json.Unmarshal(data, &spans)
	return spans, err
}

// selfTimes returns, per span name, the summed self time in seconds: each
// span's duration minus the part of its interval that its children
// cover (the union, since children may overlap).
func selfTimes(spans []Span) map[string]float64 {
	type key struct {
		run string
		id  int64
	}
	children := map[key][]Span{}
	for _, sp := range spans {
		if sp.Parent != 0 {
			k := key{sp.Run, sp.Parent}
			children[k] = append(children[k], sp)
		}
	}
	out := map[string]float64{}
	for _, sp := range spans {
		covered := coveredNs(sp, children[key{sp.Run, sp.ID}])
		out[sp.Name] += float64(sp.End-sp.Start-covered) / 1e9
	}
	return out
}

// coveredNs is the length of the union of the children's intervals,
// clipped to the parent's.
func coveredNs(parent Span, kids []Span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	return total + curHi - curLo
}

// spanTotal is, for one span name, the number of spans, their summed work
// counts and their summed self time.
type spanTotal struct {
	calls int64
	count int64
	self  float64 // seconds
}

func totals(spans []Span) map[string]spanTotal {
	self := selfTimes(spans)
	out := map[string]spanTotal{}
	for _, sp := range spans {
		t := out[sp.Name]
		t.calls++
		t.count += sp.Count
		out[sp.Name] = t
	}
	for name, t := range out {
		t.self = self[name]
		out[name] = t
	}
	return out
}

// timedBackend wraps the store backend a traced session writes through,
// recording a span around every Get and Put under the harness span that
// is open at the time, and counting the traffic it saw.
type timedBackend struct {
	opgate.Backend
	tr     *Tracer
	parent *atomic.Int64 // the open harness span

	gets, hits, puts, putErrs atomic.Int64
}

func (b *timedBackend) Get(key store.Key) ([]byte, bool) {
	_, end := b.tr.Begin("store.get", b.parent.Load())
	data, ok := b.Backend.Get(key)
	b.gets.Add(1)
	if ok {
		b.hits.Add(1)
	}
	end(0)
	return data, ok
}

func (b *timedBackend) Put(key store.Key, data []byte) error {
	_, end := b.tr.Begin("store.put", b.parent.Load())
	err := b.Backend.Put(key, data)
	b.puts.Add(1)
	if err != nil {
		b.putErrs.Add(1)
	}
	end(0)
	return err
}
