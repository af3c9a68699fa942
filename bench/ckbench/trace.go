package main

import (
	"sort"
	"sync"
	"time"

	"ckprivacy/internal/bucket"
	"ckprivacy/internal/privacy"
)

// Span is one call into a layer, recorded by a traced run. Times are
// nanoseconds since the run started; Parent 0 marks a job's root span.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Job    int    `json:"job"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run writes its result file. A nil
// tracer records nothing, so traced code paths double as untraced ones.
type tracer struct {
	mu    sync.Mutex
	base  time.Time
	job   int
	spans []Span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// begin opens a span of the current job and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.base).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{ID: len(t.spans) + 1, Parent: parent, Name: name, Job: t.job, Start: now})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.base).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add records a span of the given job whose bounds were measured
// elsewhere.
func (t *tracer) add(name string, parent, job int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{ID: len(t.spans) + 1, Parent: parent, Name: name, Job: job,
		Start: start.Sub(t.base).Nanoseconds(), End: end.Sub(t.base).Nanoseconds()})
	return len(t.spans)
}

// jobSpans returns the spans of one job.
func (t *tracer) jobSpans(job int) []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []Span
	for _, s := range t.spans {
		if s.Job == job {
			out = append(out, s)
		}
	}
	return out
}

// timedCriterion records a core.dp span around every Satisfied call of
// the criterion it wraps.
type timedCriterion struct {
	privacy.Criterion
	tr     *tracer
	parent int
}

func (c timedCriterion) Satisfied(bz *bucket.Bucketization) (bool, error) {
	id := c.tr.begin("core.dp", c.parent)
	defer c.tr.end(id)
	return c.Criterion.Satisfied(bz)
}

// selfMetric maps a layer span name to the per-layer metric its self time
// feeds; a job's root span feeds trace.unattributed_s.
var selfMetric = map[string]string{
	"core.dp":               "core.dp_s",
	"anonymize.problem":     "anonymize.problem_s",
	"anonymize.materialize": "anonymize.materialize_s",
	"anonymize.search":      "anonymize.search_self_s",
	"bucket.scan":           "bucket.scan_s",
	"bucket.coarsen":        "bucket.coarsen_s",
}

// selfTimes splits one job's wall time among its spans, in seconds per
// metric. Every instant of the root span goes to the innermost spans open
// then, shared evenly when several goroutines are inside layers at once;
// instants covered by no span below the root go to trace.unattributed_s.
// The shares therefore add up to the root span's duration exactly.
func selfTimes(spans []Span) map[string]float64 {
	cuts := make([]int64, 0, 2*len(spans))
	for _, s := range spans {
		cuts = append(cuts, s.Start, s.End)
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
	out := map[string]float64{}
	open := make(map[int]bool, len(spans))
	busy := make(map[int]bool, len(spans))
	for i := 1; i < len(cuts); i++ {
		a, b := cuts[i-1], cuts[i]
		if a == b {
			continue
		}
		clear(open)
		clear(busy)
		for _, s := range spans {
			if s.Start <= a && s.End >= b {
				open[s.ID] = true
			}
		}
		for _, s := range spans {
			if open[s.ID] && open[s.Parent] {
				busy[s.Parent] = true
			}
		}
		var leaves []string
		for _, s := range spans {
			if open[s.ID] && !busy[s.ID] {
				name, ok := selfMetric[s.Name]
				if !ok {
					name = "trace.unattributed_s"
				}
				leaves = append(leaves, name)
			}
		}
		for _, name := range leaves {
			out[name] += float64(b-a) / 1e9 / float64(len(leaves))
		}
	}
	return out
}
