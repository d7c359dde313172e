package main

import (
	"time"

	"repro/internal/mapreduce"
	"repro/internal/mrconf"
)

// span is one timed call across a layer boundary, recorded by the
// benchmark around its calls into the program. Times are seconds since
// the run started.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent,omitempty"` // 0: a root span
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	// Controller calls made inside the span (test runs only) and the
	// host time they took.
	Calls int     `json:"controller_calls,omitempty"`
	CallS float64 `json:"controller_s,omitempty"`
}

// tracer keeps a traced run's spans in memory until the run ends. A
// nil *tracer records nothing, so untraced passes pay one nil check
// per boundary.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer(t0 time.Time) *tracer { return &tracer{t0: t0} }

func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: time.Since(t.t0).Seconds()})
	return len(t.spans)
}

func (t *tracer) end(id int) *span {
	if t == nil {
		return nil
	}
	s := &t.spans[id-1]
	s.End = time.Since(t.t0).Seconds()
	return s
}

// timedController is the timing decorator a traced test run hands
// the application master in place of the tuner: every Controller call
// is passed through unchanged and its host time is added up.
type timedController struct {
	inner mapreduce.Controller
	calls int
	busy  time.Duration
}

func (c *timedController) done(t0 time.Time) {
	c.calls++
	c.busy += time.Since(t0)
}

func (c *timedController) TaskConfig(t *mapreduce.Task, base mrconf.Config) mrconf.Config {
	t0 := time.Now()
	defer c.done(t0)
	return c.inner.TaskConfig(t, base)
}

func (c *timedController) AllowLaunch(t *mapreduce.Task) bool {
	t0 := time.Now()
	defer c.done(t0)
	return c.inner.AllowLaunch(t)
}

func (c *timedController) TaskCompleted(r mapreduce.TaskReport) {
	t0 := time.Now()
	defer c.done(t0)
	c.inner.TaskCompleted(r)
}

func (c *timedController) LiveConfig(t *mapreduce.Task, current mrconf.Config) mrconf.Config {
	t0 := time.Now()
	defer c.done(t0)
	return c.inner.LiveConfig(t, current)
}
