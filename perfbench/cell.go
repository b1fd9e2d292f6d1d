package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/metrics"
	"strings"
	"time"

	"ndpbridge/internal/core"
	ndpmetrics "ndpbridge/internal/metrics"
	"ndpbridge/internal/stats"
	"ndpbridge/internal/trace"
)

// mode selects what a cell attaches to its system before Run.
type mode int

const (
	modePlain    mode = iota // nothing attached: the end-to-end measurement
	modeProfiled             // nothing attached, under the CPU profiler
	modeMetrics              // the metrics registry
	modeTraced               // the metrics registry and causal flow spans
	modeAudited              // the invariant auditor
)

// timedApp times the App hooks System.Run calls, so the benchmark can take
// dataset generation and epoch seeding out of the simulation time.
type timedApp struct {
	core.App
	prepare, seed time.Duration
}

func (a *timedApp) Prepare(s *core.System) error {
	t := time.Now()
	err := a.App.Prepare(s)
	a.prepare += time.Since(t)
	return err
}

func (a *timedApp) SeedEpoch(s *core.System, ts uint32) bool {
	t := time.Now()
	more := a.App.SeedEpoch(s, ts)
	a.seed += time.Since(t)
	return more
}

// cellRun is one finished cell with its host-side costs in seconds.
type cellRun struct {
	res      *stats.Result
	reg      *ndpmetrics.Registry // modeMetrics and modeTraced only
	newS     float64              // core.New
	prepareS float64              // App.Prepare
	seedS    float64              // App.SeedEpoch, summed over epochs
	wallS    float64              // System.Run minus prepareS and seedS
	liveHeap uint64               // bytes after a forced GC, when measured
}

// runCell builds and runs c. With live it then forces a GC while the System
// is still reachable and records the live heap.
func runCell(c cell, m mode, live bool) (*cellRun, error) {
	t0 := time.Now()
	sys, err := core.New(c.cfg)
	newD := time.Since(t0)
	if err != nil {
		return nil, err
	}
	var reg *ndpmetrics.Registry
	switch m {
	case modeMetrics, modeTraced:
		reg = ndpmetrics.NewRegistry()
		sys.AttachMetrics(reg)
		if m == modeTraced {
			// Only the causal spans feed the critical path; the activity
			// event log is kept to one entry. The span capacity holds every
			// span of the 512-unit workloads, so no share is computed from
			// a truncated trace.
			rec := trace.New(1)
			rec.EnableFlows(spanCapacity)
			sys.AttachTrace(rec)
		}
	case modeAudited:
		if err := sys.AttachAudit(1 << 14); err != nil {
			return nil, err
		}
	}
	app := &timedApp{App: c.newApp()}
	t1 := time.Now()
	res, err := sys.Run(app)
	runD := time.Since(t1)
	if err != nil {
		return nil, fmt.Errorf("%s/%s: %w", c.app, c.cfg.Design, err)
	}
	if res.Crit != nil && res.Crit.DroppedSpans > 0 {
		return nil, fmt.Errorf("%s/%s: trace dropped %d spans", c.app, c.cfg.Design, res.Crit.DroppedSpans)
	}
	if res.TasksSpawned != res.TasksExecuted {
		return nil, fmt.Errorf("%s/%s: %d tasks spawned but %d executed",
			c.app, c.cfg.Design, res.TasksSpawned, res.TasksExecuted)
	}
	r := &cellRun{
		res:      res,
		reg:      reg,
		newS:     newD.Seconds(),
		prepareS: app.prepare.Seconds(),
		seedS:    app.seed.Seconds(),
		wallS:    (runD - app.prepare - app.seed).Seconds(),
	}
	if live {
		runtime.GC()
		r.liveHeap = readUint(liveHeapMetric)
		runtime.KeepAlive(sys)
	}
	return r, nil
}

// resultDigest hashes the deterministic fields of a result. The latency
// summaries and the critical-path block exist only on traced runs, so they
// are left out: a plain and an audited run of one cell must agree. The
// metrics sampler of a traced run schedules engine events of its own, so a
// traced run agrees with the others only with the event count left out too.
func resultDigest(r *stats.Result, events bool) string {
	d := *r
	d.TaskLatency, d.MsgLatency, d.Crit = stats.Latency{}, stats.Latency{}, nil
	if !events {
		d.Events = 0
	}
	b, err := json.Marshal(&d)
	if err != nil {
		panic(err) // stats.Result holds only numbers, strings and slices of them
	}
	return shortHash(b)
}

// roundDigest combines the digests of a round's results, in cell order.
func roundDigest(results []*stats.Result, events bool) string {
	var b strings.Builder
	for _, r := range results {
		b.WriteString(resultDigest(r, events))
	}
	return shortHash([]byte(b.String()))
}

func shortHash(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

const spanCapacity = 8 << 20

const (
	allocBytesMetric = "/gc/heap/allocs:bytes"
	liveHeapMetric   = "/gc/heap/live:bytes"
	gcCyclesMetric   = "/gc/cycles/total:gc-cycles"
)

// readUint reads one cumulative runtime/metrics counter.
func readUint(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
