package experiments

import (
	"fmt"
	"sort"
	"sync"

	"ndpbridge/internal/stats"
	"ndpbridge/internal/trace"
)

// Flow-trace collection across the worker pool, mirroring the metrics
// aggregate: each run gets a private span recorder, and
// its critical-path summary is folded into the package row set after the run
// finishes, under flowMu. TakeCrit returns the rows sorted by every field, so
// the output is deterministic at any worker count — the multiset of runs is
// fixed even though their completion order is not.

var (
	flowMu   sync.Mutex
	flowOn   bool
	flowCap  int
	flowRows []CritRow
)

// CritRow is one run's critical-path attribution summary.
type CritRow struct {
	App      string
	Design   string
	Makespan uint64
	Crit     stats.Crit
}

// EnableFlowTrace starts collecting per-run critical-path summaries.
// spanCap bounds each run's retained spans (0 = trace default). Pair with
// TakeCrit. While enabled, the campaign checkpoint cache is bypassed: a
// cached result cannot reproduce spans.
func EnableFlowTrace(spanCap int) {
	flowMu.Lock()
	defer flowMu.Unlock()
	flowOn = true
	flowCap = spanCap
	flowRows = nil
}

// TakeCrit returns the rows accumulated since EnableFlowTrace, sorted by all
// fields, and turns collection off. Returns nil when never enabled.
func TakeCrit() []CritRow {
	flowMu.Lock()
	defer flowMu.Unlock()
	rows := flowRows
	flowOn, flowCap, flowRows = false, 0, nil
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		if a.App != b.App {
			return a.App < b.App
		}
		if a.Design != b.Design {
			return a.Design < b.Design
		}
		return a.Makespan < b.Makespan
	})
	return rows
}

func flowTraceConfig() (int, bool) {
	flowMu.Lock()
	defer flowMu.Unlock()
	return flowCap, flowOn
}

func flowTraceEnabled() bool {
	_, on := flowTraceConfig()
	return on
}

// attachFlowTrace arms a run with a recorder when collection is on and the
// caller did not attach its own.
func attachFlowTrace(attach func(*trace.Recorder), existing *trace.Recorder) {
	if capacity, on := flowTraceConfig(); on && existing == nil {
		attach(trace.New(capacity))
	}
}

func addCritRow(row CritRow) {
	flowMu.Lock()
	defer flowMu.Unlock()
	if flowOn {
		flowRows = append(flowRows, row)
	}
}

// CritTable renders the collected rows as a bottleneck table: one row per
// (app, design) with the dominant category and the full percentage split.
func CritTable(rows []CritRow) *stats.Table {
	t := &stats.Table{
		Title: "Critical-path bottleneck attribution (% of makespan)",
		Header: []string{"app", "design", "dominant", "bank", "queue", "gather",
			"bridge", "lb", "retry", "host", "slack"},
	}
	for _, row := range rows {
		c := row.Crit
		total := c.BankBusy + c.TaskQueue + c.GatherBatch + c.BridgeQueue +
			c.LBMigration + c.Retry + c.HostRT + c.Slack
		p := func(v uint64) string {
			if total == 0 {
				return "-"
			}
			return fmt.Sprintf("%.1f%%", 100*float64(v)/float64(total))
		}
		t.Rows = append(t.Rows, []string{
			row.App, row.Design,
			fmt.Sprintf("%s (%.1f%%)", c.Dominant, c.DominantPct),
			p(c.BankBusy), p(c.TaskQueue), p(c.GatherBatch), p(c.BridgeQueue),
			p(c.LBMigration), p(c.Retry), p(c.HostRT), p(c.Slack),
		})
	}
	return t
}
