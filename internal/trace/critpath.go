// Critical-path extraction. The recorded span graph is a forest: every span
// points at the span that caused it. Per epoch (bounded by epoch marks), the
// walk below finds the last span to finish inside the epoch (the thing the
// barrier was actually waiting for), follows its parent chain backwards, and
// bills every cycle of the epoch to exactly one attribution category — span
// time to the span's category, causal gaps and uncovered prefix to slack.
// Because the walk moves a single cursor monotonically from the epoch's end
// to its start and each step bills precisely the cycles the cursor moved, the
// categories sum to the epoch length by construction (property-tested).
package trace

import (
	"fmt"
	"sort"
	"strings"
)

// CatCycles is a per-category cycle attribution. Fields mirror the Category
// enum; JSON names are the machine-readable report schema.
type CatCycles struct {
	BankBusy    uint64 `json:"bank_busy"`
	TaskQueue   uint64 `json:"task_queue"`
	GatherBatch uint64 `json:"gather_batch"`
	BridgeQueue uint64 `json:"bridge_queue"`
	LBMigration uint64 `json:"lb_migration"`
	Retry       uint64 `json:"retry_backoff"`
	HostRT      uint64 `json:"host_roundtrip"`
	Slack       uint64 `json:"slack"`
}

// add bills n cycles to cat.
func (c *CatCycles) add(cat Category, n uint64) {
	switch cat {
	case CatBankBusy:
		c.BankBusy += n
	case CatTaskQueue:
		c.TaskQueue += n
	case CatGatherBatch:
		c.GatherBatch += n
	case CatBridgeQueue:
		c.BridgeQueue += n
	case CatLBMigration:
		c.LBMigration += n
	case CatRetry:
		c.Retry += n
	case CatHostRT:
		c.HostRT += n
	default:
		c.Slack += n
	}
}

// Get returns the cycles billed to cat.
func (c CatCycles) Get(cat Category) uint64 {
	switch cat {
	case CatBankBusy:
		return c.BankBusy
	case CatTaskQueue:
		return c.TaskQueue
	case CatGatherBatch:
		return c.GatherBatch
	case CatBridgeQueue:
		return c.BridgeQueue
	case CatLBMigration:
		return c.LBMigration
	case CatRetry:
		return c.Retry
	case CatHostRT:
		return c.HostRT
	default:
		return c.Slack
	}
}

// Total sums all categories.
func (c CatCycles) Total() uint64 {
	var t uint64
	for cat := Category(0); cat < nCategories; cat++ {
		t += c.Get(cat)
	}
	return t
}

// Accum adds o into c.
func (c *CatCycles) Accum(o CatCycles) {
	for cat := Category(0); cat < nCategories; cat++ {
		c.add(cat, o.Get(cat))
	}
}

// Dominant returns the category with the most cycles and its share of the
// total. Ties break toward the lower-numbered category, so the result is
// deterministic.
func (c CatCycles) Dominant() (Category, float64) {
	best, bestN := CatSlack, uint64(0)
	for cat := Category(0); cat < nCategories; cat++ {
		if n := c.Get(cat); n > bestN {
			best, bestN = cat, n
		}
	}
	total := c.Total()
	if total == 0 {
		return best, 0
	}
	return best, float64(bestN) / float64(total)
}

// EpochPath is the attribution of one epoch's wall-clock.
type EpochPath struct {
	Epoch uint32 `json:"epoch"`
	Start uint64 `json:"start"`
	End   uint64 `json:"end"`
	// PathSpans is the number of spans on the extracted critical path.
	PathSpans int       `json:"path_spans"`
	Attr      CatCycles `json:"attribution"`
}

// CritReport is the full critical-path analysis of one run.
type CritReport struct {
	Makespan     uint64      `json:"makespan"`
	SpanCount    int         `json:"spans"`
	DroppedSpans uint64      `json:"dropped_spans"`
	Epochs       []EpochPath `json:"epochs"`
	Total        CatCycles   `json:"total"`
}

// CritPath extracts the per-epoch critical path from the recorded spans and
// attributes the run's makespan to exclusive categories. Returns nil for a
// nil recorder.
func (r *Recorder) CritPath(makespan uint64) *CritReport {
	if r == nil {
		return nil
	}
	rep := &CritReport{
		Makespan:     makespan,
		SpanCount:    len(r.spans),
		DroppedSpans: r.spanDrops,
	}
	// Epoch boundaries: each epoch mark starts an epoch; the last epoch ends
	// at the makespan. No epoch marks (a system without barriers)
	// degenerates to one epoch covering the whole run.
	var marks []Mark
	for _, m := range r.marks {
		if m.Kind == MarkEpoch {
			marks = append(marks, m)
		}
	}
	// The barrier fires marks in time order, but sort defensively: the
	// sums-to-makespan invariant must hold for any input, not just
	// well-behaved recordings.
	sort.SliceStable(marks, func(i, j int) bool { return marks[i].At < marks[j].At })
	starts := make([]uint64, 0, len(marks)+1)
	nums := make([]uint32, 0, len(marks)+1)
	for _, em := range marks {
		if em.At >= makespan {
			break // barrier at (or past) the end bounds no residual epoch
		}
		starts = append(starts, em.At)
		nums = append(nums, em.N)
	}
	if len(starts) == 0 {
		starts = append(starts, 0)
		nums = append(nums, 0)
	}
	// Last span to finish per epoch. A span belongs to the epoch its End
	// falls in, with barrier-coincident ends ((s_i, s_i+1]-style) billed to
	// the epoch they conclude. Ties on End resolve to the later-recorded
	// span — a deterministic choice at any worker count, since recording
	// order is the (deterministic) event order of the single-threaded run.
	last := make([]int, len(starts)) // index into r.spans, -1 = none
	for i := range last {
		last[i] = -1
	}
	for i, sp := range r.spans {
		if sp.End > makespan {
			continue
		}
		e := sort.Search(len(starts), func(j int) bool { return starts[j] >= sp.End }) - 1
		if sp.Start == sp.End {
			// A zero-length span sitting exactly on a barrier (e.g. a task
			// seeded and popped at the epoch boundary) belongs to the epoch
			// it opens, not the one it concludes — otherwise it would win
			// the last-to-finish tie there and truncate the walk with an
			// empty parent chain.
			e = sort.Search(len(starts), func(j int) bool { return starts[j] > sp.End }) - 1
		}
		if e < 0 {
			e = 0
		}
		if last[e] < 0 || sp.End >= r.spans[last[e]].End {
			last[e] = i
		}
	}
	for e := range starts {
		lo := starts[e]
		hi := makespan
		if e+1 < len(starts) {
			hi = starts[e+1]
		}
		ep := EpochPath{Epoch: nums[e], Start: lo, End: hi}
		cur := hi
		idx := last[e]
		for idx >= 0 && cur > lo {
			sp := r.spans[idx]
			// Causal gap between this span's end and the cursor: time the
			// epoch spent that no parent-chain span explains. Clamped to the
			// epoch floor — chains crossing the barrier into the previous
			// epoch must not bill cycles outside this one.
			if sp.End < cur {
				gapTo := sp.End
				if gapTo < lo {
					gapTo = lo
				}
				ep.Attr.add(CatSlack, cur-gapTo)
				cur = gapTo
			}
			s := sp.Start
			if s < lo {
				s = lo
			}
			if s < cur {
				ep.Attr.add(sp.Cat, cur-s)
				cur = s
				ep.PathSpans++
			}
			if sp.Parent == 0 {
				break
			}
			idx = int(sp.Parent) - 1
		}
		if cur > lo {
			ep.Attr.add(CatSlack, cur-lo)
		}
		rep.Epochs = append(rep.Epochs, ep)
		rep.Total.Accum(ep.Attr)
	}
	return rep
}

// Dominant returns the run-level dominant category name and its share.
func (rep *CritReport) Dominant() (string, float64) {
	cat, frac := rep.Total.Dominant()
	return cat.String(), frac
}

// Render formats the report as a human-readable table: one row per epoch
// with the full category percentage breakdown, plus a totals row.
func (rep *CritReport) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "critical-path attribution (makespan %d cycles, %d spans", rep.Makespan, rep.SpanCount)
	if rep.DroppedSpans > 0 {
		fmt.Fprintf(&b, ", %d dropped", rep.DroppedSpans)
	}
	b.WriteString(")\n")
	fmt.Fprintf(&b, "%-7s %12s %6s", "epoch", "cycles", "path")
	for cat := Category(0); cat < nCategories; cat++ {
		fmt.Fprintf(&b, " %14s", cat)
	}
	b.WriteString("\n")
	row := func(label string, cycles uint64, pathSpans int, attr CatCycles) {
		fmt.Fprintf(&b, "%-7s %12d", label, cycles)
		if pathSpans >= 0 {
			fmt.Fprintf(&b, " %6d", pathSpans)
		} else {
			fmt.Fprintf(&b, " %6s", "-")
		}
		for cat := Category(0); cat < nCategories; cat++ {
			pct := 0.0
			if cycles > 0 {
				pct = 100 * float64(attr.Get(cat)) / float64(cycles)
			}
			fmt.Fprintf(&b, " %13.1f%%", pct)
		}
		b.WriteString("\n")
	}
	for _, ep := range rep.Epochs {
		row(fmt.Sprintf("%d", ep.Epoch), ep.End-ep.Start, ep.PathSpans, ep.Attr)
	}
	row("total", rep.Total.Total(), -1, rep.Total)
	cat, frac := rep.Dominant()
	fmt.Fprintf(&b, "dominant bottleneck: %s (%.1f%%)\n", cat, 100*frac)
	return b.String()
}
