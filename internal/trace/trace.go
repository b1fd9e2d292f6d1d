// Package trace records one stream of simulation activity: causal spans that
// follow each task and message through every hop of the unit → L1 bridge →
// L2 bridge → host path (span.go), plus marks for the system-level facts no
// span covers — epoch barriers, load-balancing commands, host-forward
// batches and injected faults. From that stream it renders a
// Chrome/Perfetto trace with flow arrows, per-unit utilization timelines,
// and the per-epoch critical path (critpath.go). Tracing is optional: a nil
// *Recorder is safe to pass everywhere and costs one branch.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"sort"

	"ndpbridge/internal/metrics"
	"ndpbridge/internal/task"
)

// Recorder accumulates spans and marks up to one capacity (to bound memory
// on long runs; the default keeps two million of each).
type Recorder struct {
	cap       int
	spans     []Span
	spanDrops uint64
	marks     []Mark
	markDrops uint64
	nextFlow  uint64
	// funcs names the task handler of each exec span at render time.
	funcs   *task.Registry
	catHist [nCategories]*metrics.Histogram
}

// New returns a recorder holding up to capacity spans and capacity marks
// (0 = default 2M).
func New(capacity int) *Recorder { return &Recorder{cap: capOrDefault(capacity)} }

// EnableFlows sets the capacity as New does. Spans are always recorded; the
// method stays only because the perfbench harness calls it.
func (r *Recorder) EnableFlows(capacity int) { r.cap = capOrDefault(capacity) }

func capOrDefault(capacity int) int {
	if capacity <= 0 {
		return 2_000_000
	}
	return capacity
}

// NameFuncs hands over the task registry whose names label exec spans in
// ChromeTrace. The registry may still be filling: names are read at render
// time.
func (r *Recorder) NameFuncs(reg *task.Registry) {
	if r != nil {
		r.funcs = reg
	}
}

// MarkKind classifies a Mark.
type MarkKind uint8

const (
	// MarkEpoch is a bulk-synchronization barrier: epoch N began at At.
	MarkEpoch MarkKind = iota
	// MarkLB is one load-balancing command from the level-N bridge to the
	// giver Actor (a unit for level 1, a rank for level 2).
	MarkLB
	// MarkHostBatch is one host-forward gather batch of N messages.
	MarkHostBatch
	// MarkStall is an injected stall of unit Actor over [At, End).
	MarkStall
	// MarkKill is an injected kill of unit Actor.
	MarkKill
	// MarkOverflow is an injected buffer overflow at rank N over [At, End).
	MarkOverflow
	nMarkKinds
)

var markKindNames = [nMarkKinds]string{"epoch", "lb", "host-batch", "stall", "kill", "overflow"}

func (k MarkKind) String() string {
	if int(k) < len(markKindNames) {
		return markKindNames[k]
	}
	return fmt.Sprintf("MarkKind(%d)", uint8(k))
}

// Mark is one system-level fact. Times are in NDP-core cycles; Actor is a
// unit ID, a bridge rank, or -1 for the whole system.
type Mark struct {
	Kind  MarkKind
	Actor int32
	N     uint32
	At    uint64
	End   uint64
}

// label is the mark's display name in ChromeTrace, built at render time.
func (m Mark) label() string {
	switch m.Kind {
	case MarkEpoch:
		return fmt.Sprintf("epoch %d", m.N)
	case MarkLB:
		return fmt.Sprintf("l%d-schedule", m.N)
	case MarkHostBatch:
		return fmt.Sprintf("host-forward %d msgs", m.N)
	case MarkOverflow:
		return fmt.Sprintf("overflow rank %d", m.N)
	}
	return m.Kind.String()
}

// Mark records one fact over [at, end]; end < at is clamped to at. Marks
// past the capacity are counted as dropped, except epoch marks, which bound
// the critical-path epochs and are always kept.
func (r *Recorder) Mark(k MarkKind, actor int, n uint32, at, end uint64) {
	if r == nil {
		return
	}
	if k != MarkEpoch && len(r.marks) >= r.cap {
		r.markDrops++
		return
	}
	if end < at {
		end = at
	}
	r.marks = append(r.marks, Mark{Kind: k, Actor: int32(actor), N: n, At: at, End: end})
}

// Marks returns the retained marks in recording order (do not modify).
func (r *Recorder) Marks() []Mark {
	if r == nil {
		return nil
	}
	return r.marks
}

// DroppedMarks returns how many marks exceeded the capacity.
func (r *Recorder) DroppedMarks() uint64 {
	if r == nil {
		return 0
	}
	return r.markDrops
}

// ChromeTrace writes the stream as a Chrome/Perfetto trace JSON array: one
// "X" event per span and per mark, and one flow arrow ("s"/"f" event pair)
// per parent→child span edge, so Perfetto renders the unit→bridge→host
// chains as connected arrows. Actors appear as thread lanes; cycle
// timestamps are emitted as microseconds so the viewer's time axis reads
// directly in cycles. The first record is metadata carrying the retained and
// dropped counts, so a consumer can tell a complete capture from one
// truncated at the cap. A nil recorder writes a valid trace holding only
// that record.
func (r *Recorder) ChromeTrace(w io.Writer) error {
	capacity := 0
	if r != nil {
		capacity = r.cap
	}
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw,
		`[`+"\n"+`  {"name":"ndpbridge_trace_info","ph":"M","pid":0,"tid":0,"args":{"spans":%d,"spans_dropped":%d,"marks":%d,"marks_dropped":%d,"capacity":%d}}`,
		r.SpanCount(), r.DroppedSpans(), len(r.Marks()), r.DroppedMarks(), capacity); err != nil {
		return err
	}
	spans := r.Spans()
	for i, sp := range spans {
		name := sp.Kind.String()
		if sp.Kind == SpanExec && r.funcs != nil {
			name = r.funcs.Name(sp.Func)
		}
		if _, err := fmt.Fprintf(bw,
			",\n"+`  {"name":%q,"cat":%q,"ph":"X","ts":%d,"dur":%d,"pid":0,"tid":%d,"args":{"flow":%d,"span":%d,"parent":%d}}`,
			name, sp.Cat, sp.Start, viewDur(sp.Start, sp.End), sp.Actor+1, sp.Flow, i+1, sp.Parent); err != nil {
			return err
		}
	}
	for _, m := range r.Marks() {
		if _, err := fmt.Fprintf(bw,
			",\n"+`  {"name":%q,"cat":%q,"ph":"X","ts":%d,"dur":%d,"pid":0,"tid":%d}`,
			m.label(), m.Kind, m.At, viewDur(m.At, m.End), m.Actor+1); err != nil {
			return err
		}
	}
	// Flow arrows: the "s" (start) event sits on the parent span's lane at
	// the causal handoff instant, the "f" (finish, bp:"e") event on the
	// child's lane at the child's start. The arrow ID is the child span's ID,
	// unique per edge since each span has exactly one parent.
	for i, sp := range spans {
		if sp.Parent == 0 {
			continue
		}
		parent := spans[sp.Parent-1]
		handoff := parent.End
		if handoff > sp.Start {
			handoff = sp.Start
		}
		if handoff < parent.Start {
			handoff = parent.Start
		}
		if _, err := fmt.Fprintf(bw,
			",\n"+`  {"name":"flow","cat":"flow","ph":"s","id":%d,"ts":%d,"pid":0,"tid":%d}`+
				",\n"+`  {"name":"flow","cat":"flow","ph":"f","bp":"e","id":%d,"ts":%d,"pid":0,"tid":%d}`,
			i+1, handoff, parent.Actor+1, i+1, sp.Start, sp.Actor+1); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("\n]\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// viewDur is an interval's duration for the viewer: zero-length intervals
// get 1 so they render.
func viewDur(start, end uint64) uint64 {
	if end <= start {
		return 1
	}
	return end - start
}

// Utilization returns, for each actor, the fraction of each of `buckets`
// equal time slices of [0, makespan) covered by task execution (exec
// spans). Actors are returned in ascending ID order alongside the matrix.
func (r *Recorder) Utilization(makespan uint64, buckets int) (actors []int, util [][]float64) {
	if r == nil || makespan == 0 || buckets <= 0 {
		return nil, nil
	}
	per := make(map[int][]float64)
	width := float64(makespan) / float64(buckets)
	for _, sp := range r.spans {
		if sp.Kind != SpanExec {
			continue
		}
		actor := int(sp.Actor)
		row := per[actor]
		if row == nil {
			row = make([]float64, buckets)
			per[actor] = row
		}
		// Spread the interval across the buckets it overlaps.
		s, t := float64(sp.Start), float64(sp.End)
		for b := int(s / width); b < buckets && float64(b)*width < t; b++ {
			lo := float64(b) * width
			hi := lo + width
			if s > lo {
				lo = s
			}
			if t < hi {
				hi = t
			}
			if hi > lo {
				row[b] += (hi - lo) / width
			}
		}
	}
	for a := range per {
		actors = append(actors, a)
	}
	sort.Ints(actors)
	for _, a := range actors {
		util = append(util, per[a])
	}
	return actors, util
}

// Heatmap renders the utilization matrix as a coarse ASCII heatmap, one row
// per actor — handy for eyeballing imbalance in a terminal.
func (r *Recorder) Heatmap(makespan uint64, buckets int) string {
	actors, util := r.Utilization(makespan, buckets)
	shades := []byte(" .:-=+*#%@")
	out := make([]byte, 0, len(actors)*(buckets+8))
	for i, a := range actors {
		out = append(out, []byte(fmt.Sprintf("%4d |", a))...)
		for _, u := range util[i] {
			idx := int(u * float64(len(shades)-1))
			if idx >= len(shades) {
				idx = len(shades) - 1
			}
			if idx < 0 {
				idx = 0
			}
			out = append(out, shades[idx])
		}
		out = append(out, '|', '\n')
	}
	return string(out)
}
