// Causal flow spans. A flow is a causal chain that follows a root task (or a
// migrated data block) through every hop of the unit → L1 bridge → L2 bridge
// → host path. Each hop is a Span carrying the flow ID, a link to its parent
// span, a kind (what the flow was doing) and a category (who gets billed for
// the time). Spans feed the Perfetto export (ChromeTrace), the utilization
// heatmap and the critical-path analysis (CritPath). Every method is a no-op
// on a nil recorder, so hot call sites stay allocation-free when tracing is
// off.
package trace

import (
	"fmt"
	"strings"

	"ndpbridge/internal/metrics"
	"ndpbridge/internal/task"
)

// SpanKind says what the flow was doing during the span.
type SpanKind uint8

const (
	// SpanQueued is time a task spent in a unit's (or host core's) ready
	// queue between enqueue and execution start.
	SpanQueued SpanKind = iota
	// SpanExec is one task execution.
	SpanExec
	// SpanMailbox is time a staged message waited in a unit mailbox before
	// a bridge or the host drained it.
	SpanMailbox
	// SpanBridgeQ is time spent in a bridge buffer (scatter queue, upMail).
	SpanBridgeQ
	// SpanDeliver is the final in-flight leg ending at a destination commit.
	SpanDeliver
	// SpanBlocked is a backpressure refusal: a drain was skipped because the
	// retransmit window was full (blocked on credit).
	SpanBlocked
	// SpanRetx is a retransmission wait: the round-trip that timed out (or
	// was nacked) before the link layer resent the message.
	SpanRetx
	nSpanKinds
)

var spanKindNames = [nSpanKinds]string{
	"queued", "exec", "mailbox", "bridgeq", "deliver", "blocked", "retx",
}

func (k SpanKind) String() string {
	if int(k) < len(spanKindNames) {
		return spanKindNames[k]
	}
	return fmt.Sprintf("SpanKind(%d)", uint8(k))
}

// Category is the exclusive makespan-attribution bucket a span bills to.
// The critical-path walk charges every cycle of an epoch to exactly one
// category, so the categories must partition "where did the time go".
type Category uint8

const (
	// CatBankBusy: an NDP core (or host core) was executing a task.
	CatBankBusy Category = iota
	// CatTaskQueue: a ready task waited behind others in a unit queue.
	CatTaskQueue
	// CatGatherBatch: a message waited for a bridge gather/scatter round to
	// pick it up (batching delay).
	CatGatherBatch
	// CatBridgeQueue: a message waited in a bridge buffer.
	CatBridgeQueue
	// CatLBMigration: a load-balancing command or migrated data block was in
	// flight.
	CatLBMigration
	// CatRetry: retransmission round-trips and credit stalls.
	CatRetry
	// CatHostRT: host / level-2 channel round-trips (polling, forwarding,
	// cross-rank batches).
	CatHostRT
	// CatSlack is residual time no recorded span explains (barrier kicks,
	// untracked gaps). The attribution walk never leaves cycles unbilled, so
	// honest slack is reported rather than silently absorbed.
	CatSlack
	nCategories
)

// NumCategories is the number of attribution categories (including slack).
const NumCategories = int(nCategories)

var categoryNames = [nCategories]string{
	"bank-busy", "task-queue", "gather-batch", "bridge-queue",
	"lb-migration", "retry-backoff", "host-roundtrip", "slack",
}

func (c Category) String() string {
	if int(c) < len(categoryNames) {
		return categoryNames[c]
	}
	return fmt.Sprintf("Category(%d)", uint8(c))
}

// Span is one causally-linked interval of a flow. Parent is the 1-based ID
// of the span that caused this one (0 = root): parents are always recorded
// before children, so Parent < this span's own ID and parent walks terminate.
// Func names the task handler of an exec span; it fills padding, so a Span
// stays 40 bytes.
type Span struct {
	Flow   uint64
	Start  uint64
	End    uint64
	Parent uint32
	Actor  int32
	Kind   SpanKind
	Cat    Category
	Func   task.FuncID
}

// NewFlow issues a fresh flow ID for roots that are not tasks (migrated
// blocks, LB commands). The high bit keeps these IDs disjoint from task IDs,
// which seed task flows directly.
func (r *Recorder) NewFlow() uint64 {
	if r == nil {
		return 0
	}
	r.nextFlow++
	return r.nextFlow | 1<<63
}

// Span records one closed causal span and returns its 1-based ID (0 when
// the recorder is nil or the span is dropped — a valid Parent for
// subsequent spans either way). End < Start is clamped to a zero-length
// span at End.
func (r *Recorder) Span(flow uint64, parent uint32, k SpanKind, cat Category, actor int, start, end uint64) uint32 {
	if r == nil {
		return 0
	}
	if end < start {
		start = end
	}
	id := r.push(Span{Flow: flow, Start: start, End: end, Parent: parent, Actor: int32(actor), Kind: k, Cat: cat})
	if id != 0 {
		r.catHist[cat].Observe(end - start)
	}
	return id
}

// push appends sp and returns its ID, or counts it dropped past the cap.
func (r *Recorder) push(sp Span) uint32 {
	if len(r.spans) >= r.cap {
		r.spanDrops++
		return 0
	}
	r.spans = append(r.spans, sp)
	return uint32(len(r.spans))
}

// StartTask records the ready-queue wait of task t, which starts executing
// on actor at cycle now, and opens its exec span (End == Start until
// CloseSpan). It returns the exec span's ID, which children spawned by the
// handler reference as their parent.
func (r *Recorder) StartTask(t *task.Task, actor int, now uint64) uint32 {
	if r == nil {
		return 0
	}
	flow, enq := r.TaskOrigin(t.Span, t.ID, t.SpawnedAt)
	q := r.Span(flow, t.Span, SpanQueued, CatTaskQueue, actor, enq, now)
	return r.push(Span{Flow: flow, Start: now, End: now, Parent: q, Actor: int32(actor),
		Kind: SpanExec, Cat: CatBankBusy, Func: t.Func})
}

// TaskOrigin resolves the flow and queue-entry cycle of a task about to
// execute from its causal parent span. Tasks carry only the parent span ID
// (one uint32 — keeping the Task struct a single cache line); the flow is
// read back from the parent record, which is always closed by pickup time:
// exec spans close synchronously with the spawning handler, hop spans close
// at record time. A parentless task is a flow root keyed by its own ID.
// Exec-span parents mean a locally-spawned child, whose queue wait began at
// its spawn cycle; any other parent is a delivery hop, whose End is the
// moment the task entered this queue.
func (r *Recorder) TaskOrigin(span uint32, id, spawnedAt uint64) (flow, enq uint64) {
	if r == nil || span == 0 || int(span) > len(r.spans) {
		return id, spawnedAt
	}
	sp := r.spans[span-1]
	if sp.Kind == SpanExec {
		return sp.Flow, spawnedAt
	}
	return sp.Flow, sp.End
}

// CloseSpan sets the end of an exec span opened by StartTask and bills its
// duration to the span's category histogram.
func (r *Recorder) CloseSpan(id uint32, end uint64) {
	if r == nil || id == 0 || int(id) > len(r.spans) {
		return
	}
	sp := &r.spans[id-1]
	if end < sp.Start {
		end = sp.Start
	}
	sp.End = end
	r.catHist[sp.Cat].Observe(end - sp.Start)
}

// Spans returns the retained spans (do not modify).
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	return r.spans
}

// SpanCount returns the number of retained spans.
func (r *Recorder) SpanCount() int {
	if r == nil {
		return 0
	}
	return len(r.spans)
}

// DroppedSpans returns how many spans exceeded the capacity.
func (r *Recorder) DroppedSpans() uint64 {
	if r == nil {
		return 0
	}
	return r.spanDrops
}

// BindMetrics attaches one wait-time histogram per attribution category
// (wait_<category>_cycles) so span durations also feed the instrument
// registry. Nil-safe on both sides.
func (r *Recorder) BindMetrics(reg *metrics.Registry) {
	if r == nil {
		return
	}
	for c := 0; c < NumCategories; c++ {
		name := "wait_" + strings.ReplaceAll(categoryNames[c], "-", "_") + "_cycles"
		r.catHist[c] = reg.Histogram(name)
	}
}
