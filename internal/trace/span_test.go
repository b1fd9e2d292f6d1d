package trace

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"strings"
	"testing"
	"unsafe"

	"ndpbridge/internal/metrics"
	"ndpbridge/internal/task"
)

func TestNilRecorderSpansSafe(t *testing.T) {
	var r *Recorder
	if id := r.Span(1, 0, SpanExec, CatBankBusy, 0, 0, 10); id != 0 {
		t.Errorf("nil recorder Span = %d, want 0", id)
	}
	if id := r.StartTask(&task.Task{ID: 1}, 0, 0); id != 0 {
		t.Errorf("nil recorder StartTask = %d, want 0", id)
	}
	r.CloseSpan(1, 5)
	r.Mark(MarkEpoch, -1, 0, 0, 0)
	if r.NewFlow() != 0 || r.SpanCount() != 0 || r.DroppedSpans() != 0 {
		t.Error("nil recorder span state must be inert")
	}
	if r.CritPath(100) != nil {
		t.Error("nil recorder CritPath must be nil")
	}
}

// TestSpanStays40Bytes pins the Span layout: the exec span's FuncID lives in
// what would otherwise be padding.
func TestSpanStays40Bytes(t *testing.T) {
	if n := unsafe.Sizeof(Span{}); n != 40 {
		t.Errorf("Span is %d bytes, want 40", n)
	}
}

func TestSpanCapAndDrops(t *testing.T) {
	r := New(3)
	var last uint32
	for i := 0; i < 5; i++ {
		last = r.Span(1, last, SpanExec, CatBankBusy, 0, uint64(i), uint64(i+1))
	}
	if r.SpanCount() != 3 {
		t.Errorf("SpanCount = %d, want 3 (capped)", r.SpanCount())
	}
	if r.DroppedSpans() != 2 {
		t.Errorf("DroppedSpans = %d, want 2", r.DroppedSpans())
	}
	if last != 0 {
		t.Errorf("dropped span returned id %d, want 0 (a valid root parent)", last)
	}
	// StartTask drops both its queued and its exec span past the cap.
	if id := r.StartTask(&task.Task{ID: 1}, 0, 9); id != 0 {
		t.Errorf("StartTask past cap = %d, want 0", id)
	}
	if r.DroppedSpans() != 4 {
		t.Errorf("DroppedSpans = %d, want 4", r.DroppedSpans())
	}
	// The drop counts surface in the ChromeTrace metadata record.
	var buf bytes.Buffer
	if err := r.ChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"spans":3,"spans_dropped":4`) {
		t.Errorf("metadata missing span drop counts:\n%s", buf.String())
	}
}

func TestSpanClampsReversedInterval(t *testing.T) {
	r := New(10)
	r.Span(1, 0, SpanExec, CatBankBusy, 0, 50, 20)
	sp := r.Spans()[0]
	if sp.Start != 20 || sp.End != 20 {
		t.Errorf("reversed span = [%d,%d], want clamped to [20,20]", sp.Start, sp.End)
	}
	id := r.StartTask(&task.Task{ID: 1, SpawnedAt: 30}, 0, 30)
	r.CloseSpan(id, 10) // close before open: clamp to zero length
	sp = r.Spans()[id-1]
	if sp.Start != 30 || sp.End != 30 {
		t.Errorf("reversed close = [%d,%d], want [30,30]", sp.Start, sp.End)
	}
	r.CloseSpan(0, 99)   // id 0 = dropped span: no-op
	r.CloseSpan(999, 99) // out of range: no-op
}

func TestNewFlowDisjointFromTaskIDs(t *testing.T) {
	r := New(10)
	a, b := r.NewFlow(), r.NewFlow()
	if a == b {
		t.Error("NewFlow returned the same ID twice")
	}
	if a&(1<<63) == 0 || b&(1<<63) == 0 {
		t.Error("NewFlow IDs must carry the high bit to stay disjoint from task IDs")
	}
}

func TestFlowTraceIsValidJSON(t *testing.T) {
	reg := task.NewRegistry()
	fn := reg.Register(`label "quoted" \ and
control`, func(task.Ctx, task.Task) {})
	r := New(10)
	r.NameFuncs(reg)
	root := r.Span(1, 0, SpanDeliver, CatGatherBatch, 0, 0, 5)
	exec := r.StartTask(&task.Task{Func: fn, Span: root}, 0, 5)
	r.CloseSpan(exec, 20)
	r.Span(1, exec, SpanMailbox, CatGatherBatch, 1, 20, 30)
	var buf bytes.Buffer
	if err := r.ChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("FlowTrace is not valid JSON: %v\n%s", err, buf.String())
	}
	var spans, starts, finishes int
	for _, ev := range events {
		switch ev["ph"] {
		case "X":
			if args, ok := ev["args"].(map[string]any); ok {
				if _, isSpan := args["span"]; isSpan {
					spans++
				}
			}
		case "s":
			starts++
		case "f":
			finishes++
		}
	}
	if spans != 4 {
		t.Errorf("%d span events, want 4", spans)
	}
	// Three spans have parents, so three arrows, each an s/f pair.
	if starts != 3 || finishes != 3 {
		t.Errorf("%d/%d arrow events, want 3/3", starts, finishes)
	}
}

func TestFlowTraceEmptyAndNil(t *testing.T) {
	for name, r := range map[string]*Recorder{"nil": nil, "empty": New(10)} {
		var buf bytes.Buffer
		if err := r.ChromeTrace(&buf); err != nil {
			t.Fatalf("%s recorder: %v", name, err)
		}
		var events []map[string]any
		if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
			t.Fatalf("%s recorder trace invalid: %v", name, err)
		}
		if len(events) != 1 {
			t.Errorf("%s recorder: %d events, want just the metadata record", name, len(events))
		}
	}
}

func TestBindMetricsFeedsCategoryHistograms(t *testing.T) {
	r := New(10)
	reg := metrics.NewRegistry()
	r.BindMetrics(reg)
	id := r.StartTask(&task.Task{ID: 1}, 0, 40) // queued [0,40], exec opens at 40
	r.CloseSpan(id, 100)
	if n := reg.FindHistogram("wait_task_queue_cycles").Count(); n != 1 {
		t.Errorf("wait_task_queue_cycles count = %d, want 1", n)
	}
	h := reg.FindHistogram("wait_bank_busy_cycles")
	if h.Count() != 1 {
		t.Errorf("wait_bank_busy_cycles count = %d, want 1", h.Count())
	}
	if m := h.Mean(); m != 60 {
		t.Errorf("wait_bank_busy_cycles mean = %v, want 60", m)
	}
}

func TestCritPathSimpleChain(t *testing.T) {
	r := New(10)
	r.Mark(MarkEpoch, -1, 0, 0, 0)
	// queued [0,10] → exec [10,30] → mailbox [30,70] → exec [70,100]
	q := r.Span(1, 0, SpanQueued, CatTaskQueue, 0, 0, 10)
	e1 := r.Span(1, q, SpanExec, CatBankBusy, 0, 10, 30)
	m := r.Span(1, e1, SpanMailbox, CatGatherBatch, 0, 30, 70)
	r.Span(1, m, SpanExec, CatBankBusy, 1, 70, 100)
	// A decoy on another flow that finishes earlier.
	r.Span(2, 0, SpanExec, CatBankBusy, 2, 0, 60)
	// Non-epoch marks do not bound epochs.
	r.Mark(MarkLB, 0, 1, 50, 50)
	r.Mark(MarkStall, 1, 0, 20, 80)
	rep := r.CritPath(100)
	if len(rep.Epochs) != 1 {
		t.Fatalf("%d epochs, want 1", len(rep.Epochs))
	}
	ep := rep.Epochs[0]
	if ep.PathSpans != 4 {
		t.Errorf("PathSpans = %d, want 4", ep.PathSpans)
	}
	want := CatCycles{BankBusy: 50, TaskQueue: 10, GatherBatch: 40}
	if ep.Attr != want {
		t.Errorf("Attr = %+v, want %+v", ep.Attr, want)
	}
	if cat, frac := rep.Total.Dominant(); cat != CatBankBusy || frac != 0.5 {
		t.Errorf("Dominant = %v %.2f, want bank-busy 0.50", cat, frac)
	}
}

func TestCritPathBillsGapsToSlack(t *testing.T) {
	r := New(10)
	r.Mark(MarkEpoch, -1, 0, 0, 0)
	// Parent ends at 20, child starts at 50: a 30-cycle causal gap. The
	// epoch also has a 10-cycle untracked tail (90→100).
	p := r.Span(1, 0, SpanExec, CatBankBusy, 0, 0, 20)
	r.Span(1, p, SpanDeliver, CatHostRT, 1, 50, 90)
	rep := r.CritPath(100)
	want := CatCycles{BankBusy: 20, HostRT: 40, Slack: 40}
	if rep.Epochs[0].Attr != want {
		t.Errorf("Attr = %+v, want %+v", rep.Epochs[0].Attr, want)
	}
}

func TestCritPathZeroLengthBarrierSpan(t *testing.T) {
	r := New(10)
	r.Mark(MarkEpoch, -1, 0, 0, 0)
	r.Mark(MarkEpoch, -1, 1, 50, 50)
	// Real epoch-0 work ending exactly at the barrier.
	r.Span(1, 0, SpanExec, CatBankBusy, 0, 10, 50)
	// A zero-length queued span sitting on the barrier (a task seeded and
	// popped at the epoch boundary) — it must bill to epoch 1, not steal
	// epoch 0's last-to-finish slot with an empty parent chain.
	r.Span(2, 0, SpanQueued, CatTaskQueue, 0, 50, 50)
	r.Span(2, 2, SpanExec, CatBankBusy, 0, 50, 100)
	rep := r.CritPath(100)
	if got := rep.Epochs[0].Attr.BankBusy; got != 40 {
		t.Errorf("epoch 0 bank-busy = %d, want 40", got)
	}
	if got := rep.Epochs[1].Attr.BankBusy; got != 50 {
		t.Errorf("epoch 1 bank-busy = %d, want 50", got)
	}
}

// TestCritPathAttributionSumsToMakespan is the core invariant, property-style:
// random span forests and epoch marks, every epoch's attribution must sum
// exactly to the epoch's length and the total to the makespan.
func TestCritPathAttributionSumsToMakespan(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5eed))
	for trial := 0; trial < 200; trial++ {
		r := New(0)
		makespan := uint64(rng.Intn(5000) + 100)
		// Epoch marks: 0..4 extra barriers at random cycles (mark 0 always).
		r.Mark(MarkEpoch, -1, 0, 0, 0)
		nEpochs := rng.Intn(5)
		for i := 0; i < nEpochs; i++ {
			at := uint64(rng.Intn(int(makespan) + 200))
			r.Mark(MarkEpoch, -1, uint32(i+1), at, at)
		}
		// Random forest: each span picks any earlier span (or none) as its
		// parent and a random interval, sometimes zero-length, sometimes
		// past the makespan.
		nSpans := rng.Intn(120)
		for i := 0; i < nSpans; i++ {
			var parent uint32
			if i > 0 && rng.Intn(3) > 0 {
				parent = uint32(rng.Intn(i) + 1)
			}
			start := uint64(rng.Intn(int(makespan) + 100))
			end := start + uint64(rng.Intn(200))
			if rng.Intn(5) == 0 {
				end = start
			}
			r.Span(uint64(rng.Intn(8)+1), parent, SpanKind(rng.Intn(int(nSpanKinds))),
				Category(rng.Intn(NumCategories)), rng.Intn(4), start, end)
		}
		rep := r.CritPath(makespan)
		var covered uint64
		for _, ep := range rep.Epochs {
			if got, want := ep.Attr.Total(), ep.End-ep.Start; got != want {
				t.Fatalf("trial %d: epoch %d attribution sums to %d, epoch is %d cycles",
					trial, ep.Epoch, got, want)
			}
			covered += ep.End - ep.Start
		}
		if covered != makespan {
			t.Fatalf("trial %d: epochs cover %d of %d cycles", trial, covered, makespan)
		}
		if rep.Total.Total() != makespan {
			t.Fatalf("trial %d: total attribution %d != makespan %d", trial, rep.Total.Total(), makespan)
		}
	}
}

func TestCritPathNoEpochMarks(t *testing.T) {
	r := New(10)
	r.Span(1, 0, SpanExec, CatBankBusy, 0, 0, 100)
	rep := r.CritPath(100)
	if len(rep.Epochs) != 1 || rep.Epochs[0].Start != 0 || rep.Epochs[0].End != 100 {
		t.Fatalf("markless run must degenerate to one epoch, got %+v", rep.Epochs)
	}
	if rep.Total.BankBusy != 100 {
		t.Errorf("bank-busy = %d, want 100", rep.Total.BankBusy)
	}
}

func TestCritPathRenderDeterministic(t *testing.T) {
	build := func() string {
		r := New(10)
		r.Mark(MarkEpoch, -1, 0, 0, 0)
		r.Mark(MarkEpoch, -1, 1, 40, 40)
		a := r.Span(1, 0, SpanQueued, CatTaskQueue, 0, 0, 15)
		r.Span(1, a, SpanExec, CatBankBusy, 0, 15, 40)
		r.Span(2, 0, SpanBridgeQ, CatBridgeQueue, 1, 40, 90)
		return r.CritPath(100).Render()
	}
	if build() != build() {
		t.Error("Render is not deterministic")
	}
	out := build()
	for _, want := range []string{"critical-path attribution", "dominant bottleneck:", "total"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render missing %q:\n%s", want, out)
		}
	}
}
