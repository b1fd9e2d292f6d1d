package trace

import (
	"encoding/json"
	"strings"
	"testing"

	"ndpbridge/internal/task"
)

// exec records a closed exec span of actor over [start, end].
func exec(r *Recorder, actor int, start, end uint64) {
	r.Span(1, 0, SpanExec, CatBankBusy, actor, start, end)
}

func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	r.Mark(MarkStall, 0, 0, 0, 10) // must not panic
	r.NameFuncs(task.NewRegistry())
	if r.Marks() != nil || r.DroppedMarks() != 0 {
		t.Error("nil recorder must be inert")
	}
	if a, u := r.Utilization(100, 10); a != nil || u != nil {
		t.Error("nil recorder utilization must be empty")
	}
}

func TestRecordAndCap(t *testing.T) {
	r := New(3)
	for i := 0; i < 5; i++ {
		r.Mark(MarkLB, 1, 1, uint64(i), uint64(i))
	}
	if n := len(r.Marks()); n != 3 {
		t.Errorf("%d marks retained, want 3 (capped)", n)
	}
	if r.DroppedMarks() != 2 {
		t.Errorf("DroppedMarks = %d, want 2", r.DroppedMarks())
	}
	// Epoch marks bound the critical-path epochs and are never dropped.
	r.Mark(MarkEpoch, -1, 0, 0, 0)
	r.Mark(MarkEpoch, -1, 1, 9, 9)
	if n := len(r.Marks()); n != 5 || r.DroppedMarks() != 2 {
		t.Errorf("after two epoch marks: %d retained, %d dropped; want 5, 2", n, r.DroppedMarks())
	}
	if rep := r.CritPath(20); len(rep.Epochs) != 2 {
		t.Errorf("CritPath saw %d epochs, want 2", len(rep.Epochs))
	}
}

func TestRecordClampsReversedInterval(t *testing.T) {
	r := New(0)
	r.Mark(MarkStall, 0, 0, 50, 10)
	m := r.Marks()[0]
	if m.At != 50 || m.End != 50 {
		t.Errorf("reversed mark = [%d,%d], want clamped to [50,50]", m.At, m.End)
	}
}

func TestChromeTraceIsValidJSON(t *testing.T) {
	reg := task.NewRegistry()
	fn := reg.Register("app.visit", func(task.Ctx, task.Task) {})
	r := New(0)
	r.NameFuncs(reg)
	id := r.StartTask(&task.Task{Func: fn, ID: 7}, 0, 0)
	r.CloseSpan(id, 100)
	r.Span(7, id, SpanDeliver, CatGatherBatch, 1, 50, 60)
	r.Mark(MarkEpoch, -1, 1, 100, 100)
	r.Mark(MarkHostBatch, -1, 4, 20, 80)
	var b strings.Builder
	if err := r.ChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	var parsed []map[string]any
	if err := json.Unmarshal([]byte(b.String()), &parsed); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, b.String())
	}
	// metadata + 3 spans (queued, exec, deliver) + 2 marks + 2 arrows × s/f
	if len(parsed) != 10 {
		t.Fatalf("parsed %d records", len(parsed))
	}
	if parsed[0]["name"] != "ndpbridge_trace_info" {
		t.Errorf("first record is not metadata: %v", parsed[0])
	}
	args := parsed[0]["args"].(map[string]any)
	if args["spans"].(float64) != 3 || args["spans_dropped"].(float64) != 0 ||
		args["marks"].(float64) != 2 || args["marks_dropped"].(float64) != 0 {
		t.Errorf("metadata args wrong: %v", args)
	}
	names := []string{"queued", "app.visit", "deliver", "epoch 1", "host-forward 4 msgs"}
	for i, want := range names {
		if parsed[i+1]["name"] != want {
			t.Errorf("record %d name = %v, want %q", i+1, parsed[i+1]["name"], want)
		}
	}
	// Zero-duration records get dur=1 so viewers render them.
	if parsed[1]["dur"].(float64) != 1 || parsed[4]["dur"].(float64) != 1 {
		t.Errorf("zero-duration dur = %v, %v", parsed[1]["dur"], parsed[4]["dur"])
	}
}

func TestChromeTraceReportsDrops(t *testing.T) {
	r := New(2)
	for i := 0; i < 5; i++ {
		exec(r, 0, uint64(i), uint64(i+1))
		r.Mark(MarkKill, 0, 0, uint64(i), uint64(i))
	}
	var b strings.Builder
	if err := r.ChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	var parsed []map[string]any
	if err := json.Unmarshal([]byte(b.String()), &parsed); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	args := parsed[0]["args"].(map[string]any)
	if args["spans"].(float64) != 2 || args["spans_dropped"].(float64) != 3 ||
		args["marks"].(float64) != 2 || args["marks_dropped"].(float64) != 3 || args["capacity"].(float64) != 2 {
		t.Errorf("metadata args = %v, want 2 spans and 2 marks retained, 3 of each dropped, capacity 2", args)
	}
}

func TestChromeTraceNilRecorder(t *testing.T) {
	var r *Recorder
	var b strings.Builder
	if err := r.ChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	var parsed []map[string]any
	if err := json.Unmarshal([]byte(b.String()), &parsed); err != nil {
		t.Fatalf("invalid JSON from nil recorder: %v\n%s", err, b.String())
	}
	if len(parsed) != 1 || parsed[0]["name"] != "ndpbridge_trace_info" {
		t.Errorf("nil recorder trace = %v, want only the metadata record", parsed)
	}
}

func TestUtilization(t *testing.T) {
	r := New(0)
	// Actor 0 busy for the first half; actor 1 fully busy.
	exec(r, 0, 0, 50)
	exec(r, 1, 0, 100)
	r.Span(1, 0, SpanBridgeQ, CatBridgeQueue, 2, 0, 100) // not an exec span: ignored
	actors, util := r.Utilization(100, 4)
	if len(actors) != 2 || actors[0] != 0 || actors[1] != 1 {
		t.Fatalf("actors = %v", actors)
	}
	want0 := []float64{1, 1, 0, 0}
	for i, w := range want0 {
		if diff := util[0][i] - w; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("actor 0 bucket %d = %v, want %v", i, util[0][i], w)
		}
	}
	for i := range util[1] {
		if util[1][i] < 0.999 {
			t.Errorf("actor 1 bucket %d = %v, want 1", i, util[1][i])
		}
	}
}

func TestUtilizationSpansBuckets(t *testing.T) {
	r := New(0)
	exec(r, 0, 25, 75) // half of bucket 0, all of 1... with 2 buckets of 50
	_, util := r.Utilization(100, 2)
	if util[0][0] != 0.5 || util[0][1] != 0.5 {
		t.Errorf("split wrong: %v", util[0])
	}
}

func TestUtilizationZeroLengthEvent(t *testing.T) {
	r := New(0)
	exec(r, 0, 50, 50) // zero-length: contributes nothing
	exec(r, 0, 0, 25)
	actors, util := r.Utilization(100, 4)
	if len(actors) != 1 {
		t.Fatalf("actors = %v", actors)
	}
	want := []float64{1, 0, 0, 0}
	for i, w := range want {
		if diff := util[0][i] - w; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("bucket %d = %v, want %v", i, util[0][i], w)
		}
	}
}

func TestUtilizationFullMakespan(t *testing.T) {
	r := New(0)
	exec(r, 7, 0, 1000)
	actors, util := r.Utilization(1000, 7) // width not a divisor of makespan
	if len(actors) != 1 || actors[0] != 7 {
		t.Fatalf("actors = %v", actors)
	}
	for i, u := range util[0] {
		if u < 1-1e-9 || u > 1+1e-9 {
			t.Errorf("bucket %d = %v, want 1", i, u)
		}
	}
}

func TestUtilizationBucketBoundary(t *testing.T) {
	r := New(0)
	// Span exactly on a bucket boundary: must land fully in bucket 1,
	// leaving buckets 0 and 2 untouched.
	exec(r, 0, 25, 50)
	_, util := r.Utilization(100, 4)
	want := []float64{0, 1, 0, 0}
	for i, w := range want {
		if diff := util[0][i] - w; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("bucket %d = %v, want %v", i, util[0][i], w)
		}
	}
}

func TestHeatmap(t *testing.T) {
	r := New(0)
	exec(r, 3, 0, 100)
	hm := r.Heatmap(100, 8)
	if !strings.Contains(hm, "3 |") || !strings.Contains(hm, "@") {
		t.Errorf("heatmap:\n%s", hm)
	}
}

func TestKindString(t *testing.T) {
	if MarkEpoch.String() != "epoch" || MarkHostBatch.String() != "host-batch" {
		t.Error("mark kind names wrong")
	}
	if !strings.Contains(MarkKind(250).String(), "250") {
		t.Error("unknown kind should show its number")
	}
	labels := map[Mark]string{
		{Kind: MarkLB, N: 2}:       "l2-schedule",
		{Kind: MarkOverflow, N: 3}: "overflow rank 3",
		{Kind: MarkStall}:          "stall",
	}
	for m, want := range labels {
		if got := m.label(); got != want {
			t.Errorf("%v label = %q, want %q", m.Kind, got, want)
		}
	}
}
