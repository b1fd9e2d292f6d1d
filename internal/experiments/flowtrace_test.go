package experiments

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"ndpbridge/internal/config"
	"ndpbridge/internal/core"
	"ndpbridge/internal/trace"
)

// TestFlowTraceResultsByteIdentical is the observer-effect guard: running the
// same cell with causal tracing on must change nothing about the simulation's
// outcome — the Result (minus the Crit summary only a traced run can carry)
// serializes to the same bytes.
func TestFlowTraceResultsByteIdentical(t *testing.T) {
	plain, err := runDesign(Small, "tree", config.DesignO, nil)
	if err != nil {
		t.Fatal(err)
	}
	EnableFlowTrace(0)
	traced, err := runDesign(Small, "tree", config.DesignO, nil)
	rows := TakeCrit()
	if err != nil {
		t.Fatal(err)
	}
	if traced.Crit == nil {
		t.Fatal("traced run carries no Crit summary")
	}
	if len(rows) != 1 {
		t.Fatalf("TakeCrit returned %d rows, want 1", len(rows))
	}
	stripped := *traced
	stripped.Crit = nil
	a, err := json.Marshal(plain)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(&stripped)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("tracing perturbed the simulation:\nuntraced: %s\ntraced:   %s", a, b)
	}
	// The harvested row mirrors the run.
	if rows[0].App != "tree" || rows[0].Design != "O" || rows[0].Makespan != plain.Makespan {
		t.Errorf("CritRow = %+v, want tree/O makespan %d", rows[0], plain.Makespan)
	}
	sum := rows[0].Crit.BankBusy + rows[0].Crit.TaskQueue + rows[0].Crit.GatherBatch +
		rows[0].Crit.BridgeQueue + rows[0].Crit.LBMigration + rows[0].Crit.Retry +
		rows[0].Crit.HostRT + rows[0].Crit.Slack
	if sum != plain.Makespan {
		t.Errorf("attribution sums to %d cycles, makespan is %d", sum, plain.Makespan)
	}
}

// TestFlowTraceRowsDeterministic runs a grid at full pool width twice and
// demands identical sorted rows: completion order may differ, the harvest
// must not.
func TestFlowTraceRowsDeterministic(t *testing.T) {
	collect := func() []CritRow {
		EnableFlowTrace(0)
		_, err := Grid(Small, []string{"ll", "tree"}, []config.Design{config.DesignC, config.DesignO}, nil)
		rows := TakeCrit()
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	r1, r2 := collect(), collect()
	a, _ := json.Marshal(r1)
	b, _ := json.Marshal(r2)
	if !bytes.Equal(a, b) {
		t.Errorf("crit rows differ across identical runs:\n%s\n%s", a, b)
	}
	if !sort.SliceIsSorted(r1, func(i, j int) bool {
		if r1[i].App != r1[j].App {
			return r1[i].App < r1[j].App
		}
		return r1[i].Design < r1[j].Design
	}) {
		t.Errorf("rows not sorted: %+v", r1)
	}
}

// goldenCritPath is the committed rendered critical-path report of a
// fixed-seed small run; regenerate deliberately with -update.
const goldenCritPath = "../../results/golden/critpath-small.txt"

func TestGoldenCritPathReport(t *testing.T) {
	app, err := newApp("tree", Small)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.New(baseConfig(Small).WithDesign(config.DesignO))
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.New(0)
	sys.AttachTrace(rec)
	r, err := sys.Run(app)
	if err != nil {
		t.Fatal(err)
	}
	rep := rec.CritPath(r.Makespan)
	got := []byte(rep.Render())

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenCritPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenCritPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden file rewritten: %s", goldenCritPath)
		return
	}
	want, err := os.ReadFile(goldenCritPath)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("critical-path report drifted from %s:\ngot:\n%swant:\n%s", goldenCritPath, got, want)
	}
}

// TestExecSpansConserveBusyCycles: a traced run's exec spans account for
// every busy cycle — per actor, the exec span durations sum to that unit's
// stats.Unit.Busy (for design H, to the host core's busy cycles).
func TestExecSpansConserveBusyCycles(t *testing.T) {
	for _, d := range []config.Design{config.DesignO, config.DesignC, config.DesignH} {
		app, err := newApp("bfs", Small)
		if err != nil {
			t.Fatal(err)
		}
		sys, err := core.New(baseConfig(Small).WithDesign(d))
		if err != nil {
			t.Fatal(err)
		}
		rec := trace.New(0)
		sys.AttachTrace(rec)
		r, err := sys.Run(app)
		if err != nil {
			t.Fatal(err)
		}
		if rec.DroppedSpans() != 0 {
			t.Fatalf("%v: %d spans dropped", d, rec.DroppedSpans())
		}
		busy := make([]uint64, len(r.Units))
		for _, sp := range rec.Spans() {
			if sp.Kind != trace.SpanExec {
				continue
			}
			if int(sp.Actor) >= len(busy) || sp.Actor < 0 {
				t.Fatalf("%v: exec span on actor %d, run has %d", d, sp.Actor, len(busy))
			}
			busy[sp.Actor] += sp.End - sp.Start
		}
		var total uint64
		for i, u := range r.Units {
			if busy[i] != u.Busy {
				t.Errorf("%v actor %d: exec spans cover %d cycles, Busy = %d", d, i, busy[i], u.Busy)
			}
			total += u.Busy
		}
		if total == 0 {
			t.Errorf("%v: no busy cycles, the check is vacuous", d)
		}
	}
}
