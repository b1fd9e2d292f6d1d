package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ndpbridge/internal/config"
	"ndpbridge/internal/core"
	"ndpbridge/internal/trace"
	"ndpbridge/internal/workloads"
)

// tracedRun runs bfs on design O at 64 units (small workload) with a
// recorder attached and returns its trace and critical-path report JSON.
func tracedRun(t *testing.T) (traceJSON, critJSON []byte) {
	t.Helper()
	cfg, err := config.Default().WithDesign(config.DesignO).WithUnits(64)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	app, err := workloads.NewSmall("bfs")
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.New(0)
	sys.AttachTrace(rec)
	r, err := sys.Run(app)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rec.ChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	crit, err := json.Marshal(rec.CritPath(r.Makespan))
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), crit
}

func writeTemp(t *testing.T, name string, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// decodeEvents parses a trace keeping numbers exact, so a re-encoded trace
// differs from the original only by the planted fault.
func decodeEvents(t *testing.T, data []byte) []map[string]any {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var events []map[string]any
	if err := dec.Decode(&events); err != nil {
		t.Fatal(err)
	}
	return events
}

func TestValidatorAcceptsRealRunAndRejectsPlantedFaults(t *testing.T) {
	traceJSON, critJSON := tracedRun(t)
	if err := checkFlowTrace(writeTemp(t, "trace.json", traceJSON)); err != nil {
		t.Fatalf("real trace rejected: %v", err)
	}
	if err := checkCritReport(writeTemp(t, "crit.json", critJSON)); err != nil {
		t.Fatalf("real critical-path report rejected: %v", err)
	}

	// firstSpan returns the first span record that has a parent.
	firstSpan := func(events []map[string]any) map[string]any {
		for _, ev := range events[1:] {
			if args, ok := ev["args"].(map[string]any); ok && args["parent"] != json.Number("0") {
				return ev
			}
		}
		t.Fatal("trace holds no child span")
		return nil
	}
	plants := []struct {
		name  string
		plant func([]map[string]any) []map[string]any
		want  string
	}{
		{"forward parent", func(evs []map[string]any) []map[string]any {
			args := firstSpan(evs)["args"].(map[string]any)
			id, _ := args["span"].(json.Number).Int64()
			args["parent"] = id + 1
			return evs
		}, "not recorded before it"},
		{"negative duration", func(evs []map[string]any) []map[string]any {
			firstSpan(evs)["dur"] = -5
			return evs
		}, "negative duration"},
		{"mark missing", func(evs []map[string]any) []map[string]any {
			for i, ev := range evs[1:] {
				if ev["ph"] == "X" && ev["args"] == nil {
					return append(evs[:i+1], evs[i+2:]...)
				}
			}
			t.Fatal("trace holds no mark")
			return nil
		}, "metadata claims"},
	}
	for _, p := range plants {
		data, err := json.Marshal(p.plant(decodeEvents(t, traceJSON)))
		if err != nil {
			t.Fatal(err)
		}
		err = checkFlowTrace(writeTemp(t, "planted.json", data))
		if err == nil || !strings.Contains(err.Error(), p.want) {
			t.Errorf("%s: checkFlowTrace = %v, want an error containing %q", p.name, err, p.want)
		}
	}

	var rep trace.CritReport
	if err := json.Unmarshal(critJSON, &rep); err != nil {
		t.Fatal(err)
	}
	rep.Epochs[0].Attr.BankBusy++
	data, err := json.Marshal(&rep)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkCritReport(writeTemp(t, "bumped.json", data)); err == nil {
		t.Error("a report with one category bumped passed checkCritReport")
	}
}
