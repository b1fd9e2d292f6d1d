package experiments

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"ndpbridge/internal/config"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden results files")

// goldenPath is the committed reference output of a fixed-seed Small grid.
// CI fails on any drift, so simulator changes that alter results must
// regenerate it deliberately (go test ./internal/experiments -run Golden
// -update) and justify the diff in review.
const goldenPath = "../../results/golden/small-grid.json"

func TestGoldenSmallGrid(t *testing.T) {
	SetJobs(1)
	defer SetJobs(0)
	cells, err := Grid(Small,
		[]string{"ll", "tree", "bfs"},
		[]config.Design{config.DesignC, config.DesignB, config.DesignO},
		nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.MarshalIndent(cells, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden file rewritten: %s", goldenPath)
		return
	}

	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		// Decode both sides to name the first drifting cell, which beats
		// a raw byte diff for diagnosing what changed.
		var gc, wc []CellResult
		if json.Unmarshal(got, &gc) == nil && json.Unmarshal(want, &wc) == nil && len(gc) == len(wc) {
			for i := range gc {
				if gc[i].App != wc[i].App || gc[i].Design != wc[i].Design {
					t.Fatalf("grid shape drifted at cell %d: %s/%s vs %s/%s",
						i, gc[i].App, gc[i].Design, wc[i].App, wc[i].Design)
				}
				if !reflect.DeepEqual(gc[i].R, wc[i].R) {
					t.Fatalf("results drifted at %s/%s:\n got %+v\nwant %+v\n(run with -update if intentional)",
						gc[i].App, gc[i].Design, *gc[i].R, *wc[i].R)
				}
			}
		}
		t.Fatal("golden results drifted (run with -update if intentional)")
	}
}

// mediumRecordPath is the recorded medium-scale campaign output. Its tables
// are deterministic; only the wall-clock "(… in Xs)" lines vary.
const mediumRecordPath = "../../results/ndpbench_medium.txt"

// TestGoldenMediumFig2 gates the first slice of the medium record: Fig. 2 is
// tree on design C over the full 512 units, the host-forwarded path on both
// channels. The rendered table must equal the Fig. 2 block of the record,
// leaving out the wall-clock "(fig2 in …)" line after it.
func TestGoldenMediumFig2(t *testing.T) {
	tbl, err := Fig2(Medium)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := os.ReadFile(mediumRecordPath)
	if err != nil {
		t.Fatal(err)
	}
	start := bytes.Index(rec, []byte("== Fig. 2 "))
	end := bytes.Index(rec, []byte("\n(fig2 in "))
	if start < 0 || end < start {
		t.Fatalf("%s has no Fig. 2 block", mediumRecordPath)
	}
	if got, want := tbl.Render(), string(rec[start:end]); got != want {
		t.Fatalf("Fig. 2 at medium scale drifted from %s:\n got:\n%s\nwant:\n%s", mediumRecordPath, got, want)
	}
}
