package workloads

import (
	"testing"

	"ndpbridge/internal/config"
	"ndpbridge/internal/core"
	"ndpbridge/internal/metrics"
)

// TestBlocksReturnedCountedOnce pins the return count of a run that evicts
// borrowed blocks (pr, design O, 64 units, paper-sized graph): each return
// is counted once, at the borrower's eviction, so Result.BlocksReturned
// equals the registry's blocks_returned counter. Counting it again when the
// home unit clears its isLent bit doubled the result to 188.
func TestBlocksReturnedCountedOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("64-unit paper-sized run")
	}
	cfg, err := config.Default().WithDesign(config.DesignO).WithUnits(64)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	sys.AttachMetrics(reg)
	r, err := sys.Run(NewPR(DefaultGraphParams()))
	if err != nil {
		t.Fatal(err)
	}
	counted := reg.FindCounter("blocks_returned").Value()
	if r.BlocksReturned != counted {
		t.Errorf("Result.BlocksReturned = %d, blocks_returned counter = %d", r.BlocksReturned, counted)
	}
	if r.BlocksReturned != 94 {
		t.Errorf("BlocksReturned = %d, want 94", r.BlocksReturned)
	}
}
