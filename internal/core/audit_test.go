package core

import (
	"errors"
	"path/filepath"
	"reflect"
	"testing"

	"ndpbridge/internal/audit"
	"ndpbridge/internal/config"
	"ndpbridge/internal/fault"
	"ndpbridge/internal/msg"
	"ndpbridge/internal/task"
)

func TestAuditCleanRunAcrossDesigns(t *testing.T) {
	for _, d := range []config.Design{config.DesignC, config.DesignB, config.DesignW, config.DesignO, config.DesignR} {
		d := d
		t.Run(d.String(), func(t *testing.T) {
			sys, err := New(testCfg(d))
			if err != nil {
				t.Fatal(err)
			}
			if err := sys.AttachAudit(512); err != nil {
				t.Fatal(err)
			}
			if _, err := sys.Run(&epochWave{epochs: 4}); err != nil {
				t.Fatalf("audited run failed: %v", err)
			}
			if sys.AuditChecks() == 0 {
				t.Error("auditor never ran a weak check")
			}
		})
	}
}

func TestAuditResultUnchanged(t *testing.T) {
	cfg := testCfg(config.DesignO)
	plain, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := plain.Run(&epochWave{epochs: 4})
	if err != nil {
		t.Fatal(err)
	}
	audited, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := audited.AttachAudit(256); err != nil {
		t.Fatal(err)
	}
	r2, err := audited.Run(&epochWave{epochs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Error("auditor perturbed the simulation result")
	}
}

func TestAuditCleanUnderFaults(t *testing.T) {
	sys, err := New(testCfg(config.DesignO))
	if err != nil {
		t.Fatal(err)
	}
	plan := &fault.Plan{Faults: []fault.Spec{
		{Kind: fault.KindDrop, Scope: fault.ScopeL1Gather, Prob: 0.05, Rank: -1, Unit: -1},
		{Kind: fault.KindDrop, Scope: fault.ScopeL1Scatter, Prob: 0.05, Rank: -1, Unit: -1},
	}}
	if err := sys.AttachFaults(plan, 7); err != nil {
		t.Fatal(err)
	}
	if err := sys.AttachAudit(512); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(&epochWave{epochs: 4}); err != nil {
		t.Fatalf("audited fault run failed: %v", err)
	}
}

// brokenApp corrupts the message accounting mid-run, which the weak
// conservation check must catch.
type brokenApp struct {
	sys *System
	fn  task.FuncID
}

func (b *brokenApp) Name() string { return "broken" }

func (b *brokenApp) Prepare(s *System) error {
	b.fn = s.Register("broken.hop", func(ctx task.Ctx, t task.Task) {
		ctx.Compute(100)
		if t.Args[0] == 3 {
			b.sys.msgsStagedTotal += 5 // the deliberate accounting bug
		}
		if t.Args[0] > 0 {
			next := (ctx.Unit() + 1) % s.Units()
			ctx.Enqueue(task.New(b.fn, t.TS, s.UnitBase(next)+128, 20, t.Args[0]-1))
		}
	})
	return nil
}

func (b *brokenApp) SeedEpoch(s *System, ts uint32) bool {
	if ts > 0 {
		return false
	}
	s.Seed(task.New(b.fn, 0, s.UnitBase(0)+128, 20, 200))
	return true
}

func TestAuditDetectsConservationBreach(t *testing.T) {
	sys, err := New(testCfg(config.DesignO))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.AttachAudit(64); err != nil {
		t.Fatal(err)
	}
	_, err = sys.Run(&brokenApp{sys: sys})
	if err == nil {
		t.Fatal("accounting breach not detected")
	}
	var ae *audit.Error
	if !errors.As(err, &ae) {
		t.Fatalf("err = %v, want *audit.Error", err)
	}
	found := false
	for _, v := range ae.Violations {
		if v.Rule == "msg-conservation" {
			found = true
		}
	}
	if !found {
		t.Errorf("no msg-conservation violation in %v", ae)
	}
}

// TestAuditChecksFireOnCorruption corrupts one piece of system state per row
// — through the same surfaces a real bug would use — and asserts the named
// audit rule catches it. Together the rows cover every strong check
// (barrier-residue, lent-borrowed, snapshot-determinism) and every weak
// check (task-conservation, msg-conservation, queue-bytes, seq-monotonic).
func TestAuditChecksFireOnCorruption(t *testing.T) {
	cases := []struct {
		name string
		rule string
		// corrupt runs inside an epoch hook installed before the auditor's,
		// so the damage is visible to the strong checks at the same barrier
		// and to the weak checks afterwards. It returns false to retry at a
		// later barrier (e.g. when no block is borrowed yet).
		corrupt func(s *System) bool
	}{
		{
			name: "phantom inflight message",
			rule: "barrier-residue",
			corrupt: func(s *System) bool {
				s.inflight++
				return true
			},
		},
		{
			name: "lost isLent bit",
			rule: "lent-borrowed",
			corrupt: func(s *System) bool {
				// Clear the home-side lent bit for a block some unit still
				// holds borrowed — the desync a botched recovery would leave.
				for _, u := range s.units {
					for _, blk := range u.BorrowedBlocks() {
						home := s.amap.Home(blk)
						if s.units[home].RecoverLent(blk) {
							return true
						}
					}
				}
				return false
			},
		},
		{
			name: "nondeterministic state encoder",
			rule: "snapshot-determinism",
			corrupt: func(s *System) bool {
				var n uint64
				s.aud.stateDigest = func() uint64 { n++; return n }
				return true
			},
		},
		{
			name: "task counter corruption",
			rule: "task-conservation",
			corrupt: func(s *System) bool {
				s.tasksSpawnedTotal += 3
				return true
			},
		},
		{
			name: "msg counter corruption",
			rule: "msg-conservation",
			corrupt: func(s *System) bool {
				s.msgsStagedTotal += 5
				return true
			},
		},
		{
			name: "message resized while queued",
			rule: "queue-bytes",
			corrupt: func(s *System) bool {
				// Route a task into unit 0's scatter buffer, then grow it:
				// the buffer's byte total no longer matches its contents.
				m := msg.NewTask(-1, 0, task.Task{Addr: s.UnitBase(0) + 128})
				s.bridges[0].AcceptFromUp(m)
				m.Task.NArgs = 2
				return true
			},
		},
		{
			name: "sequence regression",
			rule: "seq-monotonic",
			corrupt: func(s *System) bool {
				// Push the auditor's watermark above the live counter —
				// equivalent to the unit's gather seq moving backwards.
				s.aud.unitSeq[0] = 1 << 30
				return true
			},
		},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			sys, err := New(testCfg(config.DesignO))
			if err != nil {
				t.Fatal(err)
			}
			corrupted := false
			sys.addEpochHook(func(completed uint32) {
				if !corrupted {
					corrupted = c.corrupt(sys)
				}
			})
			if err := sys.AttachAudit(64); err != nil {
				t.Fatal(err)
			}
			// stress borrows blocks across units (needed by the
			// lent-borrowed row) and runs two epochs, so corruption at the
			// first barrier is observed well before the run would end.
			_, err = sys.Run(&stress{tasks: 300, chain: 4})
			if !corrupted {
				t.Fatal("corruption hook never found a target")
			}
			if err == nil {
				t.Fatalf("corrupted run passed the audit")
			}
			var ae *audit.Error
			if !errors.As(err, &ae) {
				t.Fatalf("err = %v, want *audit.Error", err)
			}
			found := false
			for _, v := range ae.Violations {
				if v.Rule == c.rule {
					found = true
				}
			}
			if !found {
				t.Errorf("no %s violation in: %v", c.rule, ae)
			}
		})
	}
}

func TestAuditWithCheckpointing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.ckpt")
	sys, err := New(testCfg(config.DesignO))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.AttachAudit(512); err != nil {
		t.Fatal(err)
	}
	sys.EnableCheckpoints(path, 1)
	if _, err := sys.Run(&epochWave{epochs: 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadCheckpoint(path); err != nil {
		t.Fatal(err)
	}
}
