package main

import (
	"fmt"

	"ndpbridge/internal/config"
	"ndpbridge/internal/core"
	"ndpbridge/internal/workloads"
)

// cell is one simulation: an application on one configured system.
type cell struct {
	app    string
	cfg    config.Config
	newApp func() core.App
}

// workload is one benchmark input set. A run is a number of rounds of the
// workload's cells, round i at seed+i, so a run's medians cover as many
// seeds as rounds and no round reuses an earlier round's inputs.
type workload struct {
	name string
	// roundS is the nominal host time of one round on a 2-CPU box. It turns
	// --seconds into a fixed round count, so the work in a run depends on
	// the arguments only, never on how fast the machine happens to be.
	roundS float64
	// theta is the Zipf skew the layer probes draw addresses with.
	theta float64
	// rmat is the graph size the workloads.RMAT probe generates; ht-512-B,
	// which builds no graph, uses pr-512-O's.
	rmat workloads.GraphParams
	// cells builds the cells of one round at the given seed.
	cells func(seed uint64) []cell
}

// The three workloads split the simulator along the paper's headline
// comparison (Fig. 10): full NDPBridge against bridges without balancing.
//
//   - pr-512-O: communication and load balancing do most of the work
//     (hundreds of thousands of bridge messages, thousands of block
//     migrations and LB rounds), the path the metadata, task-queue,
//     mailbox and cache optimisations target.
//   - ht-512-B: the control. It sends no messages, migrates no blocks and
//     runs no LB rounds; its time goes to the NDP units, idle bridge rounds,
//     task queues and the event core. A change to msg, mailbox, metadata or
//     sketch should leave it flat.
//   - grid-8: the 8-unit small tier, all eight apps × designs C, B, W, O.
//     Cells are short and cache-resident, so per-cell set-up is a large
//     share; it is the only workload on the host-forwarded path (C) and on
//     work stealing (W), and the only one where reusing work across cells
//     (for example RMAT memoisation) can show.
var benchWorkloads = []*workload{
	{
		name: "pr-512-O", roundS: 1.75, theta: 0.99,
		rmat: workloads.MediumGraphParams(),
		cells: func(seed uint64) []cell {
			p := workloads.MediumGraphParams()
			p.Seed = seed
			return []cell{{app: "pr", cfg: fullConfig(config.DesignO, seed),
				newApp: func() core.App { return workloads.NewPR(p) }}}
		},
	},
	{
		name: "ht-512-B", roundS: 1.45, theta: workloads.DefaultHTParams().Theta,
		rmat: workloads.MediumGraphParams(),
		cells: func(seed uint64) []cell {
			p := workloads.DefaultHTParams()
			p.Seed = seed
			return []cell{{app: "ht", cfg: fullConfig(config.DesignB, seed),
				newApp: func() core.App { return workloads.NewHT(p) }}}
		},
	},
	{
		name: "grid-8", roundS: 0.09, theta: 0.99,
		rmat: workloads.SmallGraphParams(),
		cells: func(seed uint64) []cell {
			var cs []cell
			for _, app := range workloads.Names {
				for _, d := range []config.Design{config.DesignC, config.DesignB, config.DesignW, config.DesignO} {
					cs = append(cs, cell{app: app, cfg: smallConfig(d, seed), newApp: smallApp(app, seed)})
				}
			}
			return cs
		},
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range benchWorkloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(benchWorkloads))
	for i, w := range benchWorkloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// roundSeed is the seed round i of a run at seed runs with.
func roundSeed(seed uint64, i int) uint64 { return seed + uint64(i) }

// fullConfig is the Table I 512-unit system.
func fullConfig(d config.Design, seed uint64) config.Config {
	cfg := config.Default().WithDesign(d)
	cfg.Seed = seed
	return cfg
}

// smallConfig is the 8-unit, 2-rank system of ndpbench's small scale.
func smallConfig(d config.Design, seed uint64) config.Config {
	cfg := config.Default()
	cfg.Geometry = config.Geometry{
		Channels: 2, RanksPerChannel: 1, ChipsPerRank: 2, BanksPerChip: 2,
		BankBytes: 8 << 20,
	}
	cfg = cfg.WithDesign(d)
	cfg.Seed = seed
	return cfg
}

// smallApp returns a constructor for app at test-sized parameters with the
// dataset seed replaced.
func smallApp(app string, seed uint64) func() core.App {
	switch app {
	case "ll":
		p := workloads.SmallLLParams()
		p.Seed = seed
		return func() core.App { return workloads.NewLL(p) }
	case "ht":
		p := workloads.SmallHTParams()
		p.Seed = seed
		return func() core.App { return workloads.NewHT(p) }
	case "tree":
		p := workloads.SmallTreeParams()
		p.Seed = seed
		return func() core.App { return workloads.NewTree(p) }
	case "spmv":
		p := workloads.SmallSpMVParams()
		p.Seed = seed
		return func() core.App { return workloads.NewSpMV(p) }
	}
	p := workloads.SmallGraphParams()
	p.Seed = seed
	switch app {
	case "bfs":
		return func() core.App { return workloads.NewBFS(p) }
	case "sssp":
		return func() core.App { return workloads.NewSSSP(p) }
	case "pr":
		return func() core.App { return workloads.NewPR(p) }
	case "wcc":
		return func() core.App { return workloads.NewWCC(p) }
	}
	panic("perfbench: no small constructor for " + app)
}
