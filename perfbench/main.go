// Command perfbench is the repository benchmark. It runs one workload in a
// single process, one simulation at a time, checks every simulation's
// result, and prints each metric by name and unit. The last line of its
// standard output is one JSON object with the keys correct, attempted,
// failed and metrics.
//
// Run it from the root of a checkout:
//
//	bash perfbench/run.sh --workload pr-512-O --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the traced pass
// and reports the per-layer metrics. --record prints the digest table the
// correctness gate compares against (see README.md).
package main

import (
	"bufio"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// gcPercent is the GC target ndpbench sets when GOGC is not given.
const gcPercent = 400

func main() { os.Exit(run()) }

func run() int {
	var (
		name    = flag.String("workload", "", "workload to run: pr-512-O, ht-512-B or grid-8")
		seed    = flag.Uint64("seed", digests.DefaultSeed, "workload seed: the apps' dataset seed and the system seed")
		seconds = flag.Int("seconds", 20, "run length; fixes the number of rounds")
		traced  = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced pass with per-layer metrics")
		record  = flag.Bool("record", false, "print the digest table for the recorded seeds as JSON and exit")
	)
	flag.Parse()
	gc := applyRuntimeSettings()
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --seconds >= 1 and --trace 0 or 1")
		return 2
	}
	if *record {
		if err := recordDigests(*name, *seconds); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}

	id := stamp(w, *seed, gc, *traced == 1)
	line, err := json.Marshal(map[string]any{"identity": id})
	if err != nil {
		panic(err) // a map of strings and numbers always marshals
	}
	fmt.Println(string(line))

	start := time.Now()
	n := w.roundsFor(*seconds)
	b := newBench(w, *seed, digests.forWorkload(w.name))
	var m, info *metricSet
	if *traced == 0 {
		m, info = b.endToEnd(n)
	} else {
		if m, err = b.layers(max(1, n/2)); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		addProbes(m, w, *seed)
	}
	b.audit()
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d cells, %d failed, %d round seeds without a recorded digest, %s\n",
		w.name, *seed, b.attempted, b.failed, b.unchecked, time.Since(start).Round(time.Millisecond))

	for _, k := range m.names {
		v := m.values[k]
		fmt.Printf("%-40s %16.6g %s\n", k, v.Value, v.Unit)
	}
	if info != nil {
		for _, k := range info.names {
			v := info.values[k]
			fmt.Printf("%-40s %16.6g %s (information, not gated)\n", k, v.Value, v.Unit)
		}
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{b.failed == 0, b.attempted, b.failed, m.values})
	if err != nil {
		panic(err) // finite floats and strings always marshal
	}
	fmt.Println(string(out))
	return 0
}

// applyRuntimeSettings applies ndpbench's runtime settings and caps
// GOMAXPROCS at the CPUs this process may run on. It returns the GC
// setting for the identity stamp.
func applyRuntimeSettings() string {
	if n := runtime.NumCPU(); runtime.GOMAXPROCS(0) > n {
		runtime.GOMAXPROCS(n)
	}
	if v := os.Getenv("GOGC"); v != "" {
		return "GOGC=" + v
	}
	debug.SetGCPercent(gcPercent)
	return "SetGCPercent(" + strconv.Itoa(gcPercent) + ")"
}

// identity says what ran, on what, and with which settings.
type identity struct {
	Workload     string `json:"workload"`
	Trace        bool   `json:"trace"`
	Seed         uint64 `json:"seed"`
	HeldOutSeed  uint64 `json:"held_out_seed"`
	Revision     string `json:"revision"`
	SourceSHA256 string `json:"source_sha256"`
	GoVersion    string `json:"go_version"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	NumCPU       int    `json:"nproc"`
	CPUModel     string `json:"cpu_model"`
	GC           string `json:"gc"`
	PGO          string `json:"pgo"`
}

func stamp(w *workload, seed uint64, gc string, traced bool) identity {
	id := identity{
		Workload: w.name, Trace: traced, Seed: seed, HeldOutSeed: digests.HeldOutSeed,
		Revision: "unknown", PGO: "off", GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		CPUModel: cpuModel(), GC: gc, SourceSHA256: sourceDigest(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				id.Revision = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					id.Revision += "+modified"
				}
			case "-pgo":
				id.PGO = s.Value
			}
		}
	}
	return id
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes the Go sources and module files under the working
// directory, which identifies the code when the checkout carries no VCS
// metadata. Build outputs and dot-directories are skipped.
func sourceDigest() string {
	var files []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(h, "%s %d\n", f, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

//go:embed digests.json
var digestsJSON []byte

// digestTable is the correctness gate's reference: for each workload, the
// round digest of every recorded round seed, taken at the commit that
// defined the benchmark.
type digestTable struct {
	DefaultSeed uint64 `json:"default_seed"`
	// HeldOutSeed is recorded so a later performance claim can be checked
	// on a seed its author did not tune against.
	HeldOutSeed uint64 `json:"held_out_seed"`
	// RecordedSeeds is the range of run seeds the table covers (besides
	// the held-out seed); Seconds is the run length it was recorded for,
	// which fixes how many consecutive round seeds a run uses.
	RecordedSeeds [2]uint64                    `json:"recorded_seeds"`
	Seconds       int                          `json:"seconds"`
	Workloads     map[string]map[string]string `json:"workloads"`
}

var digests = func() digestTable {
	var t digestTable
	if err := json.Unmarshal(digestsJSON, &t); err != nil {
		panic("perfbench: embedded digests.json: " + err.Error())
	}
	return t
}()

func (t digestTable) forWorkload(name string) map[uint64]string {
	out := map[uint64]string{}
	for k, v := range t.Workloads[name] {
		s, err := strconv.ParseUint(k, 10, 64)
		if err != nil {
			panic("perfbench: embedded digests.json: bad seed " + k)
		}
		out[s] = v
	}
	return out
}

// recordDigests runs one plain round per round seed the recorded run seeds
// use and prints the resulting table. With name set, only that workload is
// recorded.
func recordDigests(name string, seconds int) error {
	t := digests
	t.Seconds = seconds
	t.Workloads = map[string]map[string]string{}
	for _, w := range benchWorkloads {
		if name != "" && w.name != name {
			continue
		}
		seeds := map[uint64]bool{}
		add := func(s uint64) {
			for i := 0; i < w.roundsFor(seconds); i++ {
				seeds[roundSeed(s, i)] = true
			}
		}
		for s := t.RecordedSeeds[0]; s <= t.RecordedSeeds[1]; s++ {
			add(s)
		}
		add(t.HeldOutSeed)
		recorded := map[string]string{}
		for s := range seeds {
			// A profiled round attaches nothing, like a plain one, and
			// returns its results unverified.
			r := newBench(w, s, nil).round(s, modeProfiled, false)
			if r == nil {
				return fmt.Errorf("%s: round seed %d failed", w.name, s)
			}
			recorded[strconv.FormatUint(s, 10)] = roundDigest(r.results, true)
		}
		t.Workloads[w.name] = recorded
	}
	out, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}
