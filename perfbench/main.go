// Command perfbench is the repository's benchmark. It runs one named
// workload — one simulated batch job at a time, in a closed loop — and
// reports the simulator's host cost and the modelled cluster's virtual
// performance, checking every job's output.
//
//	perfbench --workload collperf_paper --seed 7 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics of untraced jobs; with
// --trace 1 it prints the per-layer metrics of one profiled job and one
// traced job. The last line of standard output is the JSON result;
// --workload all runs every workload in turn, each ending in its own.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// setupRepeats is how many set-up-only children a --trace 0 run measures
// besides the set-up of each job, so setup_s is a median of several samples
// even when only two jobs fit in the run.
const setupRepeats = 10

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", `workload to run, or "all" for each in turn`)
	seed := flag.Int64("seed", 0, "input seed (0 selects the workload's default)")
	seconds := flag.Int("seconds", 10, "how long to keep starting untraced jobs")
	traced := flag.Int("trace", 0, "0: end-to-end metrics of untraced jobs; 1: per-layer metrics")
	child := flag.String("child", "", "run one job of this mode in this process and print its report")
	flag.Parse()

	ws := benchWorkloads
	if *name != "all" {
		w, err := findWorkload(*name)
		if err != nil {
			fatal(err)
		}
		ws = []workload{w}
	}
	if *child != "" {
		rep, err := runJob(ws[0], seedFor(ws[0], *seed), *child)
		if err != nil {
			fatal(err)
		}
		if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
			fatal(err)
		}
		return
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fatal(fmt.Errorf("need --seconds >= 1 and --trace 0 or 1"))
	}
	correct := true
	for _, w := range ws {
		correct = runBench(w, seedFor(w, *seed), time.Duration(*seconds)*time.Second, *traced == 1) && correct
	}
	if !correct {
		os.Exit(1)
	}
}

func seedFor(w workload, seed int64) int64 {
	if seed == 0 {
		return w.defaultSeed
	}
	return seed
}

// runBench runs one workload, prints its metrics and result line, and
// reports whether its outputs were correct.
func runBench(w workload, seed int64, d time.Duration, traced bool) bool {
	b := newBench(w, seed)
	fmt.Printf("workload %s seed %d: %s\n", w.name, seed, w.inputs)
	var err error
	if traced {
		err = b.perLayer()
	} else {
		err = b.endToEnd(d)
	}
	if err != nil {
		fatal(err)
	}
	names := make([]string, 0, len(b.res.Metrics))
	for n := range b.res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := b.res.Metrics[n]
		fmt.Printf("  %-34s %14.6g %s\n", n, m.Value, m.Unit)
	}
	out, err := json.Marshal(b.res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
	return b.res.Correct
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

// bench accumulates one benchmark run of one workload and seed.
type bench struct {
	w    workload
	seed int64
	res  result
	ref  *virtual // the first job's virtual outputs
}

func newBench(w workload, seed int64) *bench {
	return &bench{w: w, seed: seed, res: result{Correct: true, Metrics: map[string]metricValue{}}}
}

// spawn runs one job in a fresh child process and returns its report and
// the child's peak resident set in MiB.
func (b *bench) spawn(mode string) (*jobReport, float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(self, "-child", mode, "-workload", b.w.name, "-seed", strconv.FormatInt(b.seed, 10))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, 0, fmt.Errorf("%s child: %w", mode, err)
	}
	var rep jobReport
	if err := json.Unmarshal(out, &rep); err != nil {
		return nil, 0, fmt.Errorf("%s child report: %w", mode, err)
	}
	var rssMB float64
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	if mode != modeSetup {
		b.check(&rep)
	}
	return &rep, rssMB, nil
}

// check folds one job's oracle counts into the result and holds its virtual
// outputs to the first job's: one seed must reproduce them exactly, traced
// or untraced.
func (b *bench) check(rep *jobReport) {
	b.res.Attempted += rep.Attempted
	b.res.Failed += rep.Failed
	for _, p := range rep.Problems {
		fmt.Fprintf(os.Stderr, "perfbench: %s job: %s\n", rep.Mode, p)
	}
	if rep.Violations > 0 {
		b.res.Correct = false
	}
	if b.ref == nil {
		b.ref = &rep.Virtual
	} else if rep.Virtual != *b.ref {
		fmt.Fprintf(os.Stderr, "perfbench: %s job virtual outputs %+v differ from %+v\n", rep.Mode, rep.Virtual, *b.ref)
		b.res.Correct = false
	}
}

// metricUnits maps every listed metric to its unit.
var metricUnits = func() map[string]string {
	units := map[string]string{}
	for _, m := range append(perLayer(), endToEnd...) {
		units[m.name] = m.unit
	}
	return units
}()

func (b *bench) set(name string, v float64) {
	unit, ok := metricUnits[name]
	if !ok {
		panic("perfbench: unlisted metric " + name)
	}
	b.res.Metrics[name] = metricValue{v, unit}
}

// endToEnd measures untraced jobs, starting new ones until the run has
// lasted d, after a few set-up-only children.
func (b *bench) endToEnd(d time.Duration) error {
	start := time.Now()
	var setup, host, rss, eps []float64
	for i := 0; i < setupRepeats; i++ {
		rep, _, err := b.spawn(modeSetup)
		if err != nil {
			return err
		}
		setup = append(setup, float64(rep.SetupNs)/1e9)
	}
	for len(host) == 0 || time.Since(start) < d {
		rep, rssMB, err := b.spawn(modeJob)
		if err != nil {
			return err
		}
		s := float64(rep.HostNs) / 1e9
		setup = append(setup, float64(rep.SetupNs)/1e9)
		host = append(host, s)
		rss = append(rss, rssMB)
		eps = append(eps, float64(rep.Virtual.Events)/s)
	}
	fmt.Printf("%d jobs, %d set-ups; host_s per job %.4g\n", len(host), len(setup), host)
	fmt.Printf("virt_not_hidden_sync_s %.6g s (Eq. 1, summed over files)\n", float64(b.ref.NotHiddenSyncNs)/1e9)
	fmt.Printf("failed_write_ratio %.6g (%d of %d rank-file writes)\n",
		float64(b.res.Failed)/float64(b.res.Attempted), b.res.Failed, b.res.Attempted)
	b.set("host_s", median(host))
	b.set("setup_s", median(setup))
	// A job's peak moves by up to a fifth with GC timing; the highest peak
	// of the run's jobs does not.
	b.set("peak_rss_mb", slices.Max(rss))
	b.set("sim_events_per_s", median(eps))
	b.set("virt_bandwidth_gbs", b.ref.BandwidthGBs)
	b.set("virt_wall_s", float64(b.ref.WallNs)/1e9)
	return nil
}

// perLayer runs one profiled untraced job for the host roll-up and one
// traced job for the virtual per-layer numbers.
func (b *bench) perLayer() error {
	prof, _, err := b.spawn(modeProfile)
	if err != nil {
		return err
	}
	tr, _, err := b.spawn(modeTraced)
	if err != nil {
		return err
	}
	b.setLayers(prof, tr)
	return nil
}

// setLayers sets every per-layer metric from a profiled and a traced job.
func (b *bench) setLayers(prof, tr *jobReport) {
	events := float64(prof.Virtual.Events)
	for _, l := range hostLayers {
		b.set("host."+l+"_cpu_s", float64(prof.CPUNs[l])/1e9)
	}
	for _, l := range allocLayers {
		b.set("alloc."+l+"_mb", float64(prof.AllocBytes[l])/(1<<20))
	}
	b.set("runtime.alloc_bytes_per_event", float64(prof.TotalAlloc)/events)
	b.set("runtime.allocs_per_event", float64(prof.Mallocs)/events)
	b.set("runtime.gc_cycles", float64(prof.NumGC))
	b.set("sim.host_ns_per_event", float64(prof.HostNs)/events)
	for n, v := range tr.Layer {
		b.set(n, v)
	}
	b.set("trace.overhead_ratio", float64(tr.HostNs)/float64(prof.HostNs))
	b.set("critpath.analyze_s", float64(tr.AnalyzeNs)/1e9)
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
