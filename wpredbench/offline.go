package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"wpred/internal/experiments"
	"wpred/internal/obs"
	"wpred/internal/parallel"
	"wpred/internal/telemetry"
)

// The offline-paper workload runs the paper's three stages as a batch job:
// selection (table3), similarity (table4), scaling contexts (figure8,
// figure9) and end to end (figure11), in quick mode on a fresh Suite with
// two workers. table6 is left out: one quick run of it takes most of a
// minute.
const (
	paperSeed  = 42 // the seed the committed golden output was made with
	goldenPath = "cmd/experiments/testdata/run_all_quick.golden"
	offlineJ   = 2
)

var offlineRunners = []string{"table3", "table4", "figure8", "figure9", "figure11"}

// offlinePlan is the offline-paper input: the suite seed is fixed so the
// output can be checked against the golden file, and the benchmark seed
// orders the runners, which decides which runner pays for the suite's
// shared, memoised work.
type offlinePlan struct {
	order  []string
	digest string
}

func offlinePaper(seed uint64) offlinePlan {
	// The seed goes into the child name as well: nearby seeds would
	// otherwise start the permutation alike.
	perm := telemetry.NewSource(seed).Child(fmt.Sprintf("wpredbench/offline-paper/%d", seed)).Perm(len(offlineRunners))
	p := offlinePlan{}
	for _, i := range perm {
		p.order = append(p.order, offlineRunners[i])
	}
	sum := sha256.Sum256([]byte(fmt.Sprintf("offline-paper|%d|quick|j=%d|%s", paperSeed, offlineJ, strings.Join(p.order, ","))))
	p.digest = hex.EncodeToString(sum[:])
	return p
}

// goldenSections splits the golden -run all -quick output into its
// per-experiment sections, keyed by experiment id.
func goldenSections(path string) (map[string]string, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading the golden output: %w", err)
	}
	out := map[string]string{}
	for _, sec := range strings.SplitAfter(string(raw), "\n### ") {
		sec = strings.TrimSuffix(sec, "### ")
		if !strings.HasPrefix(sec, "### ") {
			sec = "### " + sec
		}
		id, _, _ := strings.Cut(strings.TrimPrefix(sec, "### "), " ")
		out[id] = sec
	}
	return out, nil
}

// runnerResult is one runner execution inside a pass.
type runnerResult struct {
	id   string
	text string
	err  error
}

// pass runs every runner once, one after another in plan order, on a
// fresh Suite; each runner's own parallel work uses the two workers. It
// returns the Suite so its memoised state can stay live for the heap
// measurement.
func pass(order []string) ([]runnerResult, time.Duration, *experiments.Suite) {
	suite := experiments.NewSuite(paperSeed)
	suite.Quick = true
	t0 := time.Now()
	var res []runnerResult
	for _, id := range order {
		r, ok := experiments.RunnerByID(id)
		if !ok {
			res = append(res, runnerResult{id: id, err: fmt.Errorf("unknown experiment %q", id)})
			continue
		}
		sp := obs.StartSpan("bench.experiment." + r.ID)
		out, err := r.Run(suite)
		sp.End()
		res = append(res, runnerResult{id: r.ID, err: err,
			text: fmt.Sprintf("### %s — %s\n\n%s\n", r.ID, r.Description, out)})
	}
	return res, time.Since(t0), suite
}

// check counts the runner outputs that fail or differ from the golden
// sections once their wall-clock columns are masked.
func check(rep *report, res []runnerResult, golden map[string]string) int {
	bad := 0
	for _, r := range res {
		switch {
		case r.err != nil:
			bad++
			rep.fail("%s: %v", r.id, r.err)
		case experiments.MaskTimingColumns(r.text) != golden[r.id]:
			bad++
			rep.fail("%s: output differs from %s", r.id, goldenPath)
		}
	}
	return bad
}

// offlineSetup is one set-up of the batch job: load the golden output and
// warm a fresh Suite by running its end-to-end stage once.
func offlineSetup() (map[string]string, error) {
	golden, err := goldenSections(goldenPath)
	if err != nil {
		return nil, err
	}
	s := experiments.NewSuite(paperSeed)
	s.Quick = true
	r, _ := experiments.RunnerByID("figure11")
	if _, err := r.Run(s); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return golden, nil
}

func runOffline(rep *report, seed uint64, seconds int, traced bool) error {
	parallel.SetMaxWorkers(offlineJ)
	plan := offlinePaper(seed)
	rep.notef("order %s", strings.Join(plan.order, ","))
	rep.notef("digest %s", plan.digest)

	var golden map[string]string
	var setups []float64
	for len(setups) == 0 || (!traced && moreSetups(setups)) {
		t := time.Now()
		var err error
		if golden, err = offlineSetup(); err != nil {
			return err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	if traced {
		return traceOffline(rep, plan, golden)
	}

	// Passes run until the pass boundary nearest the end of the measured
	// window: another pass starts only if less than half of it would run
	// past the window. Running until the window is over could add a whole
	// pass, about half the window, past its end.
	var walls []float64
	var lastSuite *experiments.Suite
	failed, total := 0, 0
	start := time.Now()
	for {
		res, wall, suite := pass(plan.order)
		lastSuite = suite
		total += len(res)
		failed += check(rep, res, golden)
		walls = append(walls, wall.Seconds())
		if time.Since(start)+wall/2 >= time.Duration(seconds)*time.Second {
			break
		}
	}
	elapsed := 0.0
	for _, w := range walls {
		elapsed += w
	}
	heap := heapInuseMB()
	runtime.KeepAlive(lastSuite) // its memoised state counts in the heap

	rep.res.Attempted, rep.res.Failed = total, failed
	rep.set("setup_s", median(setups), fmt.Sprintf("(median of %d set-ups: %s)", len(setups), fmtSeconds(setups)))
	rep.set("throughput_rps", float64(total-failed)/elapsed, fmt.Sprintf("(experiment runs per second; %d runs in %d passes)", total, len(walls)))
	msWalls := make([]float64, len(walls))
	for i, w := range walls {
		msWalls[i] = w * 1e3
	}
	rep.latencies(msWalls, "wall time of one pass")
	rep.notef("  %-30s %14.6g %-5s (median wall time of one pass)", "wall_s", median(walls), "s")
	rep.notef("  %-30s %14.6g %-5s (%d failed of %d attempted)", "error_rate", ratio(float64(failed), float64(total)), "ratio", failed, total)
	rep.set("heap_inuse_mb", heap, "(after a forced GC, the last pass's Suite live)")
	return nil
}

// traceOffline is the traced run: one untraced pass, then one traced
// pass whose spans give the per-runner and pipeline times.
func traceOffline(rep *report, plan offlinePlan, golden map[string]string) error {
	c0 := snapshot()
	res, wallA, _ := pass(plan.order)
	c1 := snapshot()
	failed := check(rep, res, golden)

	obs.ResetTrace()
	obs.SetTracing(true)
	res, wallC, _ := pass(plan.order)
	obs.SetTracing(false)
	spans, dropped := obs.TakeTrace()
	c2 := snapshot()
	failed += check(rep, res, golden)
	rep.res.Attempted, rep.res.Failed = 2*len(plan.order), failed

	st := newSpanStats()
	st.ingest(spans, dropped)
	setSpanLayers(rep, st)
	setCounterLayers(rep, c1, c2, 1)
	setRuntimeLayers(rep, c0, c1, 1)
	rep.set("trace.overhead_pct", 100*(1-wallA.Seconds()/wallC.Seconds()), fmt.Sprintf("(untraced pass %.3fs, traced pass %.3fs)", wallA.Seconds(), wallC.Seconds()))
	holds := st.httpSpans == 0
	rep.set("bench.property_holds", b2f(holds), "(offline-paper: no HTTP spans at all)")
	return nil
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
