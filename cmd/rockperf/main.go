// Command rockperf is Rock's benchmark. It runs five fixed workloads
// through the entry points users call — rock.AnalyzeCorpus,
// rock.AnalyzeImage, and a rockd daemon over loopback HTTP — checks every
// result against a reference, and reports end-to-end metrics from an
// untraced measured phase and per-layer metrics from a separate traced
// pass: the stage report of an observed analysis, plus timed calls of
// the layers outside it (image load and digest, snapshot decode and
// encode).
//
//	rockperf -workload NAME -seed N -seconds S -trace 0|1
//	    one workload in this process; -trace 1 adds the traced pass
//	rockperf -seed N -out FILE
//	    all five workloads, each in a child process, traced
//	rockperf -compare BASE.json NEW.json
//	    median and quartiles per workload and end-to-end metric, with a
//	    verdict against the bounds in BENCHMARK.json; exits 1 on a
//	    regression
//
// -out appends the run to FILE, so repeated runs collect into one file.
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// -trace 0, the per-layer metrics with -trace 1. Build and run it with
// cmd/rockperf/run.sh from the repository root; README.md describes the
// workloads and metrics.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// record is one workload run, as kept in -out files.
type record struct {
	Workload  string            `json:"workload"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	Env       environment       `json:"env"`
}

// environment records what a later run needs to tell a machine change
// from a code change.
type environment struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Workers    int     `json:"workers"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	// Setups is how many times the workload was set up.
	Setups int `json:"setups"`
	// Ops is the number of ops the cost percentiles are taken over, and
	// OpWallMS the measured phase's wall time per op.
	Ops      int     `json:"ops"`
	OpWallMS float64 `json:"op_wall_ms"`
	// CPUP50MS is the ops' median CPU time before scaling to the reference
	// speed; RefRuns and RefMS are the number of reference kernel runs in
	// the measured phase and their median CPU time. When CPUP50MS moves
	// with RefMS, the machine changed speed, not the code.
	CPUP50MS float64 `json:"cpu_p50_ms"`
	RefRuns  int     `json:"ref_runs"`
	RefMS    float64 `json:"ref_ms"`
	// WallP50MS and WallP90MS are the ops' wall-clock latency percentiles
	// and StealShare the share of the machine's CPU time the host gave to
	// other tenants during the measured phase: wall-clock latency grows
	// with it, CPU time far less.
	WallP50MS  float64 `json:"wall_p50_ms"`
	WallP90MS  float64 `json:"wall_p90_ms"`
	StealShare float64 `json:"steal_share"`
	// TracedReps is how many times the traced pass ran (0: not traced).
	TracedReps int `json:"traced_reps,omitempty"`
}

// runFile is the -out format: a list of runs, each holding one record
// per workload it ran.
type runFile struct {
	Runs []runSet `json:"runs"`
}

type runSet struct {
	Workloads []*record `json:"workloads"`
}

// result is the line printed last on standard output: the summary a
// script reads.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "run only this workload in this process (default: all five, each in a child process)")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 15, "length of each workload's measured phase, in seconds")
	trace := flag.Int("trace", 0, "1 adds the traced pass and reports per-layer metrics instead of end-to-end ones (all-workload runs always trace)")
	out := flag.String("out", "", "append the run's records to this JSON file")
	traceOut := flag.String("trace-out", "", "write the traced pass as chrome-trace JSON to this file (all-workload runs add the workload name before the extension)")
	compare := flag.Bool("compare", false, "compare two -out files: rockperf -compare BASE.json NEW.json")
	flag.Parse()

	root, err := findRoot()
	if err != nil {
		fatal(err)
	}
	if *compare {
		if flag.NArg() != 2 {
			fatal(errors.New("-compare needs two files: BASE.json NEW.json"))
		}
		code, err := runCompare(os.Stdout, root, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		os.Exit(code)
	}
	if flag.NArg() != 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 ||
		(*name != "" && *traceOut != "" && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	p := params{
		workload: *name,
		seed:     *seed,
		seconds:  *seconds,
		traced:   *trace == 1,
		traceOut: *traceOut,
		root:     root,
		work:     filepath.Join(root, ".bench_build", "work"),
	}
	if *name == "" {
		os.Exit(runAll(p, *out))
	}
	rec, err := runWorkload(context.Background(), p)
	if err != nil {
		fatal(err)
	}
	if *out != "" {
		if err := appendRun(*out, runSet{Workloads: []*record{rec}}); err != nil {
			fatal(err)
		}
	}
	printRecords(os.Stdout, []*record{rec})
	specs := endToEnd
	if p.traced {
		specs = perLayer
	}
	res := result{Correct: rec.Correct, Attempted: rec.Attempted, Failed: rec.Failed, Metrics: map[string]metric{}}
	for _, s := range specs {
		res.Metrics[s.name] = rec.Metrics[s.name]
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// runAll runs every workload traced, each in a child process so one
// workload's heap and caches never colour the next, and returns the
// exit code: 1 when a workload failed or gave a wrong result.
func runAll(p params, out string) int {
	self, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	if err := os.MkdirAll(p.work, 0o755); err != nil {
		fatal(err)
	}
	tmp, err := os.MkdirTemp(p.work, "all-")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(tmp)
	var set runSet
	code := 0
	for _, w := range workloads {
		recFile := filepath.Join(tmp, w.name+".json")
		args := []string{"-workload", w.name, "-seed", strconv.FormatInt(p.seed, 10),
			"-seconds", strconv.FormatFloat(p.seconds, 'g', -1, 64), "-trace", "1", "-out", recFile}
		if p.traceOut != "" {
			ext := filepath.Ext(p.traceOut)
			args = append(args, "-trace-out", strings.TrimSuffix(p.traceOut, ext)+"."+w.name+ext)
		}
		fmt.Fprintf(os.Stderr, "rockperf: running %s\n", w.name)
		// The child's own table is left out: the combined one follows.
		cmd := exec.Command(self, args...)
		cmd.Stderr = os.Stderr
		err := cmd.Run()
		var f *runFile
		if err == nil {
			f, err = readRuns(recFile)
		}
		if err == nil && (len(f.Runs) != 1 || len(f.Runs[0].Workloads) != 1) {
			err = errors.New("no record")
		}
		if err != nil {
			// A failed check without metrics, so -compare sees the loss.
			fmt.Fprintf(os.Stderr, "rockperf: %s: %v\n", w.name, err)
			code = 1
			set.Workloads = append(set.Workloads, &record{Workload: w.name, Attempted: 1, Failed: 1,
				Failures: []string{err.Error()}})
			continue
		}
		rec := f.Runs[0].Workloads[0]
		if !rec.Correct {
			code = 1
		}
		set.Workloads = append(set.Workloads, rec)
	}
	printRecords(os.Stdout, set.Workloads)
	if out != "" {
		if err := appendRun(out, set); err != nil {
			fatal(err)
		}
	}
	return code
}

// printRecords writes a readable table of the records: every metric by
// name and unit, one column per workload, then any failed checks.
func printRecords(w io.Writer, recs []*record) {
	if len(recs) == 0 {
		return
	}
	fmt.Fprintf(w, "%-26s %-10s", "metric", "unit")
	for _, r := range recs {
		fmt.Fprintf(w, " %13s", r.Workload)
	}
	fmt.Fprintln(w)
	for _, specs := range [][]spec{endToEnd, perLayer} {
		for _, s := range specs {
			var row strings.Builder
			reported := false
			for _, r := range recs {
				m, ok := r.Metrics[s.name]
				reported = reported || ok
				fmt.Fprintf(&row, " %13.4f", m.Value)
			}
			if reported {
				fmt.Fprintf(w, "%-26s %-10s%s\n", s.name, s.unit, row.String())
			}
		}
	}
	for _, r := range recs {
		e := r.Env
		fmt.Fprintf(w, "%s: %d/%d checks failed; %d set-ups; %d ops at %.2f ms each over %gs, CPU p50 %.3f ms, wall p50 %.3f ms, p90 %.3f ms, %.1f%% stolen; %d reference runs at %.3f ms; seed %d, nproc %d, GOMAXPROCS %d, workers %d, %s",
			r.Workload, r.Failed, r.Attempted, e.Setups, e.Ops, e.OpWallMS, e.Seconds, e.CPUP50MS, e.WallP50MS, e.WallP90MS, 100*e.StealShare,
			e.RefRuns, e.RefMS, e.Seed, e.NProc, e.GOMAXPROCS, e.Workers, e.GoVersion)
		if e.TracedReps > 0 {
			fmt.Fprintf(w, "; traced pass x%d", e.TracedReps)
		}
		fmt.Fprintln(w)
		for _, f := range r.Failures {
			fmt.Fprintf(w, "  FAILED: %s\n", f)
		}
	}
}

// appendRun adds set to the -out file, creating it when missing. Each
// run is written on a line of its own.
func appendRun(path string, set runSet) error {
	f, err := readRuns(path)
	if errors.Is(err, os.ErrNotExist) {
		f, err = &runFile{}, nil
	}
	if err != nil {
		return err
	}
	f.Runs = append(f.Runs, set)
	var b bytes.Buffer
	b.WriteString("{\"runs\": [\n")
	for i, run := range f.Runs {
		line, err := json.Marshal(run)
		if err != nil {
			return err
		}
		if i > 0 {
			b.WriteString(",\n")
		}
		b.Write(line)
	}
	b.WriteString("\n]}\n")
	return os.WriteFile(path, b.Bytes(), 0o644)
}

// readRuns loads a -out file.
func readRuns(path string) (*runFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f runFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// findRoot walks up from the working directory to the directory holding
// BENCHMARK.json, the repository root.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no BENCHMARK.json in the working directory or above it; run from the repository root")
		}
		dir = parent
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "rockperf: %v\n", err)
	os.Exit(1)
}
