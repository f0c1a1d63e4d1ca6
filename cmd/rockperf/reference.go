package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The end-to-end timings are CPU time scaled to a reference speed. The
// VM the benchmark was built on changes speed by a quarter from one
// second to the next, because other tenants share the host's cores,
// caches and memory; CPU time leaves out the time the host takes away
// but not that slowdown. So the benchmark runs a fixed reference kernel
// next to the ops — after each op, or in the idle gaps of an open-loop
// stream — and divides each op's CPU time by the kernel's CPU time
// measured nearest it. The kernel does what Rock's own hot paths do —
// allocates small linked objects, fills a map and sorts — on every
// worker, so it slows with the machine as they do (README.md gives the
// measurements). It runs in a child process so that it shares no heap,
// collector or goroutines with the program under test.
const (
	// refNominal is the kernel's CPU time at the reference speed: an op
	// whose CPU time is k times the kernel's costs k*20 ref-ms. It is
	// about the kernel's CPU time on the VM the benchmark was built on, so
	// there one ref-ms is about one CPU millisecond.
	refNominal = 20 * time.Millisecond
	// refEvery is the least time between two kernel runs of a closed loop,
	// so that short ops are not outnumbered by kernel runs.
	refEvery = 25 * time.Millisecond
	// refNearest is how many kernel runs, nearest in time, an op is
	// scaled by (their median).
	refNearest = 3
	// refEnv, set to 1 in a process's environment, makes it the
	// reference process (see init).
	refEnv = "ROCKPERF_REFERENCE"
)

func init() {
	// The reference process is this binary (or the test binary) re-run
	// with refEnv set, so tests need no separate build.
	if os.Getenv(refEnv) == "1" {
		if err := serveReference(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "rockperf reference: %v\n", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
}

// serveReference runs the kernel once per line read from r and writes its
// CPU time in nanoseconds as a line to w, until r ends.
func serveReference(r io.Reader, w io.Writer) error {
	in := bufio.NewReader(r)
	for {
		if _, err := in.ReadString('\n'); err == io.EOF {
			return nil
		} else if err != nil {
			return err
		}
		d := referenceKernel()
		// Each run starts from the same collected heap, and no collection
		// it started runs on into the next op.
		runtime.GC()
		if _, err := fmt.Fprintln(w, d.Nanoseconds()); err != nil {
			return err
		}
	}
}

type refNode struct {
	key  int
	next *refNode
	val  []byte
}

// refSink keeps the kernel's results, so that none of its work is dead.
var refSink int

// referenceKernel runs the fixed kernel on GOMAXPROCS goroutines and
// returns the process CPU time it took.
func referenceKernel() time.Duration {
	start := cpuTime()
	sinks := make([]int, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for g := range sinks {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			m := map[int]*refNode{}
			var head *refNode
			for i := 0; i < 20000; i++ {
				n := &refNode{key: rng.Int(), next: head, val: make([]byte, 16+rng.Intn(48))}
				m[n.key%50000] = n
				head = n
			}
			keys := make([]int, 0, 20000)
			for n := head; n != nil; n = n.next {
				keys = append(keys, n.key^int(n.val[0]))
			}
			sort.Ints(keys)
			sinks[g] = len(m) + keys[len(keys)/2]%7
		}(g)
	}
	wg.Wait()
	d := cpuTime() - start
	for _, s := range sinks {
		refSink += s
	}
	return d
}

// reference is the parent's handle on the reference process.
type reference struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	out *bufio.Reader
}

// startReference starts the reference process; close stops it.
func startReference() (*reference, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self)
	cmd.Env = append(os.Environ(), refEnv+"=1")
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	return &reference{cmd: cmd, in: in, out: bufio.NewReader(out)}, nil
}

// run has the reference process run the kernel once and returns when it
// ran and its CPU time.
func (r *reference) run() (refSample, error) {
	start := time.Now()
	if _, err := io.WriteString(r.in, "\n"); err != nil {
		return refSample{}, fmt.Errorf("reference process: %w", err)
	}
	line, err := r.out.ReadString('\n')
	if err != nil {
		return refSample{}, fmt.Errorf("reference process: %w", err)
	}
	ns, err := strconv.ParseInt(strings.TrimSpace(line), 10, 64)
	if err != nil {
		return refSample{}, fmt.Errorf("reference process: %w", err)
	}
	return refSample{start: start, done: time.Now(), cpu: time.Duration(ns)}, nil
}

// close ends the reference process and waits for it to exit.
func (r *reference) close() error {
	r.in.Close() // the process exits at the end of its input
	return r.cmd.Wait()
}

// refSample is one kernel run, or one timed op: when it ran and the CPU
// time it took.
type refSample struct {
	start, done time.Time
	cpu         time.Duration
}

func (s refSample) mid() time.Time { return s.start.Add(s.done.Sub(s.start) / 2) }

// errNoReference means a run kept no kernel run to scale its ops by.
var errNoReference = errors.New("no reference kernel run to scale the ops by")

// scaled returns op's CPU time at the reference speed in ms: its CPU time
// times refNominal over the median CPU time of the refNearest kernel runs
// nearest to it. refs must be in time order.
func scaled(op refSample, refs []refSample) (float64, error) {
	if len(refs) == 0 {
		return 0, errNoReference
	}
	at := op.mid()
	// refs[i:j] grows towards whichever neighbour is nearer.
	i := sort.Search(len(refs), func(k int) bool { return !refs[k].mid().Before(at) })
	j := i
	for j-i < refNearest && (i > 0 || j < len(refs)) {
		if j == len(refs) || (i > 0 && at.Sub(refs[i-1].mid()) < refs[j].mid().Sub(at)) {
			i--
		} else {
			j++
		}
	}
	return ms(op.cpu) * float64(refNominal) / refMedian(refs[i:j]), nil
}

// refMedian is the median CPU time of refs, in ns.
func refMedian(refs []refSample) float64 {
	cpu := make([]float64, len(refs))
	for i, r := range refs {
		cpu[i] = float64(r.cpu)
	}
	return median(cpu)
}
