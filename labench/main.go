// Command labench is the repository benchmark. It drives the LevelArray
// stack — tas → core → shard → lease(+wal) → server/wire — through four
// workloads and prints one JSON result line:
//
//	churn          the paper's long-lived regime, in process, on a Sharded array
//	lease-local    the same array behind a lease manager with a finite TTL
//	lease-wire     a real laserve process, in memory, over the wire protocol
//	lease-durable  lease-wire with a write-ahead log fsynced on every append
//
// With -trace 0 the result carries the end-to-end metrics of the workload.
// With -trace 1 it carries the per-layer metrics of a traced run instead
// (see traced.go). Every run checks the outputs it sees and exits non-zero
// when a check fails. labench/run.sh builds this command and laserve from
// the tree under test and runs it:
//
//	bash labench/run.sh --workload churn --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Workload names, in the order BENCHMARK.json lists them.
var workloads = []string{"churn", "lease-local", "lease-wire", "lease-durable"}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet maps metric names to values.
type metricSet map[string]metric

func (m metricSet) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// result is the last line a run prints.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// config is what one run was asked to do.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	laserve  string // laserve binary built from the tree under test
	work     string // scratch directory for data dirs, logs and spans
	procs    int    // GOMAXPROCS of the generator and of laserve
}

// tally counts attempted and failed operations and collects correctness
// violations. Workers keep their own counts and add them once at the end.
type tally struct {
	attempted atomic.Int64
	failed    atomic.Int64

	mu         sync.Mutex
	violations []string
	nviol      int
}

// violate records one correctness violation.
func (t *tally) violate(format string, args ...any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nviol++
	if len(t.violations) < 20 {
		t.violations = append(t.violations, fmt.Sprintf(format, args...))
	}
}

func (t *tally) ok() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.nviol == 0
}

func main() {
	code, err := run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "labench:", err)
	}
	os.Exit(code)
}

func run() (int, error) {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloads, ", "))
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed for every generated input")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.StringVar(&cfg.laserve, "laserve", "", "path to the laserve binary")
	flag.StringVar(&cfg.work, "work", ".bench_build/work", "scratch directory")
	flag.Parse()

	known := false
	for _, w := range workloads {
		known = known || w == cfg.workload
	}
	if !known {
		return 2, fmt.Errorf("unknown -workload %q (valid: %s)", cfg.workload, strings.Join(workloads, ", "))
	}
	if cfg.seconds <= 0 {
		return 2, fmt.Errorf("invalid -seconds %v (valid: above 0)", cfg.seconds)
	}
	if traceFlag != 0 && traceFlag != 1 {
		return 2, fmt.Errorf("invalid -trace %d (valid: 0, 1)", traceFlag)
	}
	cfg.trace = traceFlag == 1
	if cfg.laserve == "" {
		return 2, fmt.Errorf("-laserve is required")
	}
	if _, err := os.Stat(cfg.laserve); err != nil {
		return 2, fmt.Errorf("laserve binary: %w", err)
	}
	work, err := filepath.Abs(cfg.work)
	if err != nil {
		return 2, err
	}
	cfg.work = work
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return 2, err
	}
	cfg.procs = min(2, runtime.NumCPU())
	runtime.GOMAXPROCS(cfg.procs)

	envLine, err := describeEnv(&cfg)
	if err != nil {
		return 2, err
	}
	fmt.Println("env", envLine)

	t := &tally{}
	var m metricSet
	if cfg.trace {
		m, err = runTraced(&cfg, t)
	} else {
		switch cfg.workload {
		case "churn":
			m, err = runChurn(&cfg, t)
		case "lease-local":
			m, err = runLeaseLocal(&cfg, t)
		default:
			m, err = runService(&cfg, t, cfg.workload == "lease-durable")
		}
	}
	if err != nil {
		return 1, err
	}
	res := result{Correct: t.ok(), Attempted: t.attempted.Load(), Failed: t.failed.Load(), Metrics: m}
	if res.Attempted < 1 {
		return 1, fmt.Errorf("no operation was attempted")
	}
	for _, v := range t.violations {
		fmt.Fprintln(os.Stderr, "labench: violation:", v)
	}
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "labench: %d correctness violations\n", t.nviol)
	}
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%-34s %14.4f %s\n", k, m[k].Value, m[k].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return 1, err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1, nil
	}
	return 0, nil
}

// describeEnv renders the environment every result is recorded with: CPU
// count, GOMAXPROCS of the generator and of laserve, the Go version, and the
// filesystem under the data directories with its measured synchronous-write
// cost.
func describeEnv(cfg *config) (string, error) {
	fs, err := fsType(cfg.work)
	if err != nil {
		return "", err
	}
	syncUS, err := syncWriteCost(cfg.work, 200)
	if err != nil {
		return "", err
	}
	env := map[string]any{
		"workload":           cfg.workload,
		"seed":               cfg.seed,
		"seconds":            cfg.seconds,
		"trace":              cfg.trace,
		"nproc":              runtime.NumCPU(),
		"gomaxprocs_loadgen": cfg.procs,
		"gomaxprocs_laserve": cfg.procs,
		"go_version":         runtime.Version(),
		"data_fs":            fs,
		"dsync_write_64b_us": syncUS,
	}
	b, err := json.Marshal(env)
	return string(b), err
}

// syncWriteCost times n 64-byte O_DSYNC writes in dir, the cost of one
// durable append on the filesystem the durable workload logs to, and returns
// the mean in microseconds.
func syncWriteCost(dir string, n int) (float64, error) {
	path := filepath.Join(dir, "dsync-probe")
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC|dsyncFlag, 0o644)
	if err != nil {
		return 0, err
	}
	defer os.Remove(path)
	defer f.Close()
	buf := make([]byte, 64)
	start := time.Now()
	for range n {
		if _, err := f.Write(buf); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(start).Nanoseconds()) / 1e3 / float64(n), nil
}
