package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
)

// envTag starts the line that records the environment of a result.
const envTag = "perfbench-env"

// env is the host environment a result was measured under.
type env struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	GOGC       string `json:"gogc"`
}

func currentEnv() env {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100 (default)"
	}
	return env{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), GOGC: gogc}
}

// savedRun is one benchmark output read back: its environment line and
// its JSON result line.
type savedRun struct {
	env    env
	result jsonResult
}

func readRun(rd io.Reader) (savedRun, error) {
	var s savedRun
	var haveEnv bool
	var last string
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if rest, ok := strings.CutPrefix(line, envTag+" "); ok {
			if err := json.Unmarshal([]byte(rest), &s.env); err != nil {
				return s, fmt.Errorf("environment line: %w", err)
			}
			haveEnv = true
		}
		if line != "" {
			last = line
		}
	}
	if err := sc.Err(); err != nil {
		return s, err
	}
	if !haveEnv {
		return s, fmt.Errorf("no %s line: the result does not record its environment", envTag)
	}
	if err := json.Unmarshal([]byte(last), &s.result); err != nil {
		return s, fmt.Errorf("result line: %w", err)
	}
	return s, nil
}

// compareMain compares two saved outputs metric by metric. It refuses
// (exit 2) when they were measured with a different core count or
// GOMAXPROCS, because wall-clock metrics do not transfer across those.
func compareMain(args []string, w io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare <base.out> <new.out>")
		return 2
	}
	var runs [2]savedRun
	for i, path := range args {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 2
		}
		runs[i], err = readRun(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", path, err)
			return 2
		}
	}
	if err := comparable(runs[0].env, runs[1].env); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: refusing to compare: %v\n", err)
		return 2
	}
	base, cur := runs[0].result.Metrics, runs[1].result.Metrics
	names := make([]string, 0, len(base))
	for n := range base {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		b := base[n]
		c, ok := cur[n]
		switch {
		case !ok:
			fmt.Fprintf(w, "%-34s %12.6g %s  (missing in new)\n", n, b.Value, b.Unit)
		case b.Value == 0:
			fmt.Fprintf(w, "%-34s %12.6g -> %12.6g %s\n", n, b.Value, c.Value, b.Unit)
		default:
			fmt.Fprintf(w, "%-34s %12.6g -> %12.6g %s  (%+.1f%%)\n", n, b.Value, c.Value, b.Unit, 100*(c.Value/b.Value-1))
		}
	}
	return 0
}

// comparable reports why two environments cannot be compared, or nil.
func comparable(a, b env) error {
	if a.NumCPU != b.NumCPU {
		return fmt.Errorf("nproc differs (%d vs %d)", a.NumCPU, b.NumCPU)
	}
	if a.GOMAXPROCS != b.GOMAXPROCS {
		return fmt.Errorf("GOMAXPROCS differs (%d vs %d)", a.GOMAXPROCS, b.GOMAXPROCS)
	}
	return nil
}
