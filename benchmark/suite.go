package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// suite is a run of several workloads, each in a child process.
type suite struct {
	names    []string
	seed     int64
	seconds  float64
	rounds   int
	tiny     bool
	traceOut string
}

// recordable reports whether the suite's sets belong in the history file:
// every workload at the default seed, length and sizes, so that any two
// records can be compared.
func (s *suite) recordable() bool {
	return len(s.names) == len(workloads) && s.seed == defaultSeed && s.seconds == runSeconds && s.rounds == 0 && !s.tiny
}

// workloadRecord is one workload's numbers within a set.
type workloadRecord struct {
	Rounds    int                  `json:"rounds"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	FailRatio float64              `json:"fail_ratio"`
	RSSMethod string               `json:"rss_method"`
	EndToEnd  map[string]metricVal `json:"end_to_end"`
	Q1        map[string]float64   `json:"q1"`
	Q3        map[string]float64   `json:"q3"`
	PerLayer  map[string]metricVal `json:"per_layer"`
}

// setRecord is one line of history.jsonl: a whole set with its stamp.
type setRecord struct {
	Time      string                     `json:"time"`
	Env       envStamp                   `json:"env"`
	Seed      int64                      `json:"seed"`
	Seconds   float64                    `json:"seconds"`
	Rounds    int                        `json:"rounds_override"`
	Tiny      bool                       `json:"tiny"`
	Workloads map[string]*workloadRecord `json:"workloads"`
}

// child re-executes this binary for one workload run and parses its output.
func (s *suite) child(name string, trace bool) (result, detail, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, detail{}, err
	}
	args := []string{
		"--workload", name, "--seed", strconv.FormatInt(s.seed, 10),
		"--seconds", strconv.FormatFloat(s.seconds, 'g', -1, 64),
		"--trace", map[bool]string{false: "0", true: "1"}[trace],
		"--trace-out", s.traceOut,
	}
	if s.rounds > 0 {
		args = append(args, "--rounds", strconv.Itoa(s.rounds))
	}
	if s.tiny {
		args = append(args, "--tiny")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output() // waits for the child to end
	var res result
	var det detail
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, detailPrefix):
			if err := json.Unmarshal([]byte(line[len(detailPrefix):]), &det); err != nil {
				return res, det, fmt.Errorf("%s: detail line: %w", name, err)
			}
		case strings.HasPrefix(line, "{"):
			last = line
		default:
			fmt.Println(line)
		}
	}
	if last == "" {
		return res, det, fmt.Errorf("%s: child printed no result (%v)", name, runErr)
	}
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return res, det, fmt.Errorf("%s: result line: %w", name, err)
	}
	return res, det, nil // a failed check is in res; the caller reports it
}

// oneSet runs every workload untraced and then traced.
func (s *suite) oneSet() (*setRecord, error) {
	set := &setRecord{
		Time: time.Now().UTC().Format(time.RFC3339), Env: stampEnv(true),
		Seed: s.seed, Seconds: s.seconds, Rounds: s.rounds, Tiny: s.tiny,
		Workloads: map[string]*workloadRecord{},
	}
	for _, name := range s.names {
		res, det, err := s.child(name, false)
		if err != nil {
			return nil, err
		}
		tres, _, err := s.child(name, true)
		if err != nil {
			return nil, err
		}
		att, failed := res.Attempted+tres.Attempted, res.Failed+tres.Failed
		ratio := float64(failed) / float64(att)
		set.Workloads[name] = &workloadRecord{
			Rounds: det.Rounds, Attempted: att, Failed: failed, FailRatio: ratio, RSSMethod: det.RSS,
			EndToEnd: res.Metrics, Q1: det.Q1, Q3: det.Q3, PerLayer: tres.Metrics,
		}
		fmt.Printf("  fail_ratio %g (%d of %d)\n\n", ratio, failed, att)
	}
	return set, nil
}

func (s *suite) run(sets int, check bool) int {
	if sets < 1 {
		sets = 1
	}
	env := stampEnv(true)
	fmt.Printf("benchmark: go %s, nproc %d, GOMAXPROCS %d, commit %s, kernel %s, LLC %s, seed %d, %g s per run\n\n",
		env.GoVersion, env.NProc, env.GoMaxProcs, env.Commit, env.Kernel, env.LLC, s.seed, s.seconds)
	var prev *setRecord
	if check {
		var err error
		if prev, err = lastRecord(historyPath); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: -check:", err)
			return 1
		}
		// Refuse before measuring: numbers from another machine, toolchain or
		// run shape are not a baseline for this one.
		fresh := &setRecord{Env: env, Seed: s.seed, Seconds: s.seconds, Rounds: s.rounds, Tiny: s.tiny}
		if err := comparable(prev, fresh); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: -check: the last record of %s is not comparable with this run: %v\n", historyPath, err)
			return 1
		}
	}
	var all []*setRecord
	failed := false
	for i := 0; i < sets; i++ {
		if sets > 1 {
			fmt.Printf("=== set %d of %d ===\n", i+1, sets)
		}
		set, err := s.oneSet()
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		all = append(all, set)
		for _, name := range s.names {
			if w := set.Workloads[name]; w.Failed > 0 {
				fmt.Fprintf(os.Stderr, "benchmark: workload %s: fail_ratio %g\n", name, w.FailRatio)
				failed = true
			}
		}
		if s.recordable() && !check {
			if err := appendRecord(historyPath, set); err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
		}
	}
	if sets > 1 {
		if !compareSets(os.Stdout, "set 1", all[0], fmt.Sprintf("set %d", sets), all[sets-1], s.names, true) {
			failed = true
		}
	}
	if check {
		if !compareSets(os.Stdout, "last record", prev, "fresh set", all[0], s.names, false) {
			failed = true
		}
	}
	if failed {
		return 1
	}
	return 0
}

// comparable returns why two records must not be compared, or nil: they were
// measured on different machines or toolchains, or are runs of different
// shape.
func comparable(a, b *setRecord) error {
	for _, f := range []struct {
		what string
		a, b any
	}{
		{"go version", a.Env.GoVersion, b.Env.GoVersion},
		{"nproc", a.Env.NProc, b.Env.NProc},
		{"GOMAXPROCS", a.Env.GoMaxProcs, b.Env.GoMaxProcs},
		{"kernel", a.Env.Kernel, b.Env.Kernel},
		{"seed", a.Seed, b.Seed},
		{"seconds", a.Seconds, b.Seconds},
		{"rounds override", a.Rounds, b.Rounds},
		{"tiny", a.Tiny, b.Tiny},
	} {
		if f.a != f.b {
			return fmt.Errorf("%s %v against %v", f.what, f.a, f.b)
		}
	}
	return nil
}

// compareSets prints, per end-to-end metric × workload, both medians, both
// quartile ranges, the relative difference and the bound, and reports
// whether b is within the bound of a everywhere. symmetric also fails b
// being better than a by more than the bound — two sets of the same code
// must simply agree. A metric whose quartile range within either set is
// wider than its bound is reported as unresolved, whatever the medians say,
// and does not pass.
func compareSets(w io.Writer, an string, a *setRecord, bn string, b *setRecord, names []string, symmetric bool) bool {
	fmt.Fprintf(w, "%-12s %-15s %14s %25s %14s %25s %8s %6s\n", "workload", "metric", an, "[q1, q3]", bn, "[q1, q3]", "diff", "bound")
	ok := true
	for _, name := range names {
		wa, wb := a.Workloads[name], b.Workloads[name]
		if wa == nil || wb == nil {
			fmt.Fprintf(w, "%-12s missing from one side\n", name)
			ok = false
			continue
		}
		for _, m := range endToEnd {
			va, vb := wa.EndToEnd[m.Name].Value, wb.EndToEnd[m.Name].Value
			if va == 0 || vb == 0 {
				fmt.Fprintf(w, "%-12s %-15s no value on one side\n", name, m.Name)
				ok = false
				continue
			}
			// worse > 0 means b is worse than a.
			worse := (vb - va) / va
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := ""
			switch {
			case (wa.Q3[m.Name]-wa.Q1[m.Name])/va > m.Bound || (wb.Q3[m.Name]-wb.Q1[m.Name])/vb > m.Bound:
				verdict = "  UNRESOLVED"
				ok = false
			case worse > m.Bound || (symmetric && -worse > m.Bound):
				verdict = "  OUTSIDE"
				ok = false
			}
			fmt.Fprintf(w, "%-12s %-15s %14.6g %25s %14.6g %25s %+7.1f%% %5.0f%%%s\n", name, m.Name,
				va, fmt.Sprintf("[%.5g, %.5g]", wa.Q1[m.Name], wa.Q3[m.Name]),
				vb, fmt.Sprintf("[%.5g, %.5g]", wb.Q1[m.Name], wb.Q3[m.Name]),
				100*worse, 100*m.Bound, verdict)
		}
	}
	return ok
}

func appendRecord(path string, set *setRecord) error {
	data, err := json.Marshal(set)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close() //nolint:errcheck // the write error is the one to report
		return err
	}
	return f.Close()
}

// lastRecord returns the last line of the history file.
func lastRecord(path string) (*setRecord, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	lines := bytes.Split(bytes.TrimSpace(data), []byte("\n"))
	if len(lines) == 0 || len(lines[len(lines)-1]) == 0 {
		return nil, fmt.Errorf("%s holds no record", path)
	}
	var set setRecord
	if err := json.Unmarshal(lines[len(lines)-1], &set); err != nil {
		return nil, fmt.Errorf("%s: last record: %w", path, err)
	}
	return &set, nil
}
