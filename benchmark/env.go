package main

import (
	"bufio"
	"bytes"
	"context"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// envStamp records where and on what a set of numbers was measured;
// comparable refuses two records whose machines or toolchains differ.
type envStamp struct {
	GoVersion  string `json:"go_version"`
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	Commit     string `json:"commit"`
	Kernel     string `json:"kernel"`
	LLC        string `json:"llc"`
}

func readTrimmed(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(data))
}

// llcSize reports the highest-level cache sysfs lists for cpu0.
func llcSize() string {
	for idx := 4; idx >= 0; idx-- {
		p := "/sys/devices/system/cpu/cpu0/cache/index" + strconv.Itoa(idx) + "/size"
		if s := readTrimmed(p); s != "unknown" {
			return s
		}
	}
	return "unknown"
}

// gitCommit asks git for HEAD, marked "-dirty" when the tree has uncommitted
// changes; a checkout that is not a repository (the driver's) or has no git
// reads "unknown".
func gitCommit() string {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, "git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	commit := strings.TrimSpace(string(out))
	if st, err := exec.CommandContext(ctx, "git", "status", "--porcelain").Output(); err == nil && len(bytes.TrimSpace(st)) > 0 {
		commit += "-dirty"
	}
	return commit
}

func stampEnv(withCommit bool) envStamp {
	e := envStamp{
		GoVersion:  runtime.Version(),
		NProc:      runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Commit:     "unknown",
		Kernel:     readTrimmed("/proc/sys/kernel/osrelease"),
		LLC:        llcSize(),
	}
	if withCommit {
		e.Commit = gitCommit()
	}
	return e
}

// procStatusKB reads one "Vm*: N kB" field of /proc/self/status.
func procStatusKB(field string) (int64, bool) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, false
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, field+":") {
			continue
		}
		f := strings.Fields(line[len(field)+1:])
		if len(f) == 0 {
			return 0, false
		}
		v, err := strconv.ParseInt(f[0], 10, 64)
		return v, err == nil
	}
	return 0, false
}

// rssMeter measures the peak resident set of the first rssRounds timed
// rounds. Where the kernel allows it, it resets the high-water mark (VmHWM)
// through /proc/self/clear_refs when the phase starts and reads it after
// round rssRounds; elsewhere it reads VmRSS at each round's end, which misses
// a spike inside a round — method says which one produced the number.
//
// The round count is fixed because resident memory grows with every round:
// each algorithm call leaves its result property registered on the cluster
// (nothing calls DropProps for it), 8 bytes per node per call, so a phase
// counted by time would report more memory for faster code.
type rssMeter struct {
	method string
	hwm    bool
	rounds int
	peak   float64 // MiB
}

const rssRounds = minTimedRounds

func newRSSMeter() *rssMeter {
	m := &rssMeter{method: "VmRSS at round ends"}
	if os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil {
		if _, ok := procStatusKB("VmHWM"); ok {
			m.hwm, m.method = true, "VmHWM reset at phase start"
		}
	}
	return m
}

// roundEnd is called after every timed round; it measures through round
// rssRounds and ignores the rest. Off Linux, where /proc has neither field,
// it records the memory the Go runtime holds from the OS, so the metric is
// never 0.
func (m *rssMeter) roundEnd() {
	if m.rounds++; m.rounds > rssRounds {
		return
	}
	field := "VmRSS"
	if m.hwm {
		field = "VmHWM"
	}
	mib := 0.0
	if kb, ok := procStatusKB(field); ok {
		mib = float64(kb) / 1024
	} else {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		m.method = "runtime.MemStats.Sys"
		mib = float64(ms.Sys) / (1 << 20)
	}
	if mib > m.peak {
		m.peak = mib
	}
}
