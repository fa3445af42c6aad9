package obs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
)

// Handler returns an http.Handler exposing the registry's debug surface:
//
//	/debug/metrics   lifetime counters + last-job report (JSON)
//	/debug/trace     recent spans, ?max=N caps per machine, ?text=1 for logs
//	/debug/abort     last flight-recorder dump (JSON), 404 when none
//	/debug/pprof/*   the standard Go profiler endpoints
//
// pgxd-server mounts this on its -debug-addr listener; tests mount it on
// httptest servers. The handler is safe while jobs run — all reads are
// snapshots.
func (r *Registry) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/metrics", r.serveMetrics)
	mux.HandleFunc("/debug/trace", r.serveTrace)
	mux.HandleFunc("/debug/abort", r.serveAbort)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// metricsPayload is the /debug/metrics response shape.
type metricsPayload struct {
	Machines int                    `json:"machines"`
	Jobs     int64                  `json:"jobs"`
	Aborts   int64                  `json:"aborts"`
	Lifetime map[string]int64       `json:"lifetime"`
	Hists    map[string]histPayload `json:"histograms"`
	LastJob  *JobReport             `json:"last_job,omitempty"`
}

type histPayload struct {
	Count  int64 `json:"count"`
	MeanNS int64 `json:"mean_ns"`
	P50NS  int64 `json:"p50_ns"`
	P99NS  int64 `json:"p99_ns"`
}

func (r *Registry) serveMetrics(w http.ResponseWriter, req *http.Request) {
	if r == nil || !r.Attached() {
		http.Error(w, "obs: registry not attached", http.StatusServiceUnavailable)
		return
	}
	p := metricsPayload{
		Machines: r.Machines(),
		Jobs:     r.JobsObserved(),
		Aborts:   r.AbortsObserved(),
		Lifetime: r.LifetimeCounters(),
		Hists:    make(map[string]histPayload, int(numHists)),
		LastJob:  r.LastReport(),
	}
	for h := HistID(0); h < numHists; h++ {
		s := r.LifetimeHistogram(h)
		if s.Count == 0 {
			continue
		}
		p.Hists[h.String()] = histPayload{
			Count:  s.Count,
			MeanNS: int64(s.Mean()),
			P50NS:  int64(s.Quantile(0.5)),
			P99NS:  int64(s.Quantile(0.99)),
		}
	}
	writeJSON(w, p)
}

func (r *Registry) serveTrace(w http.ResponseWriter, req *http.Request) {
	if r == nil || !r.Attached() {
		http.Error(w, "obs: registry not attached", http.StatusServiceUnavailable)
		return
	}
	max := 512
	if v := req.URL.Query().Get("max"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			max = n
		}
	}
	spans := r.RecentSpans(max)
	if req.URL.Query().Get("text") != "" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		// Group by machine so each timeline reads contiguously.
		byM := map[int16][]Span{}
		var ms []int16
		for _, s := range spans {
			if _, ok := byM[s.Machine]; !ok {
				ms = append(ms, s.Machine)
			}
			byM[s.Machine] = append(byM[s.Machine], s)
		}
		sort.Slice(ms, func(i, j int) bool { return ms[i] < ms[j] })
		for _, m := range ms {
			fmt.Fprintf(w, "# machine %d (%d spans)\n", m, len(byM[m]))
			for _, s := range byM[m] {
				fmt.Fprintln(w, s)
			}
		}
		return
	}
	writeJSON(w, struct {
		Spans []Span `json:"spans"`
	}{spans})
}

func (r *Registry) serveAbort(w http.ResponseWriter, req *http.Request) {
	if r == nil || !r.Attached() {
		http.Error(w, "obs: registry not attached", http.StatusServiceUnavailable)
		return
	}
	d := r.LastAbort()
	if d == nil {
		http.Error(w, "obs: no abort recorded", http.StatusNotFound)
		return
	}
	writeJSON(w, d)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
