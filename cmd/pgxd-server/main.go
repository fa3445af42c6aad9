// Command pgxd-server hosts the engine as a long-running, multi-tenant
// analysis service (the paper's §6.2 outlook): clients load named graph
// instances and run analyses interactively over a JSON-lines TCP protocol.
// Admission goes through a job scheduler: a global concurrency cap,
// per-tenant quotas, priorities with aging, and per-request deadlines that
// abort the engine job (not the server) through the core cancellation
// latch. Each graph is served by a small pool of engine clusters, so
// read-only analyses on the same graph run concurrently.
//
// Usage:
//
//	pgxd-server -addr 127.0.0.1:7427 -max-edges 67108864 -max-analyses 4 \
//	            -pool 2 -tenant-quota 2 -aging 250ms
//
// Protocol (one JSON object per line, one response per request):
//
//	{"op":"generate","graph":"twt","kind":"rmat","scale":14,"machines":4}
//	{"op":"load","graph":"web","path":"web.bin"}
//	{"op":"run","graph":"twt","algo":"pagerank","iterations":10,"top_k":5,
//	 "tenant":"acme","priority":2,"timeout_millis":5000,"tag":"nightly"}
//	{"op":"cancel","tag":"nightly"}
//	{"op":"list"}  {"op":"stats"}  {"op":"drop","graph":"twt"}
//
// "algo" is any name in internal/algorithms' catalog (catalog.go), the same
// table pgxd-run's -algo reads.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/server"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:7427", "listen address")
		maxEdges    = flag.Int64("max-edges", 64<<20, "resident edge budget across loaded graphs")
		maxAnalyses = flag.Int("max-analyses", 4, "concurrently running analyses across all graphs and tenants")
		pool        = flag.Int("pool", 2, "engine clusters per graph instance (concurrent analyses on one graph)")
		tenantQuota = flag.Int("tenant-quota", 0, "concurrently running analyses per tenant (0 = unlimited)")
		memBudget   = flag.Int64("mem-budget-mb", 0, "summed declared/estimated resident MiB of concurrently running analyses (0 = no gate)")
		aging       = flag.Duration("aging", 250*time.Millisecond, "queued requests gain one priority level per this interval")
		machines    = flag.Int("machines", 4, "default simulated machines per graph")
		debugAddr   = flag.String("debug-addr", "", "HTTP listen address for /debug/metrics, /debug/trace, /debug/abort, /debug/pprof (empty disables)")
		noObs       = flag.Bool("no-obs", false, "disable per-graph observability registries")
	)
	flag.Parse()
	s, err := server.New(server.Config{
		Addr:                  *addr,
		MaxResidentEdges:      *maxEdges,
		MaxConcurrentAnalyses: *maxAnalyses,
		AnalysisPoolSize:      *pool,
		TenantQuota:           *tenantQuota,
		RunMemoryBudgetMB:     *memBudget,
		PriorityAging:         *aging,
		DefaultMachines:       *machines,
		DebugAddr:             *debugAddr,
		DisableObservability:  *noObs,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "pgxd-server: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "pgxd-server listening on %s\n", s.Addr())
	if d := s.DebugAddr(); d != "" {
		fmt.Fprintf(os.Stderr, "pgxd-server debug HTTP on http://%s/debug/metrics\n", d)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Fprintln(os.Stderr, "pgxd-server: shutting down")
	s.Close()
}
