package bench

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/graph"
)

// --- Figure 8a: remote random-read bandwidth -----------------------------------

// randReadKernel issues readsPerNode pseudo-random remote reads per node —
// the paper's microbenchmark "where a few threads continuously generated
// remote read requests ... 8 byte addresses to get 8 bytes worth of data
// from a random remote address".
type randReadKernel struct {
	prop         core.PropID
	readsPerNode int
	machines     int
	remoteSize   uint32
}

func (k *randReadKernel) RunNodes(c *core.Ctx, nodes *core.Cursor) {
	me := c.Machine()
	for nodes.Next() {
		state := uint64(c.Node)*2862933555777941757 + 3037000493
		for i := 0; i < k.readsPerNode; i++ {
			state = state*2862933555777941757 + 3037000493
			dst := int(state % uint64(k.machines))
			if dst == me {
				dst = (dst + 1) % k.machines
			}
			off := uint32(state>>32) % k.remoteSize
			c.ReadRef(core.RemoteRef(dst, off), k.prop)
		}
	}
}

func (k *randReadKernel) ReadDone(c *core.Ctx, val uint64) {}

// ExpFig8a measures attainable remote random-read bandwidth between two
// machines versus copier count, alongside the local DRAM random-read
// bandwidth versus thread count and the raw transport ("Network") bandwidth.
func ExpFig8a(copierCounts []int, prog Progress) (*Table, error) {
	t := &Table{Title: "Figure 8a: remote random-read bandwidth, 2 machines (1:1)"}
	t.Header = []string{"copiers/threads", "remote effective", "remote utilized", "local random read", "network (raw frames)"}

	// A uniform graph splits evenly over two machines; the kernel targets
	// the remote partition's property column.
	const scale = 15
	n := 1 << scale
	g, err := graph.Uniform(n, n, 7)
	if err != nil {
		return nil, err
	}
	const readsPerNode = 16

	netBW := rawTransportBandwidth(64<<10, 32, 200*time.Millisecond)

	for _, cp := range copierCounts {
		prog.log("fig8a: copiers=%d", cp)
		cfg := core.DefaultConfig(2)
		cfg.Copiers = cp
		cfg.Workers = 4
		c, err := core.NewCluster(cfg)
		if err != nil {
			return nil, err
		}
		if err := c.Load(g); err != nil {
			c.Shutdown()
			return nil, err
		}
		prop, err := c.AddPropF64("payload")
		if err != nil {
			c.Shutdown()
			return nil, err
		}
		remoteSize := uint32(c.Layout().NumLocal(0))
		if s := uint32(c.Layout().NumLocal(1)); s < remoteSize {
			remoteSize = s
		}
		stats, err := c.RunJob(core.JobSpec{
			Name:      "rand-read",
			Iter:      core.IterNodes,
			Task:      &randReadKernel{prop: prop, readsPerNode: readsPerNode, machines: 2, remoteSize: remoteSize},
			ReadProps: []core.PropID{prop}, // a node iterator is never mirrored: every read goes on demand
		})
		c.Shutdown()
		if err != nil {
			return nil, err
		}
		reads := float64(n) * readsPerNode
		secs := stats.Duration.Seconds()
		effective := reads * 8 / secs
		// Utilized counts address + data bytes, exactly twice effective for
		// 8-byte addresses fetching 8-byte values (paper §5.3.4).
		utilized := 2 * effective
		localBW := localRandomReadBandwidth(cp, n)
		t.AddRow(fmt.Sprint(cp), fmtBandwidth(effective), fmtBandwidth(utilized),
			fmtBandwidth(localBW), fmtBandwidth(netBW))
	}
	t.Notes = append(t.Notes,
		"utilized = 2x effective by construction (8B address per 8B value)",
		"expected shape: remote bandwidth scales with copiers until it meets the local random-read or transport ceiling")
	return t, nil
}

// localRandomReadBandwidth measures 8-byte random reads from a local array
// with the given thread count — the paper's "Local" line.
func localRandomReadBandwidth(threads, size int) float64 {
	arr := make([]uint64, size)
	for i := range arr {
		arr[i] = uint64(i)
	}
	const readsPerThread = 1 << 20
	var wg sync.WaitGroup
	sinks := make([]uint64, threads) // per-thread, away from the read array
	start := time.Now()
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			state := uint64(t)*0x9e3779b97f4a7c15 + 1
			var sink uint64
			for i := 0; i < readsPerThread; i++ {
				state = state*2862933555777941757 + 3037000493
				sink += arr[state%uint64(len(arr))]
			}
			sinks[t] = sink // defeat dead-code elimination
		}(t)
	}
	wg.Wait()
	secs := time.Since(start).Seconds()
	var total uint64
	for _, v := range sinks {
		total += v
	}
	_ = total
	return float64(threads) * readsPerThread * 8 / secs
}

// rawTransportBandwidth blasts full dummy frames 0→1 for the given duration
// and returns the attained bytes/second — the paper's "Network" line.
func rawTransportBandwidth(bufSize int, inflight int, dur time.Duration) float64 {
	fabric := comm.NewInProcFabric(2, inflight*2+8)
	ep0, _ := fabric.Endpoint(0)
	ep1, _ := fabric.Endpoint(1)
	pool := comm.NewPool(inflight, bufSize)
	var recvBytes int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			buf, ok := ep1.Recv()
			if !ok {
				return
			}
			recvBytes += int64(len(buf.Data))
			buf.Release()
		}
	}()
	deadline := time.Now().Add(dur)
	start := time.Now()
	for time.Now().Before(deadline) {
		buf := pool.Acquire()
		buf.Reset(comm.Header{Type: comm.MsgWriteReq, Src: 0})
		buf.Data = buf.Data[:bufSize]
		if err := ep0.Send(1, buf); err != nil {
			break
		}
	}
	// Drain: wait until all buffers return, then close.
	for pool.Outstanding() > 0 {
		time.Sleep(time.Millisecond)
	}
	elapsed := time.Since(start).Seconds()
	ep0.Close()
	ep1.Close()
	<-done
	return float64(recvBytes) / elapsed
}

// --- Figure 8b: message buffer size sweep --------------------------------------

// ExpFig8b measures attained N:N bandwidth versus message buffer size: every
// machine streams dummy frames to every other machine for a fixed duration —
// the experiment behind the paper's choice of 256 KiB buffers.
func ExpFig8b(machineCounts []int, bufSizes []int, dur time.Duration, prog Progress) (*Table, error) {
	t := &Table{Title: "Figure 8b: attained bandwidth vs message buffer size (N:N dummy traffic)"}
	t.Header = []string{"buffer size"}
	for _, p := range machineCounts {
		t.Header = append(t.Header, fmt.Sprintf("p=%d", p))
	}
	for _, bs := range bufSizes {
		row := []string{fmtBytes(int64(bs))}
		for _, p := range machineCounts {
			prog.log("fig8b: buf=%d p=%d", bs, p)
			bw, err := nToNBandwidth(p, bs, dur)
			if err != nil {
				return nil, err
			}
			row = append(row, fmtBandwidth(bw))
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"per-frame overhead amortizes with size: small buffers waste the fabric (paper picked 256 KiB)")
	return t, nil
}

// nToNBandwidth has every machine stream dummy frames round-robin to all
// others for dur and returns aggregate received bytes/second.
func nToNBandwidth(p int, bufSize int, dur time.Duration) (float64, error) {
	const poolPerMachine = 32
	fabric := comm.NewInProcFabric(p, p*poolPerMachine+8)
	eps := make([]comm.Endpoint, p)
	for m := 0; m < p; m++ {
		ep, err := fabric.Endpoint(m)
		if err != nil {
			return 0, err
		}
		eps[m] = ep
	}
	var total int64
	var mu sync.Mutex
	var recvWG sync.WaitGroup
	for m := 0; m < p; m++ {
		recvWG.Add(1)
		go func(m int) {
			defer recvWG.Done()
			var local int64
			for {
				buf, ok := eps[m].Recv()
				if !ok {
					break
				}
				local += int64(len(buf.Data))
				buf.Release()
			}
			mu.Lock()
			total += local
			mu.Unlock()
		}(m)
	}
	var sendWG sync.WaitGroup
	pools := make([]*comm.Pool, p)
	start := time.Now()
	for m := 0; m < p; m++ {
		pools[m] = comm.NewPool(poolPerMachine, bufSize)
		sendWG.Add(1)
		go func(m int) {
			defer sendWG.Done()
			deadline := time.Now().Add(dur)
			dst := (m + 1) % p
			for time.Now().Before(deadline) {
				buf := pools[m].Acquire()
				buf.Reset(comm.Header{Type: comm.MsgWriteReq, Src: uint16(m)})
				buf.Data = buf.Data[:bufSize]
				if err := eps[m].Send(dst, buf); err != nil {
					return
				}
				dst = (dst + 1) % p
				if dst == m {
					dst = (dst + 1) % p
				}
			}
		}(m)
	}
	sendWG.Wait()
	for _, pool := range pools {
		for pool.Outstanding() > 0 {
			time.Sleep(time.Millisecond)
		}
	}
	elapsed := time.Since(start).Seconds()
	for _, ep := range eps {
		ep.Close()
	}
	recvWG.Wait()
	return float64(total) / elapsed, nil
}
