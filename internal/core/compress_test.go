package core

import (
	"errors"
	"testing"

	"repro/internal/comm"
	"repro/internal/graph"
	"repro/internal/reduce"
)

// compressConfig builds the cluster config the wire-compression tests share:
// small buffers so batches flush often, and the ablation flag set per cell. The remote sets are ablated
// so that read and write batches leave in edge order and take the codec's sort
// and slot-remap branch; a prefetch's and an accumulator flush's batches are
// born sorted, and TestMirroredPullMatchesOnDemand and
// TestAccumulatedPushMatchesOnDemand run those through the codec over TCP.
func compressConfig(p int, disable bool) Config {
	cfg := DefaultConfig(p)
	cfg.BufferSize = 8 << 10
	cfg.Ablate = AblateRemoteSets
	if disable {
		cfg.Ablate |= AblateWireCompression
	}
	cfg.ReqBuffers = 2*cfg.Workers*cfg.NumMachines + 4
	cfg.RespBuffers = 2*cfg.Copiers*cfg.NumMachines + 4
	return cfg
}

// pushValTask pushes a node-dependent value into each out-neighbor: int64
// sums exercise the zigzag-varint value column, float64 sums the raw one.
type pushValTask struct {
	NoReads
	i64, f64 PropID
}

func (k *pushValTask) Run(c *Ctx) {
	u := int64(c.NodeGlobal())
	c.NbrWriteI64(k.i64, reduce.Sum, u%97-48)
	c.NbrWriteF64(k.f64, reduce.Sum, float64(u)*0.5)
}

// TestWireCompressionMatchesReference: with compression on (the default),
// read requests and write batches ship sorted delta-varint encoded, and the
// results must be bit-identical to the AblateWireCompression run on
// both fabrics. The compressed run must record raw>wire in the comm metrics
// and actually shrink total wire bytes.
func TestWireCompressionMatchesReference(t *testing.T) {
	g := testGraph(t)
	const p = 3
	fabrics := []struct {
		name string
		make func(t *testing.T, cfg *Config)
	}{
		{"inproc", func(t *testing.T, cfg *Config) {}},
		{"tcp", func(t *testing.T, cfg *Config) {
			f, err := comm.NewTCPFabric(cfg.NumMachines,
				cfg.NumMachines*(cfg.ReqBuffers+cfg.Workers*cfg.NumMachines)+64, cfg.BufferSize)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { f.Close() })
			cfg.Fabric = f
		}},
	}
	for _, fc := range fabrics {
		t.Run(fc.name, func(t *testing.T) {
			type cell struct {
				pull    []float64
				sumI    []int64
				sumF    []float64
				traffic comm.Snapshot
			}
			var cells [2]cell
			for i, disable := range []bool{false, true} {
				cfg := compressConfig(p, disable)
				fc.make(t, &cfg)
				c := bootCluster(t, g, cfg)

				src, _ := c.AddPropF64("src")
				dst, _ := c.AddPropF64("dst")
				sumI, _ := c.AddPropI64("sumI")
				sumF, _ := c.AddPropF64("sumF")
				c.FillByNodeF64(src, func(v graph.NodeID) float64 { return float64(v) })
				c.FillF64(dst, 0)
				c.FillI64(sumI, 0)
				c.FillF64(sumF, 0)

				stats, err := c.RunJob(JobSpec{
					Name:      "compress-pull",
					Iter:      IterInEdges,
					Task:      &pullSumTask{src: src, dst: dst},
					ReadProps: []PropID{src},
				})
				if err != nil {
					t.Fatal(err)
				}
				tr := stats.Traffic
				stats, err = c.RunJob(JobSpec{
					Name: "compress-push",
					Iter: IterOutEdges,
					Task: &pushValTask{i64: sumI, f64: sumF},
					WriteProps: []WriteSpec{
						{Prop: sumI, Op: reduce.Sum},
						{Prop: sumF, Op: reduce.Sum},
					},
				})
				if err != nil {
					t.Fatal(err)
				}
				if !c.PoolsQuiescent() {
					t.Fatal("pools not quiescent")
				}
				cells[i] = cell{
					pull:    c.GatherF64(dst),
					sumI:    c.GatherI64(sumI),
					sumF:    c.GatherF64(sumF),
					traffic: tr.Add(stats.Traffic),
				}
			}
			on, off := cells[0], cells[1]
			for u := range on.pull {
				if on.pull[u] != off.pull[u] {
					t.Fatalf("pull node %d: compressed %v != raw %v", u, on.pull[u], off.pull[u])
				}
				if on.sumI[u] != off.sumI[u] {
					t.Fatalf("i64 push node %d: compressed %v != raw %v", u, on.sumI[u], off.sumI[u])
				}
				if on.sumF[u] != off.sumF[u] {
					t.Fatalf("f64 push node %d: compressed %v != raw %v", u, on.sumF[u], off.sumF[u])
				}
			}
			if off.traffic.CompressRawBytes != 0 {
				t.Errorf("ablation still recorded %d raw bytes", off.traffic.CompressRawBytes)
			}
			if fc.name == "inproc" {
				// Frames pass by reference in-process: the engine must gate
				// compression off even though the config left it enabled.
				if on.traffic.CompressRawBytes != 0 {
					t.Errorf("in-memory fabric still compressed %d raw bytes",
						on.traffic.CompressRawBytes)
				}
				return
			}
			if on.traffic.CompressRawBytes == 0 {
				t.Error("compression on: no eligible batches recorded")
			}
			if on.traffic.CompressWireBytes >= on.traffic.CompressRawBytes {
				t.Errorf("compression never paid: wire=%d raw=%d",
					on.traffic.CompressWireBytes, on.traffic.CompressRawBytes)
			}
			if on.traffic.BytesSent >= off.traffic.BytesSent {
				t.Errorf("total wire bytes not reduced: on=%d off=%d",
					on.traffic.BytesSent, off.traffic.BytesSent)
			}
			t.Logf("%s: ratio %.3f, total bytes %d -> %d", fc.name,
				on.traffic.CompressionRatio(), off.traffic.BytesSent, on.traffic.BytesSent)
		})
	}
}

// TestFaultTruncatedCompressedFrameAborts: a compressed request frame cut
// mid-varint must be rejected by consume-side validation as a job abort —
// never a misdecode or a panic — and the cluster must recover once the fault
// clears. This is the flags field surviving FaultTruncate: the receiver still
// knows the mangled payload claims to be compressed. TCP only — the
// in-memory fabric never ships compressed frames.
func TestFaultTruncatedCompressedFrameAborts(t *testing.T) {
	for _, msg := range []comm.MsgType{comm.MsgReadReq, comm.MsgWriteReq} {
		t.Run(msg.String(), func(t *testing.T) {
			func(useTCP bool) {
				g := faultGraph(t)
				cfg := faultCfg(3)
				// Cut a few bytes into the payload: the count promises many
				// records, the torn varint column cannot deliver them.
				inj := faultFabric(t, cfg, useTCP, comm.FaultPlan{Seed: 11, Rules: []comm.FaultRule{
					{Src: comm.AnyMachine, Dst: comm.AnyMachine, Type: int(msg),
						Kind: comm.FaultTruncate, After: 0, Limit: 1, TruncateTo: comm.HeaderSize + 3},
				}})
				cfg.Fabric = inj
				c := bootCluster(t, g, cfg)
				defer inj.Close()
				src, _ := c.AddPropF64("src")
				dst, _ := c.AddPropF64("dst")

				var err error
				if msg == comm.MsgReadReq {
					err = runPull(t, c, g, src, dst, false)
				} else {
					counter, _ := c.AddPropI64("counter")
					c.FillI64(counter, 0)
					_, err = c.RunJob(JobSpec{
						Name:       "fault-push",
						Iter:       IterOutEdges,
						Task:       &pushOneTask{counter: counter},
						WriteProps: []WriteSpec{{Prop: counter, Op: reduce.Sum}},
					})
				}
				if err == nil {
					t.Fatal("job succeeded despite truncated compressed frame")
				}
				if !errors.Is(err, ErrJobAborted) {
					t.Fatalf("error %v does not wrap ErrJobAborted", err)
				}
				if st := inj.Stats(); st.Truncated == 0 {
					t.Error("no frame was actually truncated")
				}
				settleQuiescent(t, c)

				inj.ClearRules()
				if err := runPull(t, c, g, src, dst, true); err != nil {
					t.Fatalf("clean rerun after fault cleared: %v", err)
				}
			}(true)
		})
	}
}

// minPushTask pushes the node's label to out-neighbors with a Min reduction.
type minPushTask struct {
	NoReads
	label, tmp PropID
}

func (k *minPushTask) Run(c *Ctx) {
	c.NbrWriteI64(k.tmp, reduce.Min, c.GetI64(k.label))
}

// adoptMinTask folds tmp into label.
type adoptMinTask struct {
	NoReads
	label, tmp PropID
}

func (k *adoptMinTask) Run(c *Ctx) {
	if v := c.GetI64(k.tmp); v < c.GetI64(k.label) {
		c.SetI64(k.label, v)
	}
}
