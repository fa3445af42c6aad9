package core

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/reduce"
)

// TestTrafficMatrixAccuracy: a job report's traffic matrix and the job's
// JobStats.Traffic read one ledger — the endpoints' comm.Metrics — so for every
// job, on either fabric, the matrix sums to the job's BytesSent and FramesSent
// exactly, as do the report's bytes_sent and frames_sent. The diagonal stays
// zero, and a push whose writes span the whole cluster fills the off-diagonal.
func TestTrafficMatrixAccuracy(t *testing.T) {
	eachFabric(t, func(t *testing.T, useTCP bool) {
		g := testGraph(t)
		cfg := faultCfg(3)
		reg := obs.NewRegistry()
		cfg.Obs = reg
		cfg.Fabric = innerFabric(t, cfg, useTCP)
		defer cfg.Fabric.Close()
		c := bootCluster(t, g, cfg)
		counter, _ := c.AddPropI64("deg")
		src, _ := c.AddPropF64("src")
		dst, _ := c.AddPropF64("dst")
		c.FillI64(counter, 0)
		c.FillF64(src, 1)
		push := JobSpec{
			Name:       "push-degree",
			Iter:       IterOutEdges,
			Task:       &pushOneTask{counter: counter},
			WriteProps: []WriteSpec{{Prop: counter, Op: reduce.Sum}},
		}
		pull := JobSpec{
			Name:      "pull-sum",
			Iter:      IterInEdges,
			Task:      &pullSumTask{src: src, dst: dst},
			ReadProps: []PropID{src},
		}
		for i, spec := range []JobSpec{push, pull, pull, push} {
			st, err := c.RunJob(spec)
			if err != nil {
				t.Fatal(err)
			}
			rep := reg.LastReport()
			var bytes, frames int64
			for s, row := range rep.TrafficBytes {
				for d, b := range row {
					f := rep.TrafficFrames[s][d]
					bytes += b
					frames += f
					if s == d && (b != 0 || f != 0) {
						t.Errorf("job %d %s: diagonal [%d][%d] = %d bytes / %d frames, want 0", i, spec.Name, s, d, b, f)
					}
					if i == 0 && s != d && b == 0 {
						t.Errorf("job %d %s: no traffic from %d to %d on a cluster-spanning push", i, spec.Name, s, d)
					}
				}
			}
			if bytes != st.Traffic.BytesSent || frames != st.Traffic.FramesSent {
				t.Errorf("job %d %s: matrix sums to %d bytes / %d frames, JobStats.Traffic has %d / %d",
					i, spec.Name, bytes, frames, st.Traffic.BytesSent, st.Traffic.FramesSent)
			}
			if rep.Counters["bytes_sent"] != bytes || rep.Counters["frames_sent"] != frames {
				t.Errorf("job %d %s: bytes_sent %d / frames_sent %d, matrix %d / %d",
					i, spec.Name, rep.Counters["bytes_sent"], rep.Counters["frames_sent"], bytes, frames)
			}
		}
		settleQuiescent(t, c)
	})
}
