package core

import (
	"encoding/binary"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/obs"
)

// readKeys renders read-record keys as a read request's payload.
func readKeys(keys ...uint64) []byte {
	var out []byte
	for _, k := range keys {
		out = binary.LittleEndian.AppendUint64(out, k)
	}
	return out
}

// TestStaleReadFrameDropped: a request frame whose section is not the serving
// machine's current job — a read torn the way a truncate fault leaves it, a
// torn write, an RMI call — is dropped before its type's records are looked
// at, counted, and fails nothing: no record is stashed, no method runs, nothing
// is answered. With the right section the same read bytes are refused by the
// length check, and so is a well-formed record under a count whose header byte
// 7 (once the compressed-payload flag) is set: an error, no response, every
// buffer back in its pool.
func TestStaleReadFrameDropped(t *testing.T) {
	cfg := DefaultConfig(2)
	reg := obs.NewRegistry()
	cfg.Obs = reg
	c := bootCluster(t, testGraph(t), cfg)
	p, err := c.AddPropF64("p")
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	method := c.RegisterRMI(func(*Machine) comm.RMIHandler {
		return func(int, []byte) []byte { calls.Add(1); return nil }
	})
	m, answers := c.machines[0], c.machines[1].workers[0].respCh
	frame := func(typ comm.MsgType, section uint64, count uint32, payload []byte) *comm.Buffer {
		buf := m.reqPool.Acquire()
		buf.Reset(comm.Header{Type: typ, Src: 1, Count: count, Aux: sectionAux(section) | 7})
		buf.AppendBytes(payload)
		return buf
	}
	torn := []byte{0x80, 0x80, 0x80}
	current := servedJob(1<<32|5, &JobSpec{Name: "current", ReadProps: []PropID{p}})
	for _, req := range []struct {
		typ     comm.MsgType
		count   uint32
		counter string
	}{
		{comm.MsgReadReq, 40, "stale_read_frames"},
		{comm.MsgWriteReq, 40, "stale_write_frames"},
		{comm.MsgRMIReq, method, "stale_read_frames"},
	} {
		for _, tc := range []struct {
			name        string
			jr          *jobRuntime
			id, section uint64
		}{{"between jobs", nil, 0, 5}, {"earlier job", current, 1<<32 | 5, 4}} {
			before := reg.LifetimeCounters()[req.counter]
			if err := m.serveRequest(frame(req.typ, tc.section, req.count, torn), tc.jr, tc.id); err != nil {
				t.Errorf("%v %s: stale frame was served: %v", req.typ, tc.name, err)
			}
			if got := reg.LifetimeCounters()[req.counter] - before; got != 1 {
				t.Errorf("%v %s: %s advanced by %d, want 1", req.typ, tc.name, req.counter, got)
			}
		}
	}
	if calls.Load() != 0 || len(answers) != 0 || m.spill.count != 0 {
		t.Errorf("a stale frame was served: %d RMI calls, %d answers, %d write records stashed", calls.Load(), len(answers), m.spill.count)
	}
	// The section is the job id's low half, so job 1<<32|5 matches section 5.
	for _, tc := range []struct {
		name    string
		count   uint32
		payload []byte
	}{{"torn", 40, torn}, {"byte-7-set", byte7 | 1, readKeys(uint64(p) << 48)}} {
		err := m.serveRequest(frame(comm.MsgReadReq, 5, tc.count, tc.payload), current, current.id.Load())
		if err == nil || !strings.Contains(err.Error(), "truncated") {
			t.Errorf("%s: serveRequest = %v for the current job, want the length check's refusal", tc.name, err)
		}
		if len(answers) != 0 {
			t.Errorf("%s: a refused frame was answered", tc.name)
		}
	}
	if !c.PoolsQuiescent() {
		t.Error("a refused or dropped frame did not return to its pool")
	}
}

// FuzzServeReads feeds arbitrary bytes to the copier's read-request path,
// under the current job's section or a stale one. A frame is answered — one word
// per record, in a response no larger than a frame, and only when every record
// reads the one property the job declares — or it is an error, or it is
// dropped as stale and counted: never a panic, which would take every machine
// of the process down with the copier, and never an answer to a frame that
// also failed.
func FuzzServeReads(f *testing.F) {
	cfg := DefaultConfig(2)
	reg := obs.NewRegistry()
	cfg.Obs = reg
	c := bootCluster(f, testGraph(f), cfg)
	p, _ := c.AddPropF64("p")
	q, _ := c.AddPropI64("q")
	r, _ := c.AddPropI64("r") // registered, with a column, but the job does not read it
	c.DropProps(q)            // a registered id with no column behind it
	m, answers := c.machines[0], c.machines[1].workers[0].respCh
	n, slots := uint64(len(m.cols[p].vals)), uint64(len(m.store.remote.addr))
	key := func(prop PropID, off uint64) uint64 { return uint64(prop)<<48 | off }
	f.Add(readKeys(key(p, 3), key(p, 0), key(p, n-1)), uint32(3), false)
	f.Add(readKeys(key(p, 1)), uint32(2), false)            // short payload
	f.Add(readKeys(key(p, 1)), uint32(byte7|1), false)      // header byte 7 set: short by 2^24 records
	f.Add([]byte{0x80, 0x80, 0x80}, uint32(40), false)      // torn
	f.Add(readKeys(key(p, 1), key(p, 2)), uint32(1), false) // trailing bytes
	f.Add(readKeys(key(99, 1)), uint32(1), false)           // unknown property
	f.Add(readKeys(key(q, 1)), uint32(1), false)            // dropped property
	f.Add(readKeys(key(p, n)), uint32(1), false)            // offset past the column
	f.Add(readKeys(key(p, n+slots-1)), uint32(1), false)    // a replica slot: it names nothing at the owner
	f.Add(readKeys(key(p, 1)), uint32(1), true)             // stale section
	f.Add(readKeys(key(p, 1), key(r, 1)), uint32(2), false) // registered, not declared
	current := servedJob(1<<32|5, &JobSpec{Name: "fuzz", ReadProps: []PropID{p}})
	f.Fuzz(func(t *testing.T, payload []byte, count uint32, stale bool) {
		buf := m.reqPool.Acquire()
		if len(payload) > buf.Room() {
			payload = payload[:buf.Room()] // a frame is no larger than its buffer
		}
		h := comm.Header{Type: comm.MsgReadReq, Src: 1, Count: count, Aux: 5<<32 | 7}
		if stale {
			h.Aux = 4<<32 | 7
		}
		buf.Reset(h)
		buf.AppendBytes(payload)
		dropped := reg.LifetimeCounters()["stale_read_frames"]
		err := m.serveRequest(buf, current, current.id.Load())
		dropped = reg.LifetimeCounters()["stale_read_frames"] - dropped
		switch {
		case stale:
			if err != nil || dropped != 1 {
				t.Fatalf("stale frame: err=%v, %d frames counted as dropped", err, dropped)
			}
		case err == nil:
			var resp *comm.Buffer
			select {
			case resp = <-answers:
			case <-time.After(10 * time.Second):
				t.Fatalf("request %+v was neither refused nor answered", h)
			}
			rh := resp.Header()
			if rh.Type != comm.MsgReadResp || rh.Count != h.Count || rh.Aux != h.Aux || len(resp.Payload()) != 8*int(h.Count) || len(resp.Data) > cfg.BufferSize {
				t.Fatalf("answer %+v with %d payload bytes to request %+v", rh, len(resp.Payload()), h)
			}
			resp.Release()
			for i := 0; i < int(count); i++ {
				rec := binary.LittleEndian.Uint64(payload[readRecSize*i:])
				if prop := PropID(rec >> 48); prop != p {
					t.Fatalf("record %d of an answered request reads property %d, which the job does not declare", i, prop)
				}
				if off := uint64(uint32(rec)); off >= n {
					t.Fatalf("record %d of an answered request reads offset %d, past the owner's %d words", i, off, n)
				}
			}
		case int64(len(payload)) < readRecSize*int64(count) && !strings.Contains(err.Error(), "truncated"):
			t.Fatalf("%d records in %d bytes: %v, want the length check's refusal", count, len(payload), err)
		}
		if m.respPool.Outstanding() != 0 || m.reqPool.Outstanding() != 0 || len(answers) != 0 {
			t.Fatalf("err=%v: %d response and %d request buffers out, %d answers queued", err, m.respPool.Outstanding(), m.reqPool.Outstanding(), len(answers))
		}
	})
}

// servedJob is the runtime of job id as a copier finds it in curJob, enough
// for serveRequest: the spec whose reads it serves and an open abort latch.
func servedJob(id uint64, spec *JobSpec) *jobRuntime {
	jr := &jobRuntime{jobPlan: jobPlan{spec: spec}, abortCh: make(chan struct{})}
	jr.id.Store(id)
	return jr
}

// TestWorkerDropsOlderSectionResponse: a response of an older section — the
// answer to a request of an aborted job, whose side structure went at cleanup
// — is released unread by the worker and fails nothing; a response of the
// job's own section whose seq no side structure holds still fails the job.
func TestWorkerDropsOlderSectionResponse(t *testing.T) {
	c := bootCluster(t, testGraph(t), DefaultConfig(2))
	m := c.machines[0]
	w := m.workers[0]
	jr := servedJob(1<<32|9, &JobSpec{Name: "current"})
	w.job = jr
	defer func() { w.job = nil }()
	resp := func(section uint64) *comm.Buffer {
		buf := m.respPool.Acquire()
		buf.Reset(comm.Header{Type: comm.MsgReadResp, Src: 1, Count: 1, Aux: sectionAux(section) | 3})
		buf.AppendU64(0)
		return buf
	}
	w.processResponse(resp(8))
	if err := jr.Err(); err != nil {
		t.Fatalf("an older section's response failed the job: %v", err)
	}
	func() {
		defer func() {
			if r := recover(); r != (abortUnwind{}) {
				panic(r)
			}
		}()
		w.processResponse(resp(jr.id.Load()))
		t.Error("an unknown seq of the job's section did not unwind the worker")
	}()
	if err := jr.Err(); err == nil || !strings.Contains(err.Error(), "unknown seq 3") {
		t.Errorf("job error %v, want the unknown seq's", err)
	}
	if !c.PoolsQuiescent() {
		t.Error("a dropped response did not return to its pool")
	}
}
