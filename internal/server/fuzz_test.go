package server

import (
	"encoding/json"
	"testing"
)

// FuzzServeRequest feeds arbitrary bytes to the protocol's request handler,
// the server's trust boundary: bytes that decode as a Request must come back
// as a response — a result or an error — never a panic, and the server must
// answer list afterwards. The server holds a small graph g to run against and
// a resident-edge budget of 1<<16, so a generate can admit only small graphs.
// Every run's deadline is 200 ms, so a long one exercises the cancel path.
// load is skipped: file-system input is a different boundary. The cluster
// size is clamped to eight machines: a request for thousands boots them, which
// no budget bounds yet.
func FuzzServeRequest(f *testing.F) {
	for _, seed := range []string{
		`{"op":"generate","graph":"neg","kind":"uniform","edges":-1}`,       // panicked makeslice
		`{"op":"run","graph":"g","algo":"sssp","source":1048576}`,           // panicked in SetNodeI64
		`{"op":"run","graph":"g","algo":"ppr","source":4294967295}`,         // its PPR twin
		`{"op":"generate","graph":"huge","kind":"rmat","scale":30}`,         // out of memory before the budget check
		`{"op":"generate","graph":"h","kind":"uniform","nodes":4294967297}`, // nodes past the id space
		`{"op":"run","graph":"g","algo":"pagerank","iterations":100000000}`, // runs into its deadline
		`{"op":"generate","graph":"s","kind":"grid","nodes":5,"machines":3}`,
		`{"op":"drop","graph":"s"}`,
		`{"op":"cancel","tag":"x"}`,
		`{"op":"stats"}`,
	} {
		f.Add([]byte(seed))
	}
	cfg := DefaultServerConfig()
	cfg.MaxResidentEdges = 1 << 16
	s, err := New(cfg)
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(s.Close)
	loadG(f, s)
	f.Fuzz(func(t *testing.T, data []byte) {
		var req Request
		if json.Unmarshal(data, &req) != nil || req.Op == "load" {
			return
		}
		req.TimeoutMillis = 200
		req.Machines %= 9
		if resp := s.handle(&req); !resp.OK && resp.Error == "" {
			t.Fatalf("request %s: neither a result nor an error", data)
		}
		list := s.handle(&Request{Op: "list"})
		if !list.OK {
			t.Fatalf("list after %s: %s", data, list.Error)
		}
		// Keep g, and nothing a request added: every input starts from the same
		// server.
		kept := false
		for _, gi := range list.Graphs {
			if gi.Name == "g" {
				kept = true
			} else {
				s.handle(&Request{Op: "drop", Graph: gi.Name})
			}
		}
		if !kept {
			loadG(t, s)
		}
	})
}

// loadG generates FuzzServeRequest's graph g: weighted RMAT-6 on two machines.
func loadG(t testing.TB, s *Server) {
	if resp := s.handle(&Request{Op: "generate", Graph: "g", Kind: "rmat", Scale: 6, EdgeFactor: 4, Machines: 2, WeightLo: 1, WeightHi: 2}); !resp.OK {
		t.Fatal(resp.Error)
	}
}
