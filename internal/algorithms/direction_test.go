package algorithms

import (
	"testing"

	"repro/internal/core"
)

// TestDirectionRule drives the memoryless push/pull rule directly: push→pull
// only while the frontier grows and its edges exceed pullEdges/α, at both
// α the traversals use; pull→push only once the frontier shrinks below N/24;
// never a second pull phase; and each pin fixes the direction.
func TestDirectionRule(t *testing.T) {
	type step struct {
		size, edges, pullEdges int64
		want                   direction
	}
	const n = 2400 // N/24 = 100
	for _, tc := range []struct {
		name  string
		alpha float64
		pin   core.Ablation
		steps []step
	}{
		{"early-exit/pull-once-edges-exceed", alphaEarlyExit, 0, []step{
			{10, 100, 1000, dirPush},
			{20, 500, 1000, dirPush}, // edges = pullEdges/α is not enough
			{30, 501, 1000, dirPull},
		}},
		{"early-exit/no-pull-without-growth", alphaEarlyExit, 0, []step{
			{10, 100, 1000, dirPush},
			{10, 900, 1000, dirPush}, // same size: not growing
			{9, 900, 1000, dirPush},  // shrinking
			{12, 900, 1000, dirPull},
		}},
		{"full-scan/pull-once-edges-exceed", alphaFullScan, 0, []step{
			{n, 2000, 2000, dirPush}, // a whole-graph frontier at the tie stays push
			{n + 1, 1999, 2000, dirPush},
			{n + 2, 2001, 2000, dirPull},
		}},
		{"full-scan/first-step-pulls", alphaFullScan, 0, []step{
			{n, 2001, 2000, dirPull}, // the first step grows from an empty frontier
		}},
		{"push-again-when-shrinking-and-small", alphaEarlyExit, 0, []step{
			{10, 100, 1000, dirPush},
			{60, 900, 1000, dirPull},
			{80, 900, 1000, dirPull},  // small but growing
			{300, 900, 1000, dirPull}, // growing
			{150, 900, 1000, dirPull}, // shrinking, but not below N/24
			{100, 900, 1000, dirPull}, // N/24 itself is not below it
			{99, 900, 1000, dirPush},
		}},
		{"one-pull-phase", alphaEarlyExit, 0, []step{
			{10, 100, 1000, dirPush},
			{200, 900, 1000, dirPull},
			{50, 100, 1000, dirPush},
			{400, 5000, 1000, dirPush}, // growing, edges far over: still push
			{800, 9000, 10, dirPush},
		}},
		{"pin-push", alphaEarlyExit, core.AblatePinPush, []step{
			{10, 100, 1000, dirPush},
			{200, 9000, 1, dirPush},
			{1, 0, 1000, dirPush},
		}},
		{"pin-pull", alphaFullScan, core.AblatePinPull, []step{
			{10, 0, 1000, dirPull},
			{200, 9000, 1, dirPull},
			{1, 0, 1000, dirPull},
		}},
		{"pin-both-pulls", alphaEarlyExit, core.AblatePinPush | core.AblatePinPull, []step{
			{10, 0, 1000, dirPull},
			{1, 0, 1000, dirPull},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := &directionPolicy{alpha: tc.alpha, nodes: n, pin: tc.pin}
			for i, s := range tc.steps {
				if got := p.choose(s.size, s.edges, s.pullEdges); got != s.want {
					t.Errorf("step %d (size %d, edges %d, pullEdges %d): %v, want %v", i, s.size, s.edges, s.pullEdges, got, s.want)
				}
			}
		})
	}
}
