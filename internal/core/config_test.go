package core

import (
	"reflect"
	"strings"
	"testing"
)

// TestConfigSurface ratchets the configuration surface: every exported field
// is a value tests and benchmarks must cover, so a new one has to displace an
// old one, on/off switches beyond the two real deployment choices belong in
// Ablate, and nothing is phrased as a Disable* negative.
func TestConfigSurface(t *testing.T) {
	typ := reflect.TypeOf(Config{})
	if n := typ.NumField(); n > 21 {
		t.Errorf("Config has %d exported fields, ratchet is 21", n)
	}
	bools := map[string]bool{"EnableWorkStealing": true, "SpillWrites": true}
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if !f.IsExported() {
			t.Errorf("Config.%s is unexported: derived state belongs on Cluster/Machine", f.Name)
		}
		if strings.HasPrefix(f.Name, "Disable") {
			t.Errorf("Config.%s: ablations are Ablation members, not Disable* fields", f.Name)
		}
		if f.Type.Kind() == reflect.Bool && !bools[f.Name] {
			t.Errorf("Config.%s is a new bool switch", f.Name)
		}
	}
}

// TestInMemoryFabricLeavesAblateAlone: the in-process fabric runs without the
// wire codec, but that is derived per cluster — the caller's ablation set
// comes back from Config() as it went in.
func TestInMemoryFabricLeavesAblateAlone(t *testing.T) {
	c := bootCluster(t, testGraph(t), DefaultConfig(2))
	if got := c.Config().Ablate; got != 0 {
		t.Errorf("Config().Ablate = %#x after boot, want 0", got)
	}
	if c.machines[0].compress {
		t.Error("in-memory fabric booted with the wire codec on")
	}
}
