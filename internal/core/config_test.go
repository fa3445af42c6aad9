package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"strings"
	"testing"
)

// TestConfigSurface ratchets the configuration surface: every exported field
// is a value tests and benchmarks must cover, so a new one has to displace an
// old one, on/off switches beyond the one real deployment choice belong in
// Ablate, and nothing is phrased as a Disable* negative.
func TestConfigSurface(t *testing.T) {
	typ := reflect.TypeOf(Config{})
	if n := typ.NumField(); n > 19 {
		t.Errorf("Config has %d exported fields, ratchet is 19", n)
	}
	bools := map[string]bool{"SpillWrites": true}
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

// TestAblationSurface ratchets the ablation set: six members in a byte, read
// off config.go's declarations. A mechanism worth switching off for an
// evaluation is one a benchmark row moves with; a new member has to displace
// an old one.
func TestAblationSurface(t *testing.T) {
	if k := reflect.TypeOf(Ablation(0)).Kind(); k != reflect.Uint8 {
		t.Errorf("Ablation is a %v, ratchet is uint8", k)
	}
	file, err := parser.ParseFile(token.NewFileSet(), "config.go", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var members []string
	ast.Inspect(file, func(n ast.Node) bool {
		if vs, ok := n.(*ast.ValueSpec); ok {
			for _, name := range vs.Names {
				if strings.HasPrefix(name.Name, "Ablate") {
					members = append(members, name.Name)
				}
			}
		}
		return true
	})
	if len(members) > 5 {
		t.Errorf("Ablation has %d members %v, ratchet is 5", len(members), members)
	}
}
