package hoplite

import (
	"path/filepath"
	"reflect"
	"testing"

	"hoplite/internal/core"
	"hoplite/internal/netem"
)

// Every exported Options field with a same-named core.Config field is a
// per-node knob coreConfig must copy. Setting each to a distinct non-zero
// value by reflection and checking it arrives means a knob added to both
// structs but forgotten in coreConfig fails here instead of being silently
// dropped.
func TestCoreConfigCarriesEveryOption(t *testing.T) {
	var opts Options
	ov := reflect.ValueOf(&opts).Elem()
	cfgType := reflect.TypeOf(core.Config{})
	var shared []string
	for i := 0; i < ov.NumField(); i++ {
		name := ov.Type().Field(i).Name
		if _, ok := cfgType.FieldByName(name); !ok {
			continue // cluster-level option (Emulate, ShardNodes, ...)
		}
		shared = append(shared, name)
		switch f := ov.Field(i); f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(i + 1))
		case reflect.Float64:
			f.SetFloat(float64(i + 1))
		case reflect.String:
			f.SetString(name)
		default:
			t.Fatalf("Options.%s: kind %v not handled by this test", name, f.Kind())
		}
	}
	if len(shared) < 10 {
		t.Fatalf("only %d shared fields found (%v): the name match is broken", len(shared), shared)
	}

	cfg := reflect.ValueOf(opts.coreConfig(&netem.TCP{}, "node-7", nil, nil, ""))
	for _, name := range shared {
		want := ov.FieldByName(name).Interface()
		if name == "SpillDir" {
			want = filepath.Join(opts.SpillDir, "node-7") // one subdirectory per node
		}
		if got := cfg.FieldByName(name).Interface(); !reflect.DeepEqual(got, want) {
			t.Errorf("coreConfig dropped Options.%s: core.Config has %v, want %v", name, got, want)
		}
	}
}
