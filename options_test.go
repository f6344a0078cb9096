package hoplite

import (
	"net"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"hoplite/internal/core"
	"hoplite/internal/netem"
	"hoplite/internal/types"
)

// Every core.Config field the cluster does not own is a per-node knob set
// through Options.Node. Setting each to a distinct non-zero value by
// reflection and checking it arrives means a knob added to core.Config can
// never be silently dropped on its way to the node.
func TestNodeConfigCarriesEveryNodeField(t *testing.T) {
	opts := Options{MemoryLimit: 7 << 20, SpillDir: "/spill"}
	nv := reflect.ValueOf(&opts.Node).Elem()
	var knobs []string
	for i := 0; i < nv.NumField(); i++ {
		name := nv.Type().Field(i).Name
		if slices.Contains(clusterOwned, name) {
			continue
		}
		knobs = append(knobs, name)
		switch f := nv.Field(i); f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(i + 1))
		case reflect.Float64:
			f.SetFloat(float64(i + 1))
		default:
			t.Fatalf("Config.%s: kind %v not handled by this test", name, f.Kind())
		}
	}
	if len(knobs) < 8 {
		t.Fatalf("only %d node knobs found (%v)", len(knobs), knobs)
	}

	cfg := reflect.ValueOf(opts.coreConfig(&netem.TCP{}, "node-7", nil, nil, "rack-a"))
	for _, name := range knobs {
		want := nv.FieldByName(name).Interface()
		if got := cfg.FieldByName(name).Interface(); !reflect.DeepEqual(got, want) {
			t.Errorf("coreConfig changed Node.%s: core.Config has %v, want %v", name, got, want)
		}
	}
	got := cfg.Interface().(core.Config)
	if got.Name != "node-7" || got.Locality != "rack-a" || got.MemoryLimit != opts.MemoryLimit {
		t.Errorf("cluster-owned fields: Name %q Locality %q MemoryLimit %d", got.Name, got.Locality, got.MemoryLimit)
	}
	if want := filepath.Join(opts.SpillDir, "node-7"); got.SpillDir != want {
		t.Errorf("SpillDir = %q, want one subdirectory per node %q", got.SpillDir, want)
	}
}

// A Node config that sets a field the cluster assigns per node is a
// mistake the cluster would silently overwrite; StartLocalCluster refuses it
// and names the field.
func TestStartLocalClusterRejectsClusterOwnedNodeFields(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	set := map[string]func(*Config){
		"Fabric":          func(c *Config) { c.Fabric = &netem.TCP{} },
		"Name":            func(c *Config) { c.Name = "mine" },
		"Listener":        func(c *Config) { c.Listener = ln },
		"InitialMap":      func(c *Config) { c.InitialMap = &types.ClusterMap{} },
		"JoinAddrs":       func(c *Config) { c.JoinAddrs = []string{"127.0.0.1:1"} },
		"JoinStorageOnly": func(c *Config) { c.JoinStorageOnly = true },
		"Locality":        func(c *Config) { c.Locality = "rack-a" },
		"MemoryLimit":     func(c *Config) { c.MemoryLimit = 1 << 20 },
		"SpillDir":        func(c *Config) { c.SpillDir = t.TempDir() },
	}
	var names []string
	for name := range set {
		names = append(names, name)
	}
	slices.Sort(names)
	owned := slices.Clone(clusterOwned)
	slices.Sort(owned)
	if !slices.Equal(names, owned) {
		t.Fatalf("cluster-owned fields %v, this test covers %v", owned, names)
	}
	for _, name := range names {
		var opts Options
		set[name](&opts.Node)
		c, err := StartLocalCluster(1, opts)
		if err == nil {
			c.Close()
			t.Errorf("Node.%s set: StartLocalCluster succeeded", name)
			continue
		}
		if !strings.Contains(err.Error(), "Node."+name+" ") {
			t.Errorf("Node.%s set: error %q does not name the field", name, err)
		}
	}
}

// Under emulation every node's cold-start link priors default to the
// emulated link, and an explicit Node value wins.
func TestEmulateDefaultsNodeLinkPriors(t *testing.T) {
	link := &netem.LinkConfig{Latency: 3 * time.Millisecond, BytesPerSec: 40 << 20}
	opts := Options{Emulate: link}
	cfg := opts.coreConfig(&netem.TCP{}, "node-0", nil, nil, "")
	if cfg.Latency != link.Latency || cfg.Bandwidth != link.BytesPerSec {
		t.Fatalf("defaulted priors %v / %v, want the emulated link's %v / %v", cfg.Latency, cfg.Bandwidth, link.Latency, link.BytesPerSec)
	}
	opts.Node = Config{Latency: time.Millisecond, Bandwidth: 1e9}
	cfg = opts.coreConfig(&netem.TCP{}, "node-0", nil, nil, "")
	if cfg.Latency != time.Millisecond || cfg.Bandwidth != 1e9 {
		t.Fatalf("explicit priors %v / %v, want 1ms / 1e9", cfg.Latency, cfg.Bandwidth)
	}

	// End to end: the booted node's link tracker starts from those priors.
	c := startCluster(t, 1, Options{Emulate: link})
	if rtt, bw := c.Node(0).Links().Prior(); rtt != link.Latency || bw != link.BytesPerSec {
		t.Fatalf("node prior %v / %v, want %v / %v", rtt, bw, link.Latency, link.BytesPerSec)
	}
}
