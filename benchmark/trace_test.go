package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		// Two receivers overlap on [30,40]; together they cover [10,60].
		{ID: 2, Parent: 1, Name: "get", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "get", Start: 30, End: 60},
		// Disjoint from the others, and running past its parent's end.
		{ID: 4, Parent: 1, Name: "delete", Start: 90, End: 120},
		// A grandchild is subtracted from its parent only.
		{ID: 5, Parent: 2, Name: "pull", Start: 15, End: 25},
	}
	got := selfTimes(spans)
	for name, want := range map[string]time.Duration{
		"op":     100 - 50 - 10, // minus [10,60] and the clipped [90,100]
		"get":    (30 - 10) + 30,
		"delete": 30,
		"pull":   10,
	} {
		if got[name] != want {
			t.Errorf("self time of %q = %d, want %d", name, got[name], want)
		}
	}
}

func TestCoveredIgnoresOrderAndNesting(t *testing.T) {
	parent := span{Start: 0, End: 50}
	kids := []span{{Start: 40, End: 45}, {Start: 5, End: 30}, {Start: 10, End: 20}, {Start: 60, End: 70}}
	if got := covered(parent, kids); got != 30 {
		t.Errorf("covered = %d, want 25 + 5", got)
	}
	if got := covered(parent, nil); got != 0 {
		t.Errorf("covered with no children = %d", got)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin(0, tr.newOp(), "x")
	tr.end(id)
	if id != 0 {
		t.Errorf("nil tracer handed out span %d", id)
	}
}

func TestTracerDropsBeyondCapacityAndWritesJSONL(t *testing.T) {
	tr := newTracer(3)
	op := tr.newOp()
	root := tr.begin(0, op, "op")
	child := tr.begin(root, op, "core.put")
	tr.end(child)
	tr.end(root)
	tr.end(tr.begin(0, op, "third"))
	if id := tr.begin(0, op, "fourth"); id != 0 {
		t.Errorf("span beyond the capacity got id %d", id)
	}
	if tr.dropped.Load() != 1 || len(tr.recorded()) != 3 {
		t.Errorf("dropped %d, recorded %d, want 1 and 3", tr.dropped.Load(), len(tr.recorded()))
	}

	path := filepath.Join(t.TempDir(), "sub", "trace.jsonl")
	if err := tr.writeJSONL(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var got []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		got = append(got, s)
	}
	if len(got) != 3 || got[1].Parent != got[0].ID || got[1].Name != "core.put" || got[1].Op != op {
		t.Fatalf("trace file holds %+v", got)
	}
	if got[1].Start < got[0].Start || got[1].End > got[0].End || got[1].End < got[1].Start {
		t.Errorf("child %+v does not nest in its parent %+v", got[1], got[0])
	}
}
