package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestSelfTimeNestedAndOverlapping(t *testing.T) {
	spans := []span{
		{Name: "root", Start: ms(0), End: ms(100), Parent: -1},
		{Name: "a", Start: ms(10), End: ms(40), Parent: 0},       // nested child
		{Name: "a.inner", Start: ms(15), End: ms(25), Parent: 1}, // grandchild: not root's child
		{Name: "b", Start: ms(30), End: ms(60), Parent: 0},       // overlaps a by 10 ms
		{Name: "c", Start: ms(90), End: ms(120), Parent: 0},      // runs past the parent: clipped
		{Name: "d", Start: ms(50), End: ms(55), Parent: 0},       // inside b: adds nothing
		{Name: "lone", Start: ms(200), End: ms(230), Parent: -1}, // no children
	}
	self := selfTimes(spans)
	// root: children cover [10,60] and [90,100] = 60 ms of 100.
	want := []time.Duration{ms(40), ms(20), ms(10), ms(30), ms(30), ms(5), ms(30)}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self time of %q = %v, want %v", spans[i].Name, self[i], want[i])
		}
	}
}

func TestTracerRecordsAndWritesChrome(t *testing.T) {
	tr := newTracer("wl")
	root := tr.begin("root", -1, 0, 0)
	child := tr.begin("child", root, 2, 7)
	time.Sleep(time.Millisecond)
	if d := tr.end(child); d <= 0 {
		t.Fatalf("child duration %v, want > 0", d)
	}
	tr.end(root)
	if got := tr.millis("child"); len(got) != 1 || got[0] < 1 {
		t.Fatalf("millis(child) = %v, want one sample >= 1 ms", got)
	}

	path := filepath.Join(t.TempDir(), "trace.json")
	if err := tr.writeChrome(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Dur  float64        `json:"dur"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("%d trace events, want 2", len(doc.TraceEvents))
	}
	ev := doc.TraceEvents[1]
	if ev.Name != "child" || ev.Ph != "X" || ev.Dur < 1000 || ev.Tid != doc.TraceEvents[0].Tid {
		t.Errorf("child event = %+v: want a complete event of >= 1000 us on its root's track", ev)
	}
	if ev.Args["workload"] != "wl" || ev.Args["op"] != 2.0 || ev.Args["rep"] != 7.0 || ev.Args["parent"] != 0.0 {
		t.Errorf("child args = %v: want workload, op, rep and parent", ev.Args)
	}
}
