package tracez

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestExportRoundTrip: write → read preserves the stream summaries,
// the retained trees (structure and labels included), and the picked
// classification.
func TestExportRoundTrip(t *testing.T) {
	r := NewReservoir(3, 4, 4)
	for i := 0; i < 50; i++ {
		vt := mkVisit("control", domainOf(i), i, int64((i*13)%40))
		vt.Root.Children = []*Span{{Name: "connect", Wall: ms, Labels: map[string]string{"fault": "outage"}}}
		r.Offer(vt)
	}
	bt := mkVisit("analyze.control", "shard-0000", 0, 7)
	bt.Kind = KindBatch
	r.Offer(bt)

	dir := t.TempDir()
	path := filepath.Join(dir, ExemplarsFile)
	if err := WriteExemplars(path, r); err != nil {
		t.Fatal(err)
	}
	ex, err := ReadExemplars(path)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Schema != SchemaVersion {
		t.Fatalf("schema = %d", ex.Schema)
	}
	if len(ex.Conditions) != 2 {
		t.Fatalf("conditions = %+v", ex.Conditions)
	}
	want := r.Snapshot()
	for i, ce := range ex.Conditions {
		w := want[i]
		if ce.Condition != w.Condition || ce.Kind != w.Kind || ce.Offered != w.Offered ||
			ce.CostSum != w.CostSum || ce.MaxCost != w.MaxCost {
			t.Fatalf("condition %d summary: %+v vs %+v", i, ce, w)
		}
		if len(ce.Slow) != len(w.Slow) || len(ce.Head) != len(w.Head) {
			t.Fatalf("condition %d exemplar counts: %d/%d vs %d/%d",
				i, len(ce.Slow), len(ce.Head), len(w.Slow), len(w.Head))
		}
		for j := range ce.Slow {
			if ce.Slow[j].Domain != w.Slow[j].Domain || ce.Slow[j].Cost != w.Slow[j].Cost {
				t.Fatalf("slow[%d] diverged: %+v vs %+v", j, ce.Slow[j], w.Slow[j])
			}
		}
	}
	// Tree structure and labels survive the round trip.
	ctl := ex.Conditions[0]
	if len(ctl.Slow[0].Root.Children) != 1 || ctl.Slow[0].Root.Children[0].Labels["fault"] != "outage" {
		t.Fatalf("tree lost in round trip: %+v", ctl.Slow[0].Root)
	}
	// Selection-relevant views over the decoded export.
	if got := ex.Slowest(3); len(got) != 3 || got[0].Cost < got[1].Cost {
		t.Fatalf("Slowest = %+v", got)
	}
	if forest := ex.VisitForest(); len(forest) != len(ctl.Slow)+len(ctl.Head) {
		t.Fatalf("visit forest = %d trees", len(forest))
	}
}

func domainOf(i int) string {
	return string(rune('a'+i%26)) + "-site.com"
}

// TestWriteExemplarsNilReservoir: the nil path is how every binary
// calls WriteExemplars when -tracez is off — no file, no error.
func TestWriteExemplarsNilReservoir(t *testing.T) {
	path := filepath.Join(t.TempDir(), ExemplarsFile)
	if err := WriteExemplars(path, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("nil reservoir must not create the sidecar")
	}
}

func TestReadExemplarsSchemaGate(t *testing.T) {
	path := filepath.Join(t.TempDir(), ExemplarsFile)
	if err := os.WriteFile(path, []byte(`{"tracez_schema":999,"conditions":[]}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadExemplars(path); err == nil {
		t.Fatal("future schema must be rejected")
	}
}

// TestLoadRunDir: trace.jsonl is required, the sidecar optional — the
// exact contract tracescope depends on for runs made without -tracez.
func TestLoadRunDir(t *testing.T) {
	dir := t.TempDir()
	if _, err := LoadRunDir(dir); err == nil {
		t.Fatal("missing trace.jsonl must error")
	}
	var buf bytes.Buffer
	phases := []*Span{{Name: "crawl.control", Wall: 400 * ms, Labels: map[string]string{"sites": "800"},
		Children: []*Span{{Name: "groundtruth", Off: 10 * ms, Wall: 50 * ms}}}}
	if err := WriteForest(&buf, phases); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, TraceFile), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	rd, err := LoadRunDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rd.Phases) != 1 || rd.Export != nil {
		t.Fatalf("rundir = %+v", rd)
	}
	root := rd.Phases[0]
	if root.Wall != 400*ms || root.Labels["sites"] != "800" || len(root.Children) != 1 ||
		root.Children[0].Name != "groundtruth" || root.Children[0].Off != 10*ms {
		t.Fatalf("phase tree lost in round trip: %+v", root)
	}

	r := NewReservoir(1, 2, 2)
	r.Offer(mkVisit("control", "x.com", 0, 5))
	if err := WriteExemplars(filepath.Join(dir, ExemplarsFile), r); err != nil {
		t.Fatal(err)
	}
	rd, err = LoadRunDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rd.Export == nil || len(rd.Export.Conditions) != 1 {
		t.Fatalf("sidecar not loaded: %+v", rd.Export)
	}
}

// TestLoadRunDirRefusesFlatTrace: a pre-v3 trace.jsonl holds flat span
// records. Decoded as trees they would read as childless zero-wall spans, so
// LoadRunDir must refuse them with an error that names the format.
func TestLoadRunDirRefusesFlatTrace(t *testing.T) {
	dir := t.TempDir()
	flat := `{"id":1,"name":"crawl.control","start":"1970-01-01T00:50:00Z","duration_ns":5000000000}
{"id":2,"parent":1,"name":"webgen","start":"1970-01-01T00:50:00Z","duration_ns":1000000000}
`
	if err := os.WriteFile(filepath.Join(dir, TraceFile), []byte(flat), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := LoadRunDir(dir)
	if err == nil {
		t.Fatal("flat pre-v3 trace.jsonl must be refused")
	}
	if msg := err.Error(); !strings.Contains(msg, "flat span records") || !strings.Contains(msg, "schema 3") {
		t.Fatalf("error must name the flat format and the schema that replaced it: %v", err)
	}
}
