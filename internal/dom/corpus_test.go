package dom_test

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"canvassing/internal/canvas"
	"canvassing/internal/dom"
	"canvassing/internal/jsvm"
	"canvassing/internal/machine"
	"canvassing/internal/services"
)

var update = flag.Bool("update", false, "regenerate the script corpus golden file")

// corpusScript is one script of the corpus the crawler executes.
type corpusScript struct {
	name, src string
}

func scriptCorpus() []corpusScript {
	var out []corpusScript
	params := services.ScriptParams{SiteDomain: "golden.example"}
	for _, v := range services.Registry() {
		out = append(out, corpusScript{"vendor:" + v.Slug, v.Source(params)})
	}
	for _, v := range services.Deferred() {
		out = append(out, corpusScript{"deferred:" + v.Slug, v.Source(params)})
	}
	for _, r := range services.Rebranders() {
		out = append(out, corpusScript{"rebrander:" + r.Slug, services.RebranderSource(r)})
	}
	for _, k := range services.BenignKinds() {
		out = append(out, corpusScript{"benign:" + string(k), services.BenignSource(k)})
	}
	return out
}

func sha(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:8])
}

// runCorpusScript runs src on a fresh page, then drains the page's
// timers, click and scroll handlers and idle callbacks the way the
// interaction engine does, and renders everything observable: step
// counts, the error text, console output, a hash of the whole Canvas
// API trace and a hash of each extraction.
func runCorpusScript(sc corpusScript) string {
	in := jsvm.New(jsvm.Options{RandSeed: 42})
	doc := dom.NewDocument(machine.Intel(), "golden.example")
	var trace strings.Builder
	var extractions []string
	doc.Tracer = canvas.TracerFunc(func(iface, member string, args []string, ret string) {
		fmt.Fprintf(&trace, "%s.%s(%s)=%s\n", iface, member, strings.Join(args, ","), ret)
		if member == "toDataURL" || member == "getImageData" {
			extractions = append(extractions, member+" "+sha(ret))
		}
	})
	doc.Install(in)
	doc.SetScriptOwner("https://golden.example/" + sc.name)
	_, err := in.RunSource(sc.src)
	errText := ""
	if err != nil {
		errText = err.Error()
	}
	scriptSteps := in.Steps()
	ran := doc.Loop.RunTimers(nil)
	ran += doc.Loop.Dispatch("click", nil)
	ran += doc.Loop.Dispatch("scroll", nil)
	ran += doc.Loop.RunIdle(nil)
	ran += doc.Loop.RunTimers(nil)

	var b strings.Builder
	fmt.Fprintf(&b, "%s steps=%d drained=%d callbacks=%d err=%q\n", sc.name, scriptSteps, in.Steps(), ran, errText)
	for _, line := range in.ConsoleLog {
		fmt.Fprintf(&b, "  console %q\n", line)
	}
	fmt.Fprintf(&b, "  trace %s\n", sha(trace.String()))
	for _, e := range extractions {
		fmt.Fprintf(&b, "  %s\n", e)
	}
	return b.String()
}

// TestScriptCorpusGolden pins what every vendor, deferred-vendor,
// rebrander and benign script in the corpus does in the VM: the exact
// step counts (the crawler's budgets and the study's jsvm.steps counter
// depend on them), errors, console output and every canvas extraction.
// Any drift means the interpreter's behaviour or step accounting
// changed; regenerate with -update only when that is intended.
func TestScriptCorpusGolden(t *testing.T) {
	var b strings.Builder
	for _, sc := range scriptCorpus() {
		b.WriteString(runCorpusScript(sc))
	}
	got := b.String()
	path := filepath.Join("testdata", "script_corpus.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/dom -run TestScriptCorpusGolden -update` to create it)", err)
	}
	if got != string(want) {
		t.Fatalf("script corpus drifted from %s\n--- want\n%s--- got\n%s", path, want, got)
	}
}
