package jsvm

import (
	"errors"
	"runtime/debug"
	"strings"
	"testing"
	"time"
)

// TestRunawayRecursionIsRangeError: unbounded recursion stops at the
// call-depth limit with a RangeError a script can catch. The lowered
// stack ceiling makes a missing limit crash fast instead of first
// growing a gigabyte of stack.
func TestRunawayRecursionIsRangeError(t *testing.T) {
	defer debug.SetMaxStack(debug.SetMaxStack(256 << 20))
	in := New(Options{MaxSteps: 50_000_000})
	_, err := in.RunSource(`function f(n){return f(n+1)} f(0)`)
	var re *RuntimeError
	if !errors.As(err, &re) || re.Name != "RangeError" {
		t.Fatalf("runaway recursion: got %v, want a RangeError", err)
	}
	v, err := in.RunSource(`var r = ''; try { (function g(){ g() })() } catch (e) { r = e.name } r`)
	if err != nil || v.Str() != "RangeError" || in.depth != 0 {
		t.Fatalf("caught runaway recursion = %v, %v (depth %d); want RangeError at depth 0", v, err, in.depth)
	}
	if got := run(t, `function d(n){ return n == 0 ? 0 : 1 + d(n-1) } d(1000)`); got.Num() != 1000 {
		t.Fatalf("1000-deep recursion = %v, want 1000", got.Num())
	}
}

// TestParseNestingLimit: input nested past maxNesting is a SyntaxError,
// not a stack overflow, for each recursive shape the parser has.
func TestParseNestingLimit(t *testing.T) {
	const n = 5 * maxNesting
	for name, src := range map[string]string{
		"arrays":      "x=" + strings.Repeat("[", n) + strings.Repeat("]", n),
		"parens":      "x=" + strings.Repeat("(", n) + "1" + strings.Repeat(")", n),
		"blocks":      strings.Repeat("{", n) + strings.Repeat("}", n),
		"unary":       "x=" + strings.Repeat("!", n) + "1",
		"assignments": strings.Repeat("x=", n) + "1",
		"ifs":         strings.Repeat("if(1)", n) + ";",
	} {
		var se *SyntaxError
		if _, err := Parse(src); !errors.As(err, &se) || !strings.Contains(err.Error(), "nesting") {
			t.Errorf("%s nested %d deep: got %v, want a nesting SyntaxError", name, n, err)
		}
	}
	if v := run(t, "var x = "+strings.Repeat("[", 500)+"7"+strings.Repeat("]", 500)+"; x.length"); v.Num() != 1 {
		t.Fatalf("500-deep array literal: length = %v, want 1", v.Num())
	}
}

// TestDeepArrayRendering: an array nested far past maxCallDepth by a
// loop (no parser nesting involved) renders and serializes in bounded
// time and stack. ToString renders the part past the limit as "", the
// same as a cycle; JSON.stringify throws a catchable RangeError.
// Without the bound, both recurse once per level and rescan the whole
// path at each level, which at this depth takes many seconds.
func TestDeepArrayRendering(t *testing.T) {
	defer debug.SetMaxStack(debug.SetMaxStack(256 << 20))
	in := New(Options{MaxSteps: 50_000_000})
	const build = `var a = []; for (var i = 0; i < 100000; i++) a = [a];`
	start := time.Now()
	v, err := in.RunSource(build + ` String(a).length`)
	if err != nil || v.Num() != 0 {
		t.Fatalf("String of a deep array = %v, %v; want the empty string", v, err)
	}
	v, err = in.RunSource(`var r = ''; try { JSON.stringify(a) } catch (e) { r = e.name } r`)
	if err != nil || v.Str() != "RangeError" {
		t.Fatalf("JSON.stringify of a deep array = %v, %v; want a caught RangeError", v, err)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("deep array rendering took %v", d)
	}
	if got := run(t, `var b = 1; for (var i = 0; i < 50; i++) b = [b]; JSON.stringify(b).length`); got.Num() != 101 {
		t.Fatalf("50-deep JSON.stringify length = %v, want 101", got.Num())
	}
}
