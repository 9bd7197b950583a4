package jsvm

import (
	"errors"
	"runtime/debug"
	"strings"
	"testing"
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
