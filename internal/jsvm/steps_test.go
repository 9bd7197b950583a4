package jsvm

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// stepPins fixes the exact step count and result of each construct
// whose step accounting or scoping is easy to get wrong: compound
// assignment's synthetic operand steps, the extra step at the end of
// each loop iteration, targets evaluated twice by += / ++ / --, the
// right-hand side evaluated before the target, a var read before its
// declaration falling through to the outer binding, closures over the
// one scope every for-loop iteration shares, try/finally overriding
// control flow, and the step limit tripping mid-expression. A max of 0
// selects the default budget.
var stepPins = []struct {
	name  string
	max   int
	src   string
	steps int
	want  string
}{
	{"compound ident", 0, "var x = 1; x += 2; x", 10, "3"},
	{"compound member", 0, "var o = {a: 1}; o.a *= 3; o.a", 14, "3"},
	{"compound index", 0, "var a = [1, 2]; a[1] -= 5; a[1]", 18, "-3"},
	{"compound string", 0, "var s = 'a'; s += 'b'; s", 10, "ab"},
	{"compound object operand", 0, "var o = {}; var s = 'x'; s += o; s", 12, "x[object Object]"},
	{"compound modulo", 0, "var m = 17; m %= 5; m", 10, "2"},
	{"compound divide", 0, "var d = 9; d /= 2; d", 10, "4.5"},
	{"compound undeclared", 0, "nope += 1", 4, "error: jsvm: nope is not defined"},
	{"compound rhs before target", 0, "var log = ''; var o = {a: 1}; function t() { log += 't'; return o; } function v() { log += 'v'; return 2; } t().a += v(); log + o.a", 49, "vtt3"},
	{"plain assign rhs before target", 0, "var log = ''; var o = {a: 1}; function t() { log += 't'; return o; } function v() { log += 'v'; return 2; } t().a = v(); log + o.a", 36, "vt2"},
	{"member target twice in +=", 0, "var n = 0; var o = {a: 1}; function g() { n++; return o; } g().a += 1; n + ':' + o.a", 34, "2:2"},
	{"member target twice in postfix ++", 0, "var n = 0; var o = {a: 1}; function g() { n++; return o; } var old = g().a++; n + ':' + o.a + ':' + old", 35, "2:2:1"},
	{"index target twice in prefix --", 0, "var n = 0; var a = [5]; function k() { n++; return 0; } var r = --a[k()]; n + ':' + a[0] + ':' + r", 38, "2:4:4"},
	{"index object twice in +=", 0, "var n = 0; var a = [5]; function arr() { n++; return a; } arr()[0] += 2; n + ':' + a[0]", 37, "2:7"},
	{"for extra step", 0, "var s = 0; for (var i = 0; i < 3; i++) { s += i; } s", 49, "3"},
	{"for empty clauses", 0, "var i = 0; for (;;) { if (i > 2) break; i++; } i", 38, "3"},
	{"for continue", 0, "var s = 0; for (var i = 0; i < 5; i++) { if (i % 2) continue; s += i; } s", 85, "6"},
	{"while extra step", 0, "var i = 0; while (i < 3) { i++; } i", 32, "3"},
	{"do while", 0, "var i = 0; do { i++; } while (i < 3); i", 29, "3"},
	{"while non-block body", 0, "var k = 0; while (k < 2) k++; k", 22, "2"},
	{"for scope hides loop var", 0, "for (var i = 0; i < 2; i++) {} typeof i", 22, "undefined"},
	{"var before decl falls to outer", 0, "var x = 'outer'; var y; { y = x; var x = 'inner'; } y + x", 13, "outerouter"},
	{"var before decl not defined", 0, "{ var y = z; var z = 1; }", 3, "error: jsvm: z is not defined"},
	{"function var before decl", 0, "function f() { var a = b; var b = 2; return a; } f()", 7, "error: jsvm: b is not defined"},
	{"block var falls to function var", 0, "function f() { var x = 1; { var y = x; var x = 2; } return y + ':' + x; } f()", 16, "error: jsvm: y is not defined"},
	{"loop body redeclares each iteration", 0, "var out = ''; for (var i = 0; i < 2; i++) { out += typeof x; var x = i; } out", 40, "undefinedundefined"},
	{"var init sees outer binding", 0, "function f() { var x = 1; { var x = x + 10; return x; } } f()", 14, "11"},
	{"closures share for scope", 0, "var fs = []; for (var i = 0; i < 3; i++) { fs.push(function() { return i; }); } fs[0]() + fs[1]() + fs[2]()", 59, "9"},
	{"closures see per-iteration block", 0, "var fs = []; for (var i = 0; i < 3; i++) { var j = i; fs.push(function() { return j; }); } fs[0]() + ':' + fs[2]()", 61, "0:2"},
	{"closure sees later var", 0, "function f() { var g = function() { return later; }; var later = 5; return g(); } f()", 14, "5"},
	{"finally continue overrides break", 0, "var n = 0; for (var i = 0; i < 3; i++) { try { n++; break; } finally { continue; } } n", 49, "3"},
	{"finally break overrides continue", 0, "var n = 0; for (var i = 0; i < 5; i++) { try { n++; continue; } finally { break; } } n", 17, "1"},
	{"finally return overrides return", 0, "function f() { try { return 1; } finally { return 2; } } f()", 10, "2"},
	{"finally keeps pending return", 0, "function g() { return 7; } function f() { try { return 1; } finally { g(); } } f()", 15, "1"},
	{"finally overrides throw", 0, "function f() { try { throw 'x'; } finally { return 'fin'; } } f()", 10, "fin"},
	{"finally break overrides return", 0, "function f() { var r = 'none'; while (true) { try { return 'ret'; } finally { break; } } return r; } f()", 16, "none"},
	{"catch ignores return", 0, "function f() { try { return 'r'; } catch (e) { return 'c'; } } f()", 8, "r"},
	{"catch runtime error", 0, "var r; try { null.x; } catch (e) { r = e.name + ':' + e.message; } r", 16, "Error:jsvm: cannot read property \"x\" of null"},
	{"catch thrown value", 0, "var r; try { throw {k: 4}; } catch (e) { r = e.k; } r", 11, "4"},
	{"catch scope", 0, "try { throw 1; } catch (e) { var w = e; } typeof w + typeof e", 9, "undefinedundefined"},
	{"try scope", 0, "try { var t = 1; } finally {} typeof t", 5, "undefined"},
	{"nested try rethrow", 0, "var r = ''; try { try { throw 'a'; } catch (e) { r += e; throw 'b'; } finally { r += 'f'; } } catch (e2) { r += e2; } r", 28, "afb"},
	{"typeof undeclared", 0, "typeof nope", 2, "undefined"},
	{"typeof declared", 0, "var q = 1; typeof q", 5, "number"},
	{"typeof member of undeclared", 0, "typeof nope.x", 4, "error: jsvm: nope is not defined"},
	{"typeof function", 0, "typeof Math.floor + typeof Math", 7, "functionobject"},
	{"named function expression", 0, "var f = function fact(n) { return n < 2 ? 1 : n * fact(n - 1); }; f(5) + ':' + typeof fact", 64, "120:undefined"},
	{"name overrides param", 0, "function f(f) { return typeof f; } f(1)", 9, "function"},
	{"var reset param", 0, "function f(a) { var a; return a; } f(3)", 9, "undefined"},
	{"duplicate params", 0, "function f(a, a) { return a; } f(1, 2)", 9, "2"},
	{"arguments", 0, "function f() { return arguments.length + ':' + arguments[1]; } f(1, 'b', 3)", 17, "3:b"},
	{"arguments in arrow", 0, "function f() { var g = () => arguments.length; return g(1, 2); } f(9)", 16, "2"},
	{"arguments in nested function", 0, "function f(a) { function g() { return arguments.length; } return g() + ':' + arguments.length; } f(1, 2)", 20, "0:2"},
	{"missing args undefined", 0, "function f(a, b) { return typeof b; } f(1)", 9, "undefined"},
	{"this in method", 0, "var o = {v: 3, m: function() { return this.v; }}; o.m()", 10, "3"},
	{"this at top level", 0, "this", 2, "error: jsvm: this is not defined"},
	{"new constructor", 0, "function P(x) { this.x = x; } var p = new P(4); p.x", 13, "4"},
	{"new returns object", 0, "function P() { this.a = 1; return {b: 2}; } var p = new P(); p.b + ':' + p.a", 20, "2:undefined"},
	{"implicit global", 0, "function f() { g = 5; } f(); g", 10, "5"},
	{"no hoisting", 0, "f(); function f() {}", 3, "error: jsvm: f is not defined"},
	{"recursion", 0, "function fib(n) { if (n < 2) return n; return fib(n - 1) + fib(n - 2); } fib(12)", 5116, "144"},
	{"deep closure", 0, "function a() { var x = 1; function b() { function c() { return x; } return c(); } return b(); } a()", 19, "1"},
	{"if non-block var", 0, "function f() { if (true) var z = 3; return z; } f()", 11, "3"},
	{"postfix ident", 0, "var i = 5; var j = i++; j + ':' + i", 11, "5:6"},
	{"prefix ident", 0, "var i = 5; var j = --i; j + ':' + i", 11, "4:4"},
	{"postfix undeclared", 0, "nope++", 3, "error: jsvm: nope is not defined"},
	{"logical short circuit", 0, "var c = 0; function f() { c++; return 1; } (0 && f()) + ':' + (1 || f()) + ':' + (1 && f()) + ':' + c", 28, "0:1:1:1"},
	{"comma", 0, "var a = (1, 2); a", 6, "2"},
	{"in operator", 0, "('a' in {a: 1}) + ':' + ('b' in {a: 1})", 12, "true:false"},
	{"comparisons", 0, "('a' < 'b') + ':' + (2 >= 3) + ':' + ('10' < '9') + ':' + (10 < 9)", 22, "true:false:true:false"},
	{"bitwise", 0, "(5 & 3) + ':' + (5 | 3) + ':' + (5 ^ 3) + ':' + (1 << 4) + ':' + (-16 >> 2) + ':' + ~5", 34, "1:7:6:16:-4:-6"},
	{"equality", 0, "(1 == '1') + ':' + (1 === '1') + ':' + (null == undefined) + ':' + (1 != 2) + ':' + (1 !== 1)", 28, "true:false:true:true:false"},
	{"unary", 0, "!0 + ':' + -'3' + ':' + +'4'", 13, "true:-3:4"},
	{"plus coercion", 0, "1 + 2 + 'x' + [1, 2] + {} + null + undefined + true", 18, "3x1,2[object Object]nullundefinedtrue"},
	{"function plus number", 0, "var f = function() {}; typeof (f + 1)", 7, "number"},
	{"string methods", 0, "'abc'.charCodeAt(1) + 'abc'.length + 'abc'.charAt(2) + 'a-b'.split('-').length + 'xyz'.slice(-2) + 'AbC'.toLowerCase()", 24, "101c2yzabc"},
	{"string index", 0, "'abc'[1] + 'abc'[9]", 8, "bundefined"},
	{"hasOwnProperty", 0, "var o = {a: 1}; o.hasOwnProperty('a') + ':' + o.hasOwnProperty('b')", 13, "true:false"},
	{"number methods", 0, "(3.14159).toFixed(2) + ':' + (12).toString()", 9, "3.14:12"},
	{"array methods", 0, "[3, 1, 2].map(x => x * 2).filter(x => x > 2).join('-') + ':' + [1, 2, 3].reduce((a, b) => a + b)", 52, "6-4:6"},
	{"array push pop", 0, "var a = []; a.push(1, 2); a.pop(); a.length + ':' + a.indexOf(1)", 19, "1:0"},
	{"array forEach", 0, "var s = 0; [1, 2, 3].forEach(function(v, i) { s += v * i; }); s", 35, "8"},
	{"array length set", 0, "var a = [1, 2, 3]; a.length = 1; a.length + ':' + a[0]", 18, "1:1"},
	{"array grow", 0, "var a = []; a[3] = 1; a.length + ':' + typeof a[1]", 17, "4:undefined"},
	{"object keys", 0, "Object.keys({b: 1, a: 2}).join()", 7, "a,b"},
	{"json", 0, "JSON.stringify({b: [1, 'x', null], a: true})", 9, "{\"a\":true,\"b\":[1,\"x\",null]}"},
	{"method not a function", 0, "var o = {}; o.nope()", 5, "error: jsvm: object.nope is not a function"},
	{"call non-callable", 0, "var x = 1; x()", 5, "error: jsvm: value of type number is not callable"},
	{"index call", 0, "var o = {f: function() { return this.v; }, v: 8}; o['f']()", 11, "8"},
	{"read property of undefined", 0, "var u; u.x", 4, "error: jsvm: cannot read property \"x\" of undefined"},
	{"set property on number", 0, "var n = 1; n.x = 2", 6, "error: jsvm: cannot set property \"x\" on number"},
	{"top-level return", 0, "return 5; 6", 2, "5"},
	{"break outside loop", 0, "break", 1, "error: jsvm: break outside loop"},
	{"throw uncaught", 0, "throw 'boom'", 2, "error: jsvm: uncaught: boom"},
	{"throw object uncaught", 0, "throw {a: 1}", 3, "error: jsvm: uncaught: [object Object]"},
	{"empty statement", 0, ";", 1, "undefined"},
	{"block value", 0, "{ 1; 2; }", 5, "2"},
	{"if value", 0, "if (1) { 'then'; } else { 'else'; }", 5, "then"},
	{"console", 0, "console.log('a', 1, [2, 3]); console.log(); 'done'", 13, "done"},
	{"math random", 0, "Math.random() + Math.random()", 6, "1.7167845108494975"},
	{"parse numbers", 0, "parseInt('42px') + parseFloat('3.5e') + Number('7') + ':' + isNaN('x')", 18, "52.5:true"},
	{"step limit mid-expression", 5, "var x = 1 + 2 * 3 + (4 + 5);", 6, "error: jsvm: step limit exceeded (5)"},
	{"step limit in call args", 12, "function f(a, b) { return a + b; } f(1 + 2, 3 + 4)", 13, "error: jsvm: step limit exceeded (12)"},
	{"step limit at loop end", 10, "for (;;) {}", 11, "error: jsvm: step limit exceeded (10)"},
	{"step limit in while", 25, "var i = 0; while (true) { i++; }", 26, "error: jsvm: step limit exceeded (25)"},
	{"step limit in compound", 4, "var x = 1; x += 2;", 5, "error: jsvm: step limit exceeded (4)"},
	{"step limit in finally", 6, "try { var a = 1; } finally { var b = 2 + 3; }", 7, "error: jsvm: step limit exceeded (6)"},
	{"block var falls to function var in block", 0, "function f() { var x = 1; { var y = x; var x = 2; return y + ':' + x; } } f()", 18, "1:2"},
	{"function var shadows global", 0, "var x = 1; function f() { var x = 2; return x; } f() + ':' + x", 15, "2:1"},
	{"closure counter", 0, "function mk() { var n = 0; return function() { return ++n; }; } var c = mk(); c(); c()", 21, "2"},
	{"assign before block declaration", 0, "var x = 1; { x = 2; var x = 3; } x", 10, "2"},
	{"assign after block declaration", 0, "var x = 1; { var x = 3; x = 4; } x", 10, "1"},
	{"for init expression", 0, "var i; for (i = 0; i < 2; i++) {} i", 24, "2"},
	{"for var shadows global", 0, "var i = 'g'; for (var i = 0; i < 2; i++) {} i", 24, "g"},
	{"catch without param", 0, "var r = 0; try { throw 1; } catch { r = 1; } r", 10, "1"},
	{"function declaration in block", 0, "{ function inner() { return 4; } var v = inner(); } typeof inner", 10, "undefined"},
	{"many locals", 0, "function f() { var a = 1, b = 2, c = 3, d = 4; { var e = a + b; { var g = e + c + d; return g; } } } f()", 24, "10"},
}

// runPinned runs src on a fresh interpreter and renders its result, or
// its error, as the pin tables record it.
func runPinned(max int, src string) (string, int) {
	in := New(Options{MaxSteps: max, RandSeed: 3})
	v, err := in.RunSource(src)
	if err != nil {
		return "error: " + err.Error(), in.Steps()
	}
	return v.Str(), in.Steps()
}

func TestStepAccountingPins(t *testing.T) {
	for _, c := range stepPins {
		got, steps := runPinned(c.max, c.src)
		if got != c.want || steps != c.steps {
			t.Errorf("%s: %q\n got %q in %d steps\nwant %q in %d steps", c.name, c.src, got, steps, c.want, c.steps)
		}
	}
}

// cyclePins fixes how cyclic values render. Array-to-string renders an
// array that contains itself as "" at the point of the cycle, as
// browsers do; JSON.stringify of a cyclic value throws a TypeError.
// Shared but acyclic values render in full each time.
var cyclePins = []struct {
	name  string
	src   string
	steps int
	want  string
}{
	{"self-containing array to string", "var a = []; a[0] = a; a + ''", 11, ""},
	{"self-containing array join", "var a = [1]; a.push(a); a.join('-')", 11, "1-"},
	{"cycle through a nested array", "var a = [1, [2]]; a[1].push(a); String(a)", 15, "1,2,"},
	{"cycle beside other elements", "var a = [1]; a.push([a, 3]); a + ''", 13, "1,,3"},
	{"shared array is not a cycle", "var x = [1]; [x, x].join() + ':' + [x, [x]]", 15, "1,1:1,1"},
	{"console.log of a cyclic array", "var a = []; a.push(a); console.log(a); 'logged'", 12, "logged"},
	{"stringify self-referencing object", "var o = {}; o.self = o; JSON.stringify(o)", 10, "error: jsvm: TypeError: cyclic object value"},
	{"stringify cycle through an object", "var a = []; a.push({k: a}); JSON.stringify(a)", 11, "error: jsvm: TypeError: cyclic object value"},
	{"stringify cycle is catchable", "var o = {}; o.o = o; var r; try { JSON.stringify(o); } catch (e) { r = e.name + ':' + e.message; } r", 23, "TypeError:jsvm: TypeError: cyclic object value"},
	{"stringify shared object", "var x = {v: 1}; JSON.stringify({a: x, b: [x, x]})", 11, `{"a":{"v":1},"b":[{"v":1},{"v":1}]}`},
}

func TestCyclicValues(t *testing.T) {
	for _, c := range cyclePins {
		got, steps := runPinned(0, c.src)
		if got != c.want || steps != c.steps {
			t.Errorf("%s: %q\n got %q in %d steps\nwant %q in %d steps", c.name, c.src, got, steps, c.want, c.steps)
		}
	}
}

// TestSharedProgramConcurrent runs one compiled Program on several
// goroutines at once, each with its own interpreter, as crawler workers
// share cached programs. Every run must match the serial run exactly;
// under -race this also proves the compiled code holds no run state.
func TestSharedProgramConcurrent(t *testing.T) {
	var srcs []string
	for _, c := range stepPins {
		if c.max == 0 {
			srcs = append(srcs, c.src)
		}
	}
	progs := make([]*Program, len(srcs))
	want := make([]string, len(srcs))
	for i, src := range srcs {
		p, err := Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		progs[i] = p
		want[i] = runShared(p)
	}
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, p := range progs {
				if got := runShared(p); got != want[i] {
					t.Errorf("%q: concurrent run %q, serial run %q", srcs[i], got, want[i])
				}
			}
		}()
	}
	wg.Wait()
}

func runShared(p *Program) string {
	in := New(Options{RandSeed: 3})
	v, err := in.Run(p)
	return fmt.Sprintf("%s|%v|%d|%s", v.Str(), err, in.Steps(), strings.Join(in.ConsoleLog, "\n"))
}

// TestArrayGrowthIsCapped: an index write or a length assignment far
// past an array's end fails with a RuntimeError instead of allocating
// gigabytes, and growth within the cap still pads with undefined.
func TestArrayGrowthIsCapped(t *testing.T) {
	for _, src := range []string{
		`var a = []; a[1e9] = 0;`,
		`var a = [1, 2]; a.length = 1e9;`,
		`var a = []; a[1048576] = 0;`,
	} {
		in := New(Options{})
		_, err := in.RunSource(src)
		var rt *RuntimeError
		if !errors.As(err, &rt) || !strings.Contains(rt.Msg, "invalid array length") {
			t.Errorf("%s: got %v, want an invalid array length RuntimeError", src, err)
		}
	}
	if got := run(t, `var a = []; a[1048575] = 1; a.length + ':' + typeof a[7]`); got.Str() != "1048576:undefined" {
		t.Fatalf("growth to the cap: %s", got.Str())
	}
	if got := run(t, `var a = [1]; a.length = 3; a.length + ':' + typeof a[2]`); got.Str() != "3:undefined" {
		t.Fatalf("length growth: %s", got.Str())
	}
}
