package jsvm

import (
	"errors"
	"fmt"
)

// RuntimeError is a script-level failure (thrown value, type error, step
// limit, unknown identifier).
type RuntimeError struct {
	// Name is the error's name as a catch clause sees it ("" reads as
	// "Error").
	Name string
	Msg  string
}

func (e *RuntimeError) Error() string { return "jsvm: " + e.Msg }

func rtErrf(format string, args ...any) error {
	return &RuntimeError{Msg: fmt.Sprintf(format, args...)}
}

// control-flow sentinels. A return leaves its value in Interp.ret, so
// returning from a function allocates nothing.
var (
	errBreak    = errors.New("jsvm: break outside loop")
	errContinue = errors.New("jsvm: continue outside loop")
	errReturn   = errors.New("jsvm: return outside function")
)

// thrownSignal carries a value raised by `throw` until a try/catch
// handles it; escaping the program it becomes an uncaught RuntimeError.
type thrownSignal struct{ v Value }

func (t thrownSignal) Error() string { return "jsvm: uncaught: " + t.v.Str() }

// isControlFlow reports whether err is a loop/function control signal
// that try/catch must NOT intercept.
func isControlFlow(err error) bool {
	return err == errBreak || err == errContinue || err == errReturn
}

// maxCallDepth bounds nested script-function calls, near the depth
// browsers allow. Deeper recursion fails with a catchable RangeError
// instead of overflowing the Go stack, which would end the process.
const maxCallDepth = 10_000

// Options configures an interpreter instance.
type Options struct {
	// MaxSteps bounds evaluation steps; <=0 selects the default of 5M.
	// The crawler relies on this to survive runaway scripts.
	MaxSteps int
	// RandSeed seeds Math.random for deterministic crawls.
	RandSeed uint64
}

// Interp executes compiled programs. It holds all run state: globals,
// the step budget, the pending return value and the per-interpreter
// built-in method values. Programs themselves are immutable, so one
// Program may run on many interpreters at once.
type Interp struct {
	globals  map[string]Value
	maxSteps int
	steps    int
	rands    uint64
	ret      Value   // value of the return statement being unwound
	methods  []Value // built-in method natives, made on first use
	stack    []Value // arguments of the script and built-in calls in progress
	depth    int     // script-function calls in progress
	// ConsoleLog receives console.log lines (joined with spaces).
	ConsoleLog []string
}

// New returns an interpreter with standard builtins installed.
func New(opts Options) *Interp {
	if opts.MaxSteps <= 0 {
		opts.MaxSteps = 5_000_000
	}
	in := &Interp{
		globals:  map[string]Value{},
		maxSteps: opts.MaxSteps,
		rands:    opts.RandSeed ^ 0x9E3779B97F4A7C15,
	}
	installBuiltins(in)
	return in
}

// SetGlobal binds a global variable (host objects go here).
func (in *Interp) SetGlobal(name string, v Value) { in.globals[name] = v }

// Global reads a global variable.
func (in *Interp) Global(name string) (Value, bool) {
	v, ok := in.globals[name]
	return v, ok
}

// ResetSteps restores the full step budget (between page scripts).
func (in *Interp) ResetSteps() { in.steps = 0 }

// Steps reports the evaluation steps consumed since the last
// ResetSteps — the crawler's per-script budget telemetry.
func (in *Interp) Steps() int { return in.steps }

// MaxSteps reports the configured step budget.
func (in *Interp) MaxSteps() int { return in.maxSteps }

// RunSource parses and runs src, returning the value of the last
// expression statement.
func (in *Interp) RunSource(src string) (Value, error) {
	prog, err := Parse(src)
	if err != nil {
		return Undefined(), err
	}
	return in.Run(prog)
}

// Run executes a parsed program in the global scope.
func (in *Interp) Run(prog *Program) (Value, error) {
	root := &frame{in: in}
	var last Value
	for _, st := range prog.code {
		v, err := st(root)
		if err != nil {
			if err == errReturn {
				return in.takeReturn(), nil
			}
			return Undefined(), err
		}
		last = v
	}
	return last, nil
}

// step charges one evaluation step. Every compiled statement and
// expression calls it once on entry, before any side effect.
func (in *Interp) step() error {
	in.steps++
	if in.steps > in.maxSteps {
		return in.stepLimit()
	}
	return nil
}

// stepLimit is kept out of line so step stays small enough to inline
// into every compiled node.
//
//go:noinline
func (in *Interp) stepLimit() error {
	return rtErrf("step limit exceeded (%d)", in.maxSteps)
}

func (in *Interp) takeReturn() Value {
	v := in.ret
	in.ret = Value{}
	return v
}

// errorValue converts a VM error to the value a catch clause binds: the
// thrown value itself, or an Error-like object for runtime errors.
func errorValue(err error) Value {
	if ts, ok := err.(thrownSignal); ok {
		return ts.v
	}
	name := "Error"
	if re, ok := err.(*RuntimeError); ok && re.Name != "" {
		name = re.Name
	}
	obj := NewObject()
	obj.Object().Props["name"] = String(name)
	obj.Object().Props["message"] = String(err.Error())
	return obj
}

// CallValue invokes a callable value with an explicit this and arguments.
// Host callbacks (e.g. DOM event handlers) use it to re-enter the VM.
func (in *Interp) CallValue(fn Value, this Value, args []Value) (Value, error) {
	if !fn.IsCallable() {
		return Undefined(), rtErrf("value of type %s is not callable", fn.TypeOf())
	}
	if fn.obj.Native != nil {
		return fn.obj.Native(this, args)
	}
	return in.callFunction(fn, this, args)
}

// call evaluates a call's arguments and invokes fn. Script functions
// and built-in methods copy what they keep of their arguments, so they
// get them on the interpreter's stack; host natives may keep theirs and
// get a slice of their own.
func (in *Interp) call(fn, this Value, args []code, f *frame) (Value, error) {
	if fn.kind != KindObject || (fn.obj.fn == nil && fn.obj.method == nil) {
		vals, err := evalAll(args, f)
		if err != nil {
			return Undefined(), err
		}
		return in.CallValue(fn, this, vals)
	}
	base := len(in.stack)
	defer func() { in.stack = in.stack[:base] }()
	for _, a := range args {
		v, err := a(f)
		if err != nil {
			return Undefined(), err
		}
		in.stack = append(in.stack, v)
	}
	vals := in.stack[base:len(in.stack):len(in.stack)]
	if m := fn.obj.method; m != nil {
		return m.fn(in, this, vals)
	}
	return in.callFunction(fn, this, vals)
}

// callFunction runs a compiled script function in a new frame.
func (in *Interp) callFunction(fn Value, this Value, args []Value) (Value, error) {
	if in.depth >= maxCallDepth {
		return Undefined(), &RuntimeError{Name: "RangeError", Msg: "Maximum call stack size exceeded"}
	}
	in.depth++
	defer func() { in.depth-- }()
	o := fn.obj
	def := o.fn
	fr := newFrame(in, o.env, def.slots)
	for i, s := range def.params {
		if i < len(args) {
			fr.slots[s] = args[i]
		} else {
			fr.slots[s] = Undefined()
		}
	}
	// Bind in the order params, this, arguments, own name, so a later
	// binding of the same name wins as it always has.
	if def.thisSlot >= 0 {
		fr.slots[def.thisSlot] = this
	}
	if def.argsSlot >= 0 {
		fr.slots[def.argsSlot] = NewArray(append([]Value(nil), args...)...)
	}
	if def.nameSlot >= 0 {
		fr.slots[def.nameSlot] = fn
	}
	for _, st := range def.body {
		if _, err := st(fr); err != nil {
			if err == errReturn {
				return in.takeReturn(), nil
			}
			return Undefined(), err
		}
	}
	return Undefined(), nil
}
