package jsvm

import "math"

// The code generator turns each statement and expression into a Go
// closure over its resolved operands. Compiled code is immutable: all
// run state lives in the Interp and the frames passed in, so one
// Program runs on any number of interpreters at once.
//
// Step accounting is the interpreter's contract with the crawler's
// budgets and the study's jsvm.steps counter, so it follows the AST
// exactly: every statement and every expression node charges one step
// on entry, before any side effect, and
//
//   - a for or while loop charges one more step after each iteration;
//   - compound assignment (x op= v) evaluates v, then x as an
//     expression, then charges one step for each of the two operands of
//     the combining operator, then assigns — evaluating the object (and
//     index) of a member target a second time;
//   - x++, x-- and their prefix forms evaluate x, then assign the same
//     way, also evaluating a member target's object twice;
//   - a call charges one step for the call node, none for its callee
//     when that is a member or index expression, and none on entry to
//     the callee's body.

// code is a compiled statement or expression. Statements yield the
// value of their last expression statement, for Run.
type code func(f *frame) (Value, error)

// function is the compiled form of a FuncLit.
type function struct {
	params                       []int // slot of each parameter
	thisSlot, argsSlot, nameSlot int   // -1 when the body never reads it
	slots                        []Value
	body                         []code
}

// compileProgram compiles a parsed program's top level, which runs in
// the global scope.
func compileProgram(body []Stmt) []code {
	c := &compiler{sc: &scope{global: true, frame: true}}
	return c.stmts(body)
}

type compiler struct {
	sc *scope
}

func (c *compiler) stmts(list []Stmt) []code {
	out := make([]code, len(list))
	for i, st := range list {
		out[i] = c.stmt(st)
	}
	return out
}

// enter opens a nested scope with a slot for each var the statements
// declare and for each name in bound, which whoever opens the scope
// binds at once (a catch clause's parameter).
func (c *compiler) enter(stmts []Stmt, bound ...string) *scope {
	s := newScope(c.sc)
	for _, name := range bound {
		s.always[s.slot(name)] = true
	}
	s.declareAll(stmts)
	s.frame = len(s.always) > 0
	c.sc = s
	return s
}

func (c *compiler) leave(s *scope) { c.sc = s.parent }

// runList runs compiled statements in order, yielding the last value.
func runList(list []code, f *frame) (Value, error) {
	var last Value
	for _, st := range list {
		v, err := st(f)
		if err != nil {
			return Undefined(), err
		}
		last = v
	}
	return last, nil
}

// inScope wraps body so it runs in a fresh frame of s, when s has one.
func inScope(s *scope, body []code) code {
	if !s.frame {
		return func(f *frame) (Value, error) { return runList(body, f) }
	}
	init := s.template()
	return func(f *frame) (Value, error) { return runList(body, newFrame(f.in, f, init)) }
}

func (c *compiler) stmt(st Stmt) code {
	switch s := st.(type) {
	case *VarDecl:
		return c.varDecl(s)
	case *ExprStmt:
		x := c.expr(s.X)
		return func(f *frame) (Value, error) {
			if err := f.in.step(); err != nil {
				return Undefined(), err
			}
			return x(f)
		}
	case *BlockStmt:
		sc := c.enter(s.Body)
		body := c.stmts(s.Body)
		c.leave(sc)
		if !sc.frame {
			return func(f *frame) (Value, error) {
				if err := f.in.step(); err != nil {
					return Undefined(), err
				}
				return runList(body, f)
			}
		}
		init := sc.template()
		return func(f *frame) (Value, error) {
			if err := f.in.step(); err != nil {
				return Undefined(), err
			}
			return runList(body, newFrame(f.in, f, init))
		}
	case *IfStmt:
		return c.ifStmt(s)
	case *ForStmt:
		return c.forStmt(s)
	case *WhileStmt:
		return c.whileStmt(s)
	case *ReturnStmt:
		var x code
		if s.X != nil {
			x = c.expr(s.X)
		}
		return func(f *frame) (Value, error) {
			if err := f.in.step(); err != nil {
				return Undefined(), err
			}
			var v Value
			if x != nil {
				var err error
				if v, err = x(f); err != nil {
					return Undefined(), err
				}
			}
			f.in.ret = v
			return Undefined(), errReturn
		}
	case *BreakStmt:
		return signal(errBreak)
	case *ContinueStmt:
		return signal(errContinue)
	case *ThrowStmt:
		x := c.expr(s.X)
		return func(f *frame) (Value, error) {
			if err := f.in.step(); err != nil {
				return Undefined(), err
			}
			v, err := x(f)
			if err != nil {
				return Undefined(), err
			}
			return Undefined(), thrownSignal{v}
		}
	case *TryStmt:
		return c.tryStmt(s)
	}
	panic("jsvm: cannot compile statement") // the parser builds no other kind
}

func signal(sig error) code {
	return func(f *frame) (Value, error) {
		if err := f.in.step(); err != nil {
			return Undefined(), err
		}
		return Undefined(), sig
	}
}

// varDecl binds each name once its initializer has run: in the current
// frame, or in the globals map at the top level.
func (c *compiler) varDecl(s *VarDecl) code {
	n := len(s.Names)
	inits := make([]code, n)
	slots := make([]int, n)
	for i, name := range s.Names {
		if s.Inits[i] != nil {
			inits[i] = c.expr(s.Inits[i])
		}
		if !c.sc.global {
			slots[i] = c.sc.names[name]
		}
	}
	names, global := s.Names, c.sc.global
	return func(f *frame) (Value, error) {
		if err := f.in.step(); err != nil {
			return Undefined(), err
		}
		for i, init := range inits {
			var v Value
			if init != nil {
				var err error
				if v, err = init(f); err != nil {
					return Undefined(), err
				}
			}
			if global {
				f.in.globals[names[i]] = v
			} else {
				f.slots[slots[i]] = v
			}
		}
		return Undefined(), nil
	}
}

func (c *compiler) ifStmt(s *IfStmt) code {
	cond, then := c.expr(s.Cond), c.stmt(s.Then)
	var els code
	if s.Else != nil {
		els = c.stmt(s.Else)
	}
	return func(f *frame) (Value, error) {
		if err := f.in.step(); err != nil {
			return Undefined(), err
		}
		v, err := cond(f)
		if err != nil {
			return Undefined(), err
		}
		if v.Bool() {
			return then(f)
		}
		if els != nil {
			return els(f)
		}
		return Undefined(), nil
	}
}

// forStmt compiles a for loop. Its init, condition, post and body share
// one scope for the whole loop, so closures made in different
// iterations see the same loop variable.
func (c *compiler) forStmt(s *ForStmt) code {
	sc := c.enter([]Stmt{s.Init, s.Body})
	var init, cond, post code
	if s.Init != nil {
		init = c.stmt(s.Init)
	}
	if s.Cond != nil {
		cond = c.expr(s.Cond)
	}
	if s.Post != nil {
		post = c.expr(s.Post)
	}
	body := c.stmt(s.Body)
	c.leave(sc)
	var tmpl []Value
	if sc.frame {
		tmpl = sc.template()
	}
	return func(f *frame) (Value, error) {
		in := f.in
		if err := in.step(); err != nil {
			return Undefined(), err
		}
		loop := f
		if tmpl != nil {
			loop = newFrame(in, f, tmpl)
		}
		if init != nil {
			if _, err := init(loop); err != nil {
				return Undefined(), err
			}
		}
		for {
			if cond != nil {
				v, err := cond(loop)
				if err != nil {
					return Undefined(), err
				}
				if !v.Bool() {
					break
				}
			}
			if _, err := body(loop); err != nil {
				if err == errBreak {
					break
				}
				if err != errContinue {
					return Undefined(), err
				}
			}
			if post != nil {
				if _, err := post(loop); err != nil {
					return Undefined(), err
				}
			}
			if err := in.step(); err != nil {
				return Undefined(), err
			}
		}
		return Undefined(), nil
	}
}

func (c *compiler) whileStmt(s *WhileStmt) code {
	cond, body, do := c.expr(s.Cond), c.stmt(s.Body), s.Do
	return func(f *frame) (Value, error) {
		in := f.in
		if err := in.step(); err != nil {
			return Undefined(), err
		}
		for first := do; ; first = false {
			if !first {
				v, err := cond(f)
				if err != nil {
					return Undefined(), err
				}
				if !v.Bool() {
					break
				}
			}
			if _, err := body(f); err != nil {
				if err == errBreak {
					break
				}
				if err != errContinue {
					return Undefined(), err
				}
			}
			if err := in.step(); err != nil {
				return Undefined(), err
			}
		}
		return Undefined(), nil
	}
}

// tryStmt implements try/catch/finally. Control-flow signals (break,
// continue, return) pass through uncaught; thrown values and runtime
// errors reach the catch clause as an Error-like object. The finally
// clause always runs, and its own failure or control flow wins; when it
// completes normally, a return it interrupted keeps its value.
func (c *compiler) tryStmt(s *TryStmt) code {
	bodySc := c.enter(s.Body)
	body := inScope(bodySc, c.stmts(s.Body))
	c.leave(bodySc)

	var catch func(f *frame, err error) error
	if s.HasCatch {
		var bound []string
		if s.CatchParam != "" {
			bound = append(bound, s.CatchParam)
		}
		sc := c.enter(s.Catch, bound...)
		list := c.stmts(s.Catch)
		c.leave(sc)
		tmpl, param := sc.template(), -1
		if len(bound) > 0 {
			param = sc.names[s.CatchParam]
		}
		catch = func(f *frame, err error) error {
			cf := f
			if sc.frame {
				cf = newFrame(f.in, f, tmpl)
				if param >= 0 {
					cf.slots[param] = errorValue(err)
				}
			}
			_, err = runList(list, cf)
			return err
		}
	}
	var finally code
	if s.HasFinally {
		sc := c.enter(s.Finally)
		finally = inScope(sc, c.stmts(s.Finally))
		c.leave(sc)
	}
	return func(f *frame) (Value, error) {
		in := f.in
		if err := in.step(); err != nil {
			return Undefined(), err
		}
		_, err := body(f)
		if err != nil && catch != nil && !isControlFlow(err) {
			err = catch(f, err)
		}
		if finally != nil {
			pending := in.ret
			if _, ferr := finally(f); ferr != nil {
				return Undefined(), ferr
			}
			in.ret = pending
		}
		return Undefined(), err
	}
}

// --- expressions ---

func (c *compiler) expr(e Expr) code {
	if v, ok := literal(e); ok {
		return func(f *frame) (Value, error) {
			if err := f.in.step(); err != nil {
				return Undefined(), err
			}
			return v, nil
		}
	}
	switch x := e.(type) {
	case *Ident:
		return c.ident(x.Name)
	case *ArrayLit:
		elems := c.exprs(x.Elems)
		return func(f *frame) (Value, error) {
			if err := f.in.step(); err != nil {
				return Undefined(), err
			}
			vals, err := evalAll(elems, f)
			if err != nil {
				return Undefined(), err
			}
			return NewArray(vals...), nil
		}
	case *ObjectLit:
		keys, vals := x.Keys, c.exprs(x.Values)
		return func(f *frame) (Value, error) {
			if err := f.in.step(); err != nil {
				return Undefined(), err
			}
			props := make(map[string]Value, len(keys))
			for i, k := range keys {
				v, err := vals[i](f)
				if err != nil {
					return Undefined(), err
				}
				props[k] = v
			}
			return Value{kind: KindObject, obj: &Object{Props: props}}, nil
		}
	case *FuncLit:
		def := c.function(x)
		return func(f *frame) (Value, error) {
			if err := f.in.step(); err != nil {
				return Undefined(), err
			}
			return Value{kind: KindObject, obj: &Object{fn: def, env: f}}, nil
		}
	case *Unary:
		return c.unary(x)
	case *Postfix:
		return c.update(x.X, x.Op == "++", true)
	case *Binary:
		return c.binary(x)
	case *Assign:
		return c.assign(x)
	case *Cond:
		test, then, els := c.expr(x.Test), c.expr(x.Then), c.expr(x.Else)
		return func(f *frame) (Value, error) {
			if err := f.in.step(); err != nil {
				return Undefined(), err
			}
			t, err := test(f)
			if err != nil {
				return Undefined(), err
			}
			if t.Bool() {
				return then(f)
			}
			return els(f)
		}
	case *Member:
		obj, key := c.expr(x.X), newPropKey(x.Name)
		return func(f *frame) (Value, error) {
			if err := f.in.step(); err != nil {
				return Undefined(), err
			}
			o, err := obj(f)
			if err != nil {
				return Undefined(), err
			}
			return f.in.getProp(o, key)
		}
	case *Index:
		obj, idx := c.expr(x.X), c.expr(x.I)
		return func(f *frame) (Value, error) {
			if err := f.in.step(); err != nil {
				return Undefined(), err
			}
			o, err := obj(f)
			if err != nil {
				return Undefined(), err
			}
			i, err := idx(f)
			if err != nil {
				return Undefined(), err
			}
			return f.in.getIndex(o, i)
		}
	case *Call:
		return c.call(x)
	case *NewExpr:
		return c.newExpr(x)
	}
	panic("jsvm: cannot compile expression") // the parser builds no other kind
}

func (c *compiler) exprs(list []Expr) []code {
	out := make([]code, len(list))
	for i, e := range list {
		out[i] = c.expr(e)
	}
	return out
}

func evalAll(list []code, f *frame) ([]Value, error) {
	vals := make([]Value, len(list))
	for i, e := range list {
		v, err := e(f)
		if err != nil {
			return nil, err
		}
		vals[i] = v
	}
	return vals, nil
}

// function compiles a function literal's body in a scope of its own.
func (c *compiler) function(x *FuncLit) *function {
	def := &function{thisSlot: -1, argsSlot: -1, nameSlot: -1}
	sc := c.enter(x.Body, x.Params...)
	// A call opens a frame even for a function that binds nothing, so
	// the frame's interpreter is always the caller's.
	sc.frame, sc.fn, sc.fnName = true, def, x.Name
	for _, p := range x.Params {
		def.params = append(def.params, sc.names[p])
	}
	def.body = c.stmts(x.Body)
	c.leave(sc)
	def.slots = sc.template()
	return def
}

func (c *compiler) ident(name string) code {
	r := resolve(c.sc, name)
	if len(r.binds) != 1 {
		return func(f *frame) (Value, error) {
			if err := f.in.step(); err != nil {
				return Undefined(), err
			}
			return r.read(f)
		}
	}
	b := r.binds[0]
	if b.always {
		if b.depth == 0 {
			return func(f *frame) (Value, error) {
				if err := f.in.step(); err != nil {
					return Undefined(), err
				}
				return f.slots[b.slot], nil
			}
		}
		return func(f *frame) (Value, error) {
			if err := f.in.step(); err != nil {
				return Undefined(), err
			}
			return *b.at(f), nil
		}
	}
	return func(f *frame) (Value, error) {
		if err := f.in.step(); err != nil {
			return Undefined(), err
		}
		if p := b.at(f); p.kind != kindUnset {
			return *p, nil
		}
		return r.read(f)
	}
}

func (c *compiler) unary(x *Unary) code {
	if x.Op == "++" || x.Op == "--" {
		return c.update(x.X, x.Op == "++", false)
	}
	operand := c.expr(x.X)
	if x.Op == "typeof" {
		// typeof tolerates undefined identifiers.
		var r *ref
		if id, ok := x.X.(*Ident); ok {
			r = resolve(c.sc, id.Name)
		}
		return func(f *frame) (Value, error) {
			if err := f.in.step(); err != nil {
				return Undefined(), err
			}
			if r != nil {
				if _, found := r.get(f); !found {
					return String("undefined"), nil
				}
			}
			v, err := operand(f)
			if err != nil {
				return Undefined(), err
			}
			return String(v.TypeOf()), nil
		}
	}
	var op func(Value) Value
	switch x.Op {
	case "!":
		op = func(v Value) Value { return Boolean(!v.Bool()) }
	case "-":
		op = func(v Value) Value { return Number(-v.Num()) }
	case "+":
		op = func(v Value) Value { return Number(v.Num()) }
	case "~":
		op = func(v Value) Value { return Number(float64(^toInt32(v.Num()))) }
	default:
		panic("jsvm: unknown unary operator " + x.Op) // the parser builds no other
	}
	return func(f *frame) (Value, error) {
		if err := f.in.step(); err != nil {
			return Undefined(), err
		}
		v, err := operand(f)
		if err != nil {
			return Undefined(), err
		}
		return op(v), nil
	}
}

func toInt32(f float64) int32 {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0
	}
	return int32(int64(f))
}

// update compiles ++ and --: read the target, then assign the stepped
// number back, yielding the old value for postfix and the new for
// prefix.
func (c *compiler) update(target Expr, inc, postfix bool) code {
	delta := -1.0
	if inc {
		delta = 1
	}
	result := func(old, nv Value) Value {
		if postfix {
			return Number(old.Num())
		}
		return nv
	}
	if id, ok := target.(*Ident); ok {
		// The loop counter case: read and write the binding directly,
		// still charging the identifier's own step.
		r := resolve(c.sc, id.Name)
		return func(f *frame) (Value, error) {
			in := f.in
			if err := in.step(); err != nil {
				return Undefined(), err
			}
			if err := in.step(); err != nil {
				return Undefined(), err
			}
			old, err := r.read(f)
			if err != nil {
				return Undefined(), err
			}
			nv := Number(old.Num() + delta)
			r.set(f, nv)
			return result(old, nv), nil
		}
	}
	read, store := c.expr(target), c.store(target)
	return func(f *frame) (Value, error) {
		if err := f.in.step(); err != nil {
			return Undefined(), err
		}
		old, err := read(f)
		if err != nil {
			return Undefined(), err
		}
		nv := Number(old.Num() + delta)
		if err := store(f, nv); err != nil {
			return Undefined(), err
		}
		return result(old, nv), nil
	}
}

// store compiles an assignment target into a function that writes v.
// A member or index target evaluates its object (and index) each time
// the store runs.
func (c *compiler) store(target Expr) func(f *frame, v Value) error {
	switch t := target.(type) {
	case *Ident:
		r := resolve(c.sc, t.Name)
		return func(f *frame, v Value) error {
			r.set(f, v)
			return nil
		}
	case *Member:
		obj, name := c.expr(t.X), t.Name
		return func(f *frame, v Value) error {
			o, err := obj(f)
			if err != nil {
				return err
			}
			return setProp(o, name, v)
		}
	case *Index:
		obj, idx := c.expr(t.X), c.expr(t.I)
		return func(f *frame, v Value) error {
			o, err := obj(f)
			if err != nil {
				return err
			}
			i, err := idx(f)
			if err != nil {
				return err
			}
			return setIndex(o, i, v)
		}
	}
	// The parser lets ++ and -- apply to any expression; the error comes
	// when the update tries to store.
	return func(f *frame, v Value) error {
		return rtErrf("invalid assignment target %T", target)
	}
}

func (c *compiler) assign(x *Assign) code {
	val := c.expr(x.Value)
	if id, ok := x.Target.(*Ident); ok && x.Op == "=" {
		r := resolve(c.sc, id.Name)
		return func(f *frame) (Value, error) {
			if err := f.in.step(); err != nil {
				return Undefined(), err
			}
			v, err := val(f)
			if err != nil {
				return Undefined(), err
			}
			r.set(f, v)
			return v, nil
		}
	}
	store := c.store(x.Target)
	if x.Op == "=" {
		return func(f *frame) (Value, error) {
			if err := f.in.step(); err != nil {
				return Undefined(), err
			}
			v, err := val(f)
			if err != nil {
				return Undefined(), err
			}
			if err := store(f, v); err != nil {
				return Undefined(), err
			}
			return v, nil
		}
	}
	read, op := c.expr(x.Target), binops[x.Op[:len(x.Op)-1]]
	return func(f *frame) (Value, error) {
		in := f.in
		if err := in.step(); err != nil {
			return Undefined(), err
		}
		v, err := val(f)
		if err != nil {
			return Undefined(), err
		}
		cur, err := read(f)
		if err != nil {
			return Undefined(), err
		}
		// The combining operator's two operands are already values but
		// still cost a step each.
		if err := in.step(); err != nil {
			return Undefined(), err
		}
		if err := in.step(); err != nil {
			return Undefined(), err
		}
		v = op.apply(cur, v)
		if err := store(f, v); err != nil {
			return Undefined(), err
		}
		return v, nil
	}
}

func (c *compiler) binary(x *Binary) code {
	l, r := c.expr(x.L), c.expr(x.R)
	switch x.Op {
	// Short-circuit operators evaluate lazily and yield operand values.
	case "&&", "||":
		and := x.Op == "&&"
		return func(f *frame) (Value, error) {
			if err := f.in.step(); err != nil {
				return Undefined(), err
			}
			lv, err := l(f)
			if err != nil || lv.Bool() != and {
				return lv, err
			}
			return r(f)
		}
	case ",":
		return func(f *frame) (Value, error) {
			if err := f.in.step(); err != nil {
				return Undefined(), err
			}
			if _, err := l(f); err != nil {
				return Undefined(), err
			}
			return r(f)
		}
	}
	op, ok := binops[x.Op]
	if !ok {
		panic("jsvm: unknown binary operator " + x.Op) // the parser builds no other
	}
	// A literal operand still costs its step but needs no call.
	if rv, ok := literal(x.R); ok {
		return func(f *frame) (Value, error) {
			in := f.in
			if err := in.step(); err != nil {
				return Undefined(), err
			}
			lv, err := l(f)
			if err != nil {
				return Undefined(), err
			}
			if err := in.step(); err != nil {
				return Undefined(), err
			}
			return op.apply(lv, rv), nil
		}
	}
	return func(f *frame) (Value, error) {
		if err := f.in.step(); err != nil {
			return Undefined(), err
		}
		lv, err := l(f)
		if err != nil {
			return Undefined(), err
		}
		rv, err := r(f)
		if err != nil {
			return Undefined(), err
		}
		return op.apply(lv, rv), nil
	}
}

// literal reports the value of a literal expression.
func literal(e Expr) (Value, bool) {
	switch x := e.(type) {
	case *NumberLit:
		return Number(x.Value), true
	case *StringLit:
		return String(x.Value), true
	case *BoolLit:
		return Boolean(x.Value), true
	case *NullLit:
		return Null(), true
	case *UndefinedLit:
		return Undefined(), true
	}
	return Value{}, false
}

// binop is an eager binary operator, chosen at compile time.
type binop uint8

const (
	opAdd binop = iota
	opSub
	opMul
	opDiv
	opMod
	opLooseEq
	opLooseNe
	opStrictEq
	opStrictNe
	opLt
	opGt
	opLe
	opGe
	opBitAnd
	opBitOr
	opBitXor
	opShl
	opShr
	opIn
)

var binops = map[string]binop{
	"+": opAdd, "-": opSub, "*": opMul, "/": opDiv, "%": opMod,
	"==": opLooseEq, "!=": opLooseNe, "===": opStrictEq, "!==": opStrictNe,
	"<": opLt, ">": opGt, "<=": opLe, ">=": opGe,
	"&": opBitAnd, "|": opBitOr, "^": opBitXor, "<<": opShl, ">>": opShr,
	"in": opIn,
}

// apply computes l op r.
func (op binop) apply(l, r Value) Value {
	if l.kind == KindNumber && r.kind == KindNumber {
		return op.numbers(l.num, r.num)
	}
	switch op {
	case opAdd:
		if l.kind == KindString || r.kind == KindString ||
			(l.kind == KindObject && !l.IsCallable()) || (r.kind == KindObject && !r.IsCallable()) {
			return String(l.Str() + r.Str())
		}
	case opLooseEq:
		return Boolean(LooseEquals(l, r))
	case opLooseNe:
		return Boolean(!LooseEquals(l, r))
	case opStrictEq:
		return Boolean(StrictEquals(l, r))
	case opStrictNe:
		return Boolean(!StrictEquals(l, r))
	case opLt, opGt, opLe, opGe:
		if l.kind == KindString && r.kind == KindString {
			return op.strings(l.str, r.str)
		}
	case opIn:
		if r.kind == KindObject && r.obj.Props != nil {
			_, ok := r.obj.Props[l.Str()]
			return Boolean(ok)
		}
		return Boolean(false)
	}
	return op.numbers(l.Num(), r.Num())
}

// numbers computes a op b for numeric operands. Number equality is the
// same loose or strict.
func (op binop) numbers(a, b float64) Value {
	switch op {
	case opAdd:
		return Number(a + b)
	case opSub:
		return Number(a - b)
	case opMul:
		return Number(a * b)
	case opDiv:
		return Number(a / b)
	case opMod:
		return Number(math.Mod(a, b))
	case opLooseEq, opStrictEq:
		return Boolean(a == b)
	case opLooseNe, opStrictNe:
		return Boolean(a != b)
	case opLt:
		return Boolean(a < b)
	case opGt:
		return Boolean(a > b)
	case opLe:
		return Boolean(a <= b)
	case opGe:
		return Boolean(a >= b)
	case opBitAnd:
		return Number(float64(toInt32(a) & toInt32(b)))
	case opBitOr:
		return Number(float64(toInt32(a) | toInt32(b)))
	case opBitXor:
		return Number(float64(toInt32(a) ^ toInt32(b)))
	case opShl:
		return Number(float64(toInt32(a) << (uint32(toInt32(b)) & 31)))
	case opShr:
		return Number(float64(toInt32(a) >> (uint32(toInt32(b)) & 31)))
	}
	return Boolean(false) // opIn on two numbers: a number has no properties
}

func (op binop) strings(a, b string) Value {
	switch op {
	case opLt:
		return Boolean(a < b)
	case opGt:
		return Boolean(a > b)
	case opLe:
		return Boolean(a <= b)
	}
	return Boolean(a >= b)
}

// call compiles f(args), binding this for a member or index callee.
func (c *compiler) call(x *Call) code {
	args := c.exprs(x.Args)
	switch callee := x.Fn.(type) {
	case *Member:
		obj, key := c.expr(callee.X), newPropKey(callee.Name)
		return func(f *frame) (Value, error) {
			in := f.in
			if err := in.step(); err != nil {
				return Undefined(), err
			}
			this, err := obj(f)
			if err != nil {
				return Undefined(), err
			}
			fn, err := in.getProp(this, key)
			if err != nil {
				return Undefined(), err
			}
			if fn.IsUndefined() {
				return Undefined(), rtErrf("%s.%s is not a function", this.TypeOf(), key.name)
			}
			return in.call(fn, this, args, f)
		}
	case *Index:
		obj, idx := c.expr(callee.X), c.expr(callee.I)
		return func(f *frame) (Value, error) {
			in := f.in
			if err := in.step(); err != nil {
				return Undefined(), err
			}
			this, err := obj(f)
			if err != nil {
				return Undefined(), err
			}
			i, err := idx(f)
			if err != nil {
				return Undefined(), err
			}
			fn, err := in.getIndex(this, i)
			if err != nil {
				return Undefined(), err
			}
			return in.call(fn, this, args, f)
		}
	}
	callee := c.expr(x.Fn)
	return func(f *frame) (Value, error) {
		in := f.in
		if err := in.step(); err != nil {
			return Undefined(), err
		}
		fn, err := callee(f)
		if err != nil {
			return Undefined(), err
		}
		return in.call(fn, Undefined(), args, f)
	}
}

func (c *compiler) newExpr(x *NewExpr) code {
	callee, args := c.expr(x.Fn), c.exprs(x.Args)
	return func(f *frame) (Value, error) {
		in := f.in
		if err := in.step(); err != nil {
			return Undefined(), err
		}
		fn, err := callee(f)
		if err != nil {
			return Undefined(), err
		}
		vals, err := evalAll(args, f)
		if err != nil {
			return Undefined(), err
		}
		if !fn.IsCallable() {
			return Undefined(), rtErrf("constructor is not callable")
		}
		this := NewObject()
		ret, err := in.CallValue(fn, this, vals)
		if err != nil {
			return Undefined(), err
		}
		if ret.Kind() == KindObject {
			return ret, nil
		}
		return this, nil
	}
}
