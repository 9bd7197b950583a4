package jsvm

// The resolver maps every identifier to the frame slots that may hold
// it, so compiled code reads and writes variables by index instead of
// walking string-keyed scope maps.
//
// The dialect's scoping rules, which the resolver encodes, are:
//
//   - the program's top level is the global scope, a map shared by every
//     script run on one interpreter (hosts add to it with SetGlobal and
//     assigning an undeclared name creates a global);
//   - every block, for statement, try/catch/finally clause and function
//     call opens a scope of its own, even for var;
//   - nothing is hoisted: a name is bound from the moment its var or
//     function statement runs, so a read before that point falls
//     through to an enclosing binding or to the globals;
//   - a function call binds its parameters, then this, then arguments,
//     then the function's own name.
//
// A scope that binds nothing has no frame at run time.

// kindUnset marks a frame slot whose var statement has not run yet: the
// per-slot declared bit. It never escapes a frame.
const kindUnset Kind = 0xff

// frame is the run-time storage of one scope. Frames belong to one
// interpreter run; compiled code only ever indexes them.
type frame struct {
	in     *Interp
	parent *frame
	slots  []Value
}

// newFrame allocates a frame whose slots start as a copy of init, the
// scope's template of unset var slots. Small frames come in one
// allocation with their slots.
func newFrame(in *Interp, parent *frame, init []Value) *frame {
	var f *frame
	switch n := len(init); {
	case n == 0:
		return &frame{in: in, parent: parent}
	case n <= 2:
		x := &struct {
			frame
			s [2]Value
		}{}
		x.slots, f = x.s[:n], &x.frame
	case n <= 4:
		x := &struct {
			frame
			s [4]Value
		}{}
		x.slots, f = x.s[:n], &x.frame
	case n <= 8:
		x := &struct {
			frame
			s [8]Value
		}{}
		x.slots, f = x.s[:n], &x.frame
	default:
		f = &frame{slots: make([]Value, n)}
	}
	f.in, f.parent = in, parent
	copy(f.slots, init)
	return f
}

// scope is the compile-time view of one scope.
type scope struct {
	parent *scope
	names  map[string]int // name → slot
	always []bool         // per slot: bound for the frame's whole life
	global bool           // the program scope: names live in the globals map
	frame  bool           // a frame exists at run time
	fn     *function      // the function whose call opens this scope
	fnName string
}

func newScope(parent *scope) *scope {
	return &scope{parent: parent, names: map[string]int{}}
}

// slot returns name's slot, adding one when the scope has none yet.
func (s *scope) slot(name string) int {
	if i, ok := s.names[name]; ok {
		return i
	}
	s.names[name] = len(s.always)
	s.always = append(s.always, false)
	return len(s.always) - 1
}

// declareAll adds a slot for every name the statements bind with var in
// this scope itself: nested blocks, for statements and try clauses are
// scopes of their own, but the bodies of if and while are not.
func (s *scope) declareAll(stmts []Stmt) {
	for _, st := range stmts {
		s.declare(st)
	}
}

func (s *scope) declare(st Stmt) {
	switch x := st.(type) {
	case *VarDecl:
		for _, n := range x.Names {
			s.slot(n)
		}
	case *IfStmt:
		s.declare(x.Then)
		if x.Else != nil {
			s.declare(x.Else)
		}
	case *WhileStmt:
		s.declare(x.Body)
	}
}

// implicit returns the slot of a name every call of s's function binds
// (this, arguments, the function's own name), marking the call to bind
// it. Only functions that mention such a name pay for binding it.
func (s *scope) implicit(name string) int {
	i := s.slot(name)
	s.always[i] = true
	if name == "this" {
		s.fn.thisSlot = i
	}
	if name == "arguments" {
		s.fn.argsSlot = i
	}
	if name == s.fnName {
		s.fn.nameSlot = i
	}
	return i
}

// template is the initial content of the scope's frames: var slots
// unset, slots a call or catch binds at once left for it to fill.
func (s *scope) template() []Value {
	init := make([]Value, len(s.always))
	for i, always := range s.always {
		if !always {
			init[i].kind = kindUnset
		}
	}
	return init
}

// binding is one frame slot a name may live in: depth frames up from
// the running one.
type binding struct {
	depth, slot int
	always      bool // bound for the frame's whole life: no declared check
}

func (b binding) at(f *frame) *Value {
	for d := b.depth; d > 0; d-- {
		f = f.parent
	}
	return &f.slots[b.slot]
}

// ref is a resolved identifier: the slots that may bind it, innermost
// first, then the globals map.
type ref struct {
	name  string
	binds []binding
}

// resolve maps name, as seen from scope s, to a ref.
func resolve(s *scope, name string) *ref {
	r := &ref{name: name}
	depth := 0
	for ; s != nil; s = s.parent {
		if s.fn != nil && (name == "this" || name == "arguments" || name == s.fnName) {
			r.binds = append(r.binds, binding{depth, s.implicit(name), true})
			return r
		}
		if i, ok := s.names[name]; ok {
			r.binds = append(r.binds, binding{depth, i, s.always[i]})
			if s.always[i] {
				return r
			}
		}
		if s.frame {
			depth++
		}
	}
	return r
}

// lookup returns the innermost bound slot for r, if any.
func (r *ref) lookup(f *frame) (*Value, bool) {
	for _, b := range r.binds {
		if p := b.at(f); p.kind != kindUnset {
			return p, true
		}
	}
	return nil, false
}

// get reads r from its bound slot or the globals.
func (r *ref) get(f *frame) (Value, bool) {
	if p, ok := r.lookup(f); ok {
		return *p, true
	}
	v, ok := f.in.globals[r.name]
	return v, ok
}

// read is get for an identifier expression: an unbound name is an error.
func (r *ref) read(f *frame) (Value, error) {
	if v, ok := r.get(f); ok {
		return v, nil
	}
	return Undefined(), rtErrf("%s is not defined", r.name)
}

// set writes r's bound slot, or the global of that name (creating it,
// as sloppy-mode JS does).
func (r *ref) set(f *frame, v Value) {
	if p, ok := r.lookup(f); ok {
		*p = v
		return
	}
	f.in.globals[r.name] = v
}
