package jsvm

import (
	"math"
	"strings"
)

// maxArrayLength caps how far an index write or a length assignment may
// grow an array in one go, as repeat caps string growth: a[1e9] = 0
// fails with a RuntimeError instead of allocating gigabytes.
const maxArrayLength = 1 << 20

// method is a built-in method of strings, arrays, numbers or plain
// objects. Its Go code is shared by every interpreter; each interpreter
// wraps it in a native function value once, on first use.
type method struct {
	id int
	fn func(in *Interp, this Value, args []Value) (Value, error)
}

// methodSet holds the built-in methods that share one name, per
// receiver kind (nil where that kind has none).
type methodSet struct {
	str, arr, num, obj *method
}

// methodsByName indexes every built-in method by name. It is filled at
// package initialization and read-only afterwards.
var methodsByName = map[string]*methodSet{}

var noMethods methodSet

// methodCount is the number of built-in methods, the size of each
// interpreter's method cache.
var methodCount int

func defineMethods(pick func(*methodSet) **method, fns map[string]func(in *Interp, this Value, args []Value) (Value, error)) {
	for name, fn := range fns {
		set := methodsByName[name]
		if set == nil {
			set = &methodSet{}
			methodsByName[name] = set
		}
		*pick(set) = &method{id: methodCount, fn: fn}
		methodCount++
	}
}

func init() {
	defineMethods(func(s *methodSet) **method { return &s.str }, stringMethods)
	defineMethods(func(s *methodSet) **method { return &s.num }, numberMethods)
	defineMethods(func(s *methodSet) **method { return &s.obj }, objectMethods)
	defineMethods(func(s *methodSet) **method { return &s.arr }, arrayMethods)
}

// method returns the interpreter's native value for m, making it on
// first use.
func (in *Interp) method(m *method) Value {
	if in.methods == nil {
		in.methods = make([]Value, methodCount)
	}
	if v := in.methods[m.id]; v.obj != nil {
		return v
	}
	fn := m.fn
	v := NewNative(func(this Value, args []Value) (Value, error) { return fn(in, this, args) })
	v.obj.method = m
	in.methods[m.id] = v
	return v
}

// propKey is a property name with its built-in methods looked up. A
// member expression's key is made once at compile time; a computed
// property's key is made, lazily, per access.
type propKey struct {
	name     string
	methods  *methodSet
	resolved bool
}

func newPropKey(name string) *propKey {
	return &propKey{name: name, methods: methodsByName[name], resolved: true}
}

func (k *propKey) builtins() *methodSet {
	if !k.resolved {
		k.methods, k.resolved = methodsByName[k.name], true
	}
	if k.methods == nil {
		return &noMethods
	}
	return k.methods
}

// getProp implements obj.name for every value kind, including primitive
// string/array methods and host-object dispatch.
func (in *Interp) getProp(v Value, k *propKey) (Value, error) {
	switch v.kind {
	case KindString:
		if k.name == "length" {
			return Number(float64(len(v.str))), nil
		}
		if m := k.builtins().str; m != nil {
			return in.method(m), nil
		}
		return Undefined(), nil
	case KindObject:
		o := v.obj
		switch {
		case o.Host != nil:
			if pv, ok := o.Host.HostGet(k.name); ok {
				return pv, nil
			}
			return Undefined(), nil
		case o.IsArray:
			if k.name == "length" {
				return Number(float64(len(o.Elems))), nil
			}
			if m := k.builtins().arr; m != nil {
				return in.method(m), nil
			}
			return Undefined(), nil
		default:
			if o.Props != nil {
				if pv, ok := o.Props[k.name]; ok {
					return pv, nil
				}
			}
			if m := k.builtins().obj; m != nil {
				return in.method(m), nil
			}
			return Undefined(), nil
		}
	case KindNumber:
		if m := k.builtins().num; m != nil {
			return in.method(m), nil
		}
		return Undefined(), nil
	case KindUndefined, KindNull:
		return Undefined(), rtErrf("cannot read property %q of %s", k.name, v.Str())
	}
	return Undefined(), nil
}

// getIndex implements obj[i].
func (in *Interp) getIndex(v Value, idx Value) (Value, error) {
	if v.kind == KindString && idx.kind == KindNumber {
		i := int(idx.num)
		if i >= 0 && i < len(v.str) {
			return String(v.str[i : i+1]), nil
		}
		return Undefined(), nil
	}
	if v.kind == KindObject && v.obj.IsArray && idx.kind == KindNumber {
		i := int(idx.num)
		if i >= 0 && i < len(v.obj.Elems) {
			return v.obj.Elems[i], nil
		}
		return Undefined(), nil
	}
	return in.getProp(v, &propKey{name: idx.Str()})
}

// setProp implements obj.name = val.
func setProp(v Value, name string, val Value) error {
	if v.kind != KindObject {
		return rtErrf("cannot set property %q on %s", name, v.TypeOf())
	}
	o := v.obj
	if o.Host != nil {
		o.Host.HostSet(name, val) // hosts may silently reject, like DOM
		return nil
	}
	if o.IsArray && name == "length" {
		n := int(val.Num())
		if n < 0 {
			n = 0
		}
		if n > maxArrayLength {
			return rtErrf("invalid array length")
		}
		if n > len(o.Elems) {
			o.Elems = append(o.Elems, make([]Value, n-len(o.Elems))...)
		}
		o.Elems = o.Elems[:n]
		return nil
	}
	if o.Props == nil {
		o.Props = map[string]Value{}
	}
	o.Props[name] = val
	return nil
}

// setIndex implements obj[i] = val.
func setIndex(v Value, idx Value, val Value) error {
	if v.kind == KindObject && v.obj.IsArray && idx.kind == KindNumber {
		i := int(idx.num)
		if i < 0 {
			return rtErrf("negative array index")
		}
		if i >= maxArrayLength {
			return rtErrf("invalid array length")
		}
		o := v.obj
		if i >= len(o.Elems) {
			o.Elems = append(o.Elems, make([]Value, i+1-len(o.Elems))...)
		}
		o.Elems[i] = val
		return nil
	}
	return setProp(v, idx.Str(), val)
}

func normIndex(i, n int, allowNegative bool) int {
	if i < 0 {
		if allowNegative {
			i += n
		}
		if i < 0 {
			i = 0
		}
	}
	if i > n {
		i = n
	}
	return i
}

func argInt(args []Value) int {
	if len(args) > 0 {
		return int(args[0].Num())
	}
	return 0
}

// sliceString implements slice (negative indices count from the end)
// and substring (they clamp to 0, and reversed bounds swap).
func sliceString(this Value, args []Value, isSlice bool) (Value, error) {
	str := this.Str()
	start, end := 0, len(str)
	if len(args) > 0 {
		start = normIndex(int(args[0].Num()), len(str), isSlice)
	}
	if len(args) > 1 && !args[1].IsUndefined() {
		end = normIndex(int(args[1].Num()), len(str), isSlice)
	}
	if start > end {
		if !isSlice {
			start, end = end, start
		} else {
			return String(""), nil
		}
	}
	return String(str[start:end]), nil
}

// String methods.
var stringMethods = map[string]func(*Interp, Value, []Value) (Value, error){
	"charCodeAt": func(in *Interp, this Value, args []Value) (Value, error) {
		i, str := argInt(args), this.Str()
		if i < 0 || i >= len(str) {
			return Number(math.NaN()), nil
		}
		return Number(float64(str[i])), nil
	},
	"charAt": func(in *Interp, this Value, args []Value) (Value, error) {
		i, str := argInt(args), this.Str()
		if i < 0 || i >= len(str) {
			return String(""), nil
		}
		return String(str[i : i+1]), nil
	},
	"indexOf": func(in *Interp, this Value, args []Value) (Value, error) {
		if len(args) == 0 {
			return Number(-1), nil
		}
		return Number(float64(strings.Index(this.Str(), args[0].Str()))), nil
	},
	"lastIndexOf": func(in *Interp, this Value, args []Value) (Value, error) {
		if len(args) == 0 {
			return Number(-1), nil
		}
		return Number(float64(strings.LastIndex(this.Str(), args[0].Str()))), nil
	},
	"includes": func(in *Interp, this Value, args []Value) (Value, error) {
		if len(args) == 0 {
			return Boolean(false), nil
		}
		return Boolean(strings.Contains(this.Str(), args[0].Str())), nil
	},
	"startsWith": func(in *Interp, this Value, args []Value) (Value, error) {
		if len(args) == 0 {
			return Boolean(false), nil
		}
		return Boolean(strings.HasPrefix(this.Str(), args[0].Str())), nil
	},
	"endsWith": func(in *Interp, this Value, args []Value) (Value, error) {
		if len(args) == 0 {
			return Boolean(false), nil
		}
		return Boolean(strings.HasSuffix(this.Str(), args[0].Str())), nil
	},
	"slice": func(in *Interp, this Value, args []Value) (Value, error) {
		return sliceString(this, args, true)
	},
	"substring": func(in *Interp, this Value, args []Value) (Value, error) {
		return sliceString(this, args, false)
	},
	"toUpperCase": func(in *Interp, this Value, args []Value) (Value, error) {
		return String(strings.ToUpper(this.Str())), nil
	},
	"toLowerCase": func(in *Interp, this Value, args []Value) (Value, error) {
		return String(strings.ToLower(this.Str())), nil
	},
	"trim": func(in *Interp, this Value, args []Value) (Value, error) {
		return String(strings.TrimSpace(this.Str())), nil
	},
	"split": func(in *Interp, this Value, args []Value) (Value, error) {
		str := this.Str()
		if len(args) == 0 {
			return NewArray(String(str)), nil
		}
		parts := strings.Split(str, args[0].Str())
		out := make([]Value, len(parts))
		for i, p := range parts {
			out[i] = String(p)
		}
		return NewArray(out...), nil
	},
	"replace": func(in *Interp, this Value, args []Value) (Value, error) {
		if len(args) < 2 {
			return this, nil
		}
		return String(strings.Replace(this.Str(), args[0].Str(), args[1].Str(), 1)), nil
	},
	"repeat": func(in *Interp, this Value, args []Value) (Value, error) {
		n := argInt(args)
		if n < 0 || n > 1<<20 {
			return Undefined(), rtErrf("invalid repeat count")
		}
		return String(strings.Repeat(this.Str(), n)), nil
	},
	"concat": func(in *Interp, this Value, args []Value) (Value, error) {
		out := this.Str()
		for _, a := range args {
			out += a.Str()
		}
		return String(out), nil
	},
	"toString": valueToString,
}

func valueToString(in *Interp, this Value, args []Value) (Value, error) {
	return String(this.Str()), nil
}

// Number methods.
var numberMethods = map[string]func(*Interp, Value, []Value) (Value, error){
	"toFixed": func(in *Interp, this Value, args []Value) (Value, error) {
		digits := argInt(args)
		if digits < 0 || digits > 20 {
			digits = 0
		}
		mult := math.Pow(10, float64(digits))
		r := math.Floor(this.Num()*mult+0.5) / mult
		s := formatNumber(r)
		if digits > 0 && !strings.Contains(s, ".") {
			s += "." + strings.Repeat("0", digits)
		}
		return String(s), nil
	},
	"toString": valueToString,
}

// Plain-object methods, consulted after the object's own properties.
var objectMethods = map[string]func(*Interp, Value, []Value) (Value, error){
	"hasOwnProperty": func(in *Interp, this Value, args []Value) (Value, error) {
		if len(args) == 0 || this.Object() == nil || this.Object().Props == nil {
			return Boolean(false), nil
		}
		_, ok := this.Object().Props[args[0].Str()]
		return Boolean(ok), nil
	},
}

// Array methods. forEach, map, filter and reduce re-enter the
// interpreter to run their callbacks.
var arrayMethods = map[string]func(*Interp, Value, []Value) (Value, error){
	"push": func(in *Interp, this Value, args []Value) (Value, error) {
		to := this.Object()
		if to == nil {
			return Undefined(), rtErrf("push on non-array")
		}
		to.Elems = append(to.Elems, args...)
		return Number(float64(len(to.Elems))), nil
	},
	"pop": func(in *Interp, this Value, args []Value) (Value, error) {
		to := this.Object()
		if to == nil || len(to.Elems) == 0 {
			return Undefined(), nil
		}
		last := to.Elems[len(to.Elems)-1]
		to.Elems = to.Elems[:len(to.Elems)-1]
		return last, nil
	},
	"join": func(in *Interp, this Value, args []Value) (Value, error) {
		sep := ","
		if len(args) > 0 {
			sep = args[0].Str()
		}
		return String(joinArray(this.Object(), sep, nil)), nil
	},
	"indexOf": func(in *Interp, this Value, args []Value) (Value, error) {
		to := this.Object()
		if len(args) > 0 {
			for i, e := range to.Elems {
				if StrictEquals(e, args[0]) {
					return Number(float64(i)), nil
				}
			}
		}
		return Number(-1), nil
	},
	"includes": func(in *Interp, this Value, args []Value) (Value, error) {
		to := this.Object()
		if len(args) > 0 {
			for _, e := range to.Elems {
				if StrictEquals(e, args[0]) {
					return Boolean(true), nil
				}
			}
		}
		return Boolean(false), nil
	},
	"slice": func(in *Interp, this Value, args []Value) (Value, error) {
		to := this.Object()
		start, end := 0, len(to.Elems)
		if len(args) > 0 {
			start = normIndex(int(args[0].Num()), len(to.Elems), true)
		}
		if len(args) > 1 && !args[1].IsUndefined() {
			end = normIndex(int(args[1].Num()), len(to.Elems), true)
		}
		if start > end {
			start = end
		}
		cp := make([]Value, end-start)
		copy(cp, to.Elems[start:end])
		return NewArray(cp...), nil
	},
	"concat": func(in *Interp, this Value, args []Value) (Value, error) {
		to := this.Object()
		out := make([]Value, len(to.Elems))
		copy(out, to.Elems)
		for _, a := range args {
			if a.IsArray() {
				out = append(out, a.Object().Elems...)
			} else {
				out = append(out, a)
			}
		}
		return NewArray(out...), nil
	},
	"reverse": func(in *Interp, this Value, args []Value) (Value, error) {
		to := this.Object()
		for i, j := 0, len(to.Elems)-1; i < j; i, j = i+1, j-1 {
			to.Elems[i], to.Elems[j] = to.Elems[j], to.Elems[i]
		}
		return this, nil
	},
	"forEach": func(in *Interp, this Value, args []Value) (Value, error) {
		o := this.Object()
		if o == nil || len(args) == 0 {
			return Undefined(), nil
		}
		for i, e := range o.Elems {
			if _, err := in.CallValue(args[0], Undefined(), []Value{e, Number(float64(i)), this}); err != nil {
				return Undefined(), err
			}
		}
		return Undefined(), nil
	},
	"map": func(in *Interp, this Value, args []Value) (Value, error) {
		o := this.Object()
		if o == nil || len(args) == 0 {
			return NewArray(), nil
		}
		out := make([]Value, len(o.Elems))
		for i, e := range o.Elems {
			v, err := in.CallValue(args[0], Undefined(), []Value{e, Number(float64(i)), this})
			if err != nil {
				return Undefined(), err
			}
			out[i] = v
		}
		return NewArray(out...), nil
	},
	"filter": func(in *Interp, this Value, args []Value) (Value, error) {
		o := this.Object()
		if o == nil || len(args) == 0 {
			return NewArray(), nil
		}
		var out []Value
		for i, e := range o.Elems {
			keep, err := in.CallValue(args[0], Undefined(), []Value{e, Number(float64(i)), this})
			if err != nil {
				return Undefined(), err
			}
			if keep.Bool() {
				out = append(out, e)
			}
		}
		return NewArray(out...), nil
	},
	"reduce": func(in *Interp, this Value, args []Value) (Value, error) {
		o := this.Object()
		if o == nil || len(args) == 0 {
			return Undefined(), rtErrf("reduce needs a callback")
		}
		acc := Undefined()
		start := 0
		if len(args) > 1 {
			acc = args[1]
		} else {
			if len(o.Elems) == 0 {
				return Undefined(), rtErrf("reduce of empty array with no initial value")
			}
			acc = o.Elems[0]
			start = 1
		}
		for i := start; i < len(o.Elems); i++ {
			v, err := in.CallValue(args[0], Undefined(), []Value{acc, o.Elems[i], Number(float64(i)), this})
			if err != nil {
				return Undefined(), err
			}
			acc = v
		}
		return acc, nil
	},
}
