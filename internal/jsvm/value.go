package jsvm

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Kind enumerates runtime value kinds.
type Kind uint8

// Value kinds.
const (
	KindUndefined Kind = iota
	KindNull
	KindBool
	KindNumber
	KindString
	KindObject
)

// NativeFunc is a Go function callable from scripts.
type NativeFunc func(this Value, args []Value) (Value, error)

// HostObject lets a Go object participate as a script object: property
// reads (which may return bound native methods) and property writes.
type HostObject interface {
	// HostGet returns the property value and whether it exists.
	HostGet(name string) (Value, bool)
	// HostSet assigns a property, reporting whether the write was
	// accepted.
	HostSet(name string, v Value) bool
}

// Object is the heap form of arrays, plain objects, functions and host
// object wrappers.
type Object struct {
	Props   map[string]Value
	Elems   []Value
	IsArray bool
	Native  NativeFunc
	Host    HostObject

	fn     *function // compiled script function, with
	env    *frame    // the frame it closes over
	method *method   // set when Native wraps a built-in method
}

// Value is a script value. The zero Value is undefined.
type Value struct {
	kind Kind
	num  float64 // numbers, and booleans as 1 or 0
	str  string
	obj  *Object
}

// Undefined returns the undefined value.
func Undefined() Value { return Value{} }

// Null returns the null value.
func Null() Value { return Value{kind: KindNull} }

// Boolean wraps a Go bool.
func Boolean(b bool) Value {
	if b {
		return Value{kind: KindBool, num: 1}
	}
	return Value{kind: KindBool}
}

// Number wraps a float64.
func Number(f float64) Value { return Value{kind: KindNumber, num: f} }

// String wraps a Go string.
func String(s string) Value { return Value{kind: KindString, str: s} }

// NewObject returns an empty plain object.
func NewObject() Value {
	return Value{kind: KindObject, obj: &Object{Props: map[string]Value{}}}
}

// NewArray returns an array value holding elems.
func NewArray(elems ...Value) Value {
	return Value{kind: KindObject, obj: &Object{IsArray: true, Elems: elems}}
}

// NewNative wraps a Go function as a callable value.
func NewNative(fn NativeFunc) Value {
	return Value{kind: KindObject, obj: &Object{Native: fn}}
}

// NewHost wraps a HostObject.
func NewHost(h HostObject) Value {
	return Value{kind: KindObject, obj: &Object{Host: h}}
}

// Kind returns the value's kind.
func (v Value) Kind() Kind { return v.kind }

// IsUndefined reports kind == undefined.
func (v Value) IsUndefined() bool { return v.kind == KindUndefined }

// IsNullish reports undefined or null.
func (v Value) IsNullish() bool { return v.kind == KindUndefined || v.kind == KindNull }

// IsCallable reports whether Call can invoke the value.
func (v Value) IsCallable() bool {
	return v.kind == KindObject && (v.obj.fn != nil || v.obj.Native != nil)
}

// IsArray reports whether the value is an array object.
func (v Value) IsArray() bool { return v.kind == KindObject && v.obj.IsArray }

// Host returns the wrapped HostObject, or nil.
func (v Value) Host() HostObject {
	if v.kind == KindObject {
		return v.obj.Host
	}
	return nil
}

// Object returns the underlying heap object, or nil for primitives.
func (v Value) Object() *Object {
	if v.kind == KindObject {
		return v.obj
	}
	return nil
}

// Bool converts per JS truthiness.
func (v Value) Bool() bool {
	switch v.kind {
	case KindBool:
		return v.num != 0
	case KindNumber:
		return v.num != 0 && !math.IsNaN(v.num)
	case KindString:
		return v.str != ""
	case KindObject:
		return true
	}
	return false
}

// Num converts per JS ToNumber.
func (v Value) Num() float64 {
	switch v.kind {
	case KindNumber:
		return v.num
	case KindBool:
		return v.num
	case KindString:
		s := strings.TrimSpace(v.str)
		if s == "" {
			return 0
		}
		if f, err := strconv.ParseFloat(s, 64); err == nil {
			return f
		}
		return math.NaN()
	case KindNull:
		return 0
	}
	return math.NaN()
}

// Str converts per JS ToString.
func (v Value) Str() string {
	switch v.kind {
	case KindUndefined:
		return "undefined"
	case KindNull:
		return "null"
	case KindBool:
		if v.num != 0 {
			return "true"
		}
		return "false"
	case KindNumber:
		return formatNumber(v.num)
	case KindString:
		return v.str
	case KindObject:
		switch {
		case v.obj.IsArray:
			return joinArray(v.obj, ",", nil)
		case v.obj.fn != nil || v.obj.Native != nil:
			return "function () { [code] }"
		case v.obj.Host != nil:
			if s, ok := v.obj.Host.HostGet("__string__"); ok {
				return s.Str()
			}
			return "[object Object]"
		default:
			return "[object Object]"
		}
	}
	return ""
}

// joinArray renders an array's elements joined by sep, nullish ones as
// "". active holds the arrays already being rendered further up: an
// array that contains itself renders as "" at the point of the cycle,
// as browsers do, instead of recursing forever. Nesting past
// maxCallDepth renders as "" the same way, which bounds both the
// recursion and the cycle scans.
func joinArray(o *Object, sep string, active []*Object) string {
	if len(active) >= maxCallDepth {
		return ""
	}
	for _, a := range active {
		if a == o {
			return ""
		}
	}
	active = append(active, o)
	parts := make([]string, len(o.Elems))
	for i, e := range o.Elems {
		switch {
		case e.IsNullish():
		case e.kind == KindObject && e.obj.IsArray:
			parts[i] = joinArray(e.obj, ",", active)
		default:
			parts[i] = e.Str()
		}
	}
	return strings.Join(parts, sep)
}

// formatNumber renders numbers the way JavaScript does: integers without
// a decimal point, NaN/Infinity by name.
func formatNumber(f float64) string {
	switch {
	case math.IsNaN(f):
		return "NaN"
	case math.IsInf(f, 1):
		return "Infinity"
	case math.IsInf(f, -1):
		return "-Infinity"
	case f == math.Trunc(f) && math.Abs(f) < 1e21:
		return strconv.FormatFloat(f, 'f', -1, 64)
	default:
		return strconv.FormatFloat(f, 'g', -1, 64)
	}
}

// TypeOf implements the typeof operator.
func (v Value) TypeOf() string {
	switch v.kind {
	case KindUndefined:
		return "undefined"
	case KindNull:
		return "object"
	case KindBool:
		return "boolean"
	case KindNumber:
		return "number"
	case KindString:
		return "string"
	case KindObject:
		if v.IsCallable() {
			return "function"
		}
		return "object"
	}
	return "undefined"
}

// StrictEquals implements ===.
func StrictEquals(a, b Value) bool {
	if a.kind != b.kind {
		return false
	}
	switch a.kind {
	case KindUndefined, KindNull:
		return true
	case KindBool:
		return a.num == b.num
	case KindNumber:
		return a.num == b.num // NaN !== NaN falls out naturally
	case KindString:
		return a.str == b.str
	case KindObject:
		return a.obj == b.obj
	}
	return false
}

// LooseEquals implements == with the coercions scripts actually rely on.
func LooseEquals(a, b Value) bool {
	if a.kind == b.kind {
		return StrictEquals(a, b)
	}
	if a.IsNullish() && b.IsNullish() {
		return true
	}
	if a.IsNullish() != b.IsNullish() {
		return false
	}
	// Number/string/bool cross-kind: compare as numbers.
	return a.Num() == b.Num()
}

// JSONStringify implements JSON.stringify for the supported value kinds.
// Functions and host objects serialize as null (close enough to JS, which
// drops/nulls them depending on position). A cyclic value is a TypeError,
// as in browsers; objects nested past maxCallDepth are a RangeError.
func JSONStringify(v Value) (string, error) { return jsonStringify(v, nil) }

// jsonStringify serializes v; active holds the objects already being
// serialized further up, so a value that contains itself is caught.
func jsonStringify(v Value, active []*Object) (string, error) {
	switch v.kind {
	case KindUndefined:
		return "undefined", nil
	case KindNull:
		return "null", nil
	case KindBool, KindNumber:
		return v.Str(), nil
	case KindString:
		return strconv.Quote(v.str), nil
	case KindObject:
		if v.IsCallable() || v.obj.Host != nil {
			return "null", nil
		}
		if len(active) >= maxCallDepth {
			return "", &RuntimeError{Name: "RangeError", Msg: "Maximum call stack size exceeded"}
		}
		for _, a := range active {
			if a == v.obj {
				return "", &RuntimeError{Name: "TypeError", Msg: "TypeError: cyclic object value"}
			}
		}
		active = append(active, v.obj)
		if v.obj.IsArray {
			parts := make([]string, len(v.obj.Elems))
			for i, e := range v.obj.Elems {
				s, err := jsonStringify(e, active)
				if err != nil {
					return "", err
				}
				if s == "undefined" {
					s = "null"
				}
				parts[i] = s
			}
			return "[" + strings.Join(parts, ",") + "]", nil
		}
		keys := make([]string, 0, len(v.obj.Props))
		for k := range v.obj.Props {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var sb strings.Builder
		sb.WriteByte('{')
		first := true
		for _, k := range keys {
			s, err := jsonStringify(v.obj.Props[k], active)
			if err != nil {
				return "", err
			}
			if s == "undefined" {
				continue
			}
			if !first {
				sb.WriteByte(',')
			}
			first = false
			fmt.Fprintf(&sb, "%s:%s", strconv.Quote(k), s)
		}
		sb.WriteByte('}')
		return sb.String(), nil
	}
	return "null", nil
}
