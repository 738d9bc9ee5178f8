package seamless

import "fmt"

// Value is a boxed runtime value, the currency of the interpreter and of
// the call boundary into compiled code.
type Value struct {
	K  Type
	I  int64
	F  float64
	B  bool
	AF []float64
	AI []int64
}

// IntV boxes an int64.
func IntV(v int64) Value { return Value{K: TInt, I: v} }

// FloatV boxes a float64.
func FloatV(v float64) Value { return Value{K: TFloat, F: v} }

// BoolV boxes a bool.
func BoolV(v bool) Value { return Value{K: TBool, B: v} }

// ArrFV boxes a float64 slice (shared, not copied).
func ArrFV(v []float64) Value { return Value{K: TArrFloat, AF: v} }

// ArrIV boxes an int64 slice (shared, not copied).
func ArrIV(v []int64) Value { return Value{K: TArrInt, AI: v} }

// NoneV is the absent return value.
func NoneV() Value { return Value{K: TNone} }

// AsFloat widens a numeric value to float64.
func (v Value) AsFloat() float64 {
	switch v.K {
	case TFloat:
		return v.F
	case TInt:
		return float64(v.I)
	}
	panic(fmt.Sprintf("seamless: %v is not numeric", v.K))
}

// AsInt narrows a numeric value to int64 (floats truncate toward zero).
func (v Value) AsInt() int64 {
	switch v.K {
	case TInt:
		return v.I
	case TFloat:
		return int64(v.F)
	}
	panic(fmt.Sprintf("seamless: %v is not numeric", v.K))
}

func (v Value) String() string {
	switch v.K {
	case TInt:
		return fmt.Sprintf("%d", v.I)
	case TFloat:
		return fmt.Sprintf("%g", v.F)
	case TBool:
		return fmt.Sprintf("%t", v.B)
	case TArrFloat:
		return fmt.Sprintf("float[%d]", len(v.AF))
	case TArrInt:
		return fmt.Sprintf("int[%d]", len(v.AI))
	case TNone:
		return "None"
	}
	return "unknown"
}
