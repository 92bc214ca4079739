// Package lib is the check's self-test: lib_test.go calls every
// function below, and the check must flag exactly the ones no non-test
// file of this module or of the caller module uses.
package lib

import "fmt"

// Value is a value of the fixture.
type Value struct{ n int }

// ExportedOnlyTests is flagged: only lib_test.go calls it.
func ExportedOnlyTests() int { return unexportedUsed() }

// MethodOnlyTests is flagged: only lib_test.go calls it.
func (v Value) MethodOnlyTests() int { return v.n }

// unexportedOnlyTests is flagged: only lib_test.go calls it.
func unexportedOnlyTests() int { return 2 }

// recursiveOnlyTests is flagged: its own body is not a caller.
func recursiveOnlyTests(n int) int {
	if n == 0 {
		return 0
	}
	return recursiveOnlyTests(n - 1)
}

// unexportedUsed is not flagged: ExportedOnlyTests calls it.
func unexportedUsed() int { return 1 }

// String is not flagged: it completes fmt.Stringer.
func (v Value) String() string { return fmt.Sprint(v.n) }

// Sizer is an interface of this module.
type Sizer interface{ Size() int }

// Size is not flagged: it completes Sizer.
func (v *Value) Size() int { return v.n }

// CalledByCaller is not flagged: the caller module uses it.
func CalledByCaller() Value { return Value{n: 3} }
