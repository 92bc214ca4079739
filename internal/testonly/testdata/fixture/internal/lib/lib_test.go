package lib

import "testing"

func TestEverything(t *testing.T) {
	var v Value
	_ = ExportedOnlyTests() + v.MethodOnlyTests() + unexportedOnlyTests() + recursiveOnlyTests(2)
	_ = v.String() + CalledByCaller().String()
	var s Sizer = &v
	_ = s.Size()
}
