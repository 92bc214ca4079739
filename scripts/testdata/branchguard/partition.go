// Package branchguard is the fixture of scripts/lint_asm_test.sh: the
// same partition loop with its index advanced by a flag and by an if
// (partition.go, a float compare), and the same keyed merge with its
// take selected by a flag and by an if (merge.go, an integer compare).
// The amd64 build compiles each second form to a compare and a
// conditional jump, which scripts/lint_asm.sh branchless must report.
package branchguard

// Branchless moves the elements of s below v to its front as
// sortx.partitionBelow does: the compare feeds a SETcc.
func Branchless(s []float64, v float64) int {
	j := 0
	for i, x := range s {
		s[i], s[j] = s[j], x
		inc := 0
		if x < v {
			inc = 1
		}
		j += inc
	}
	return j
}

// Branchy is Branchless with the index advanced inside the if.
func Branchy(s []float64, v float64) int {
	j := 0
	for i, x := range s {
		s[i], s[j] = s[j], x
		if x < v {
			j++
		}
	}
	return j
}
