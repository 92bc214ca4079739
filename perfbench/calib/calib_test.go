package calib

import (
	"go/parser"
	"go/token"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

func TestKernelAllocatesNothing(t *testing.T) {
	k := NewKernel()
	if n := testing.AllocsPerRun(3, func() { k.Run() }); n != 0 {
		t.Fatalf("kernel allocates %v times per run", n)
	}
}

func TestKernelIsDeterministic(t *testing.T) {
	a, b := NewKernel(), NewKernel()
	a.work()
	b.work()
	if a.sink != b.sink || a.sink == 0 {
		t.Fatalf("kernel results differ or vanish: %v vs %v", a.sink, b.sink)
	}
	if ns := a.Run(); ns <= 0 {
		t.Fatalf("kernel thread CPU time %d", ns)
	}
}

// TestStdlibOnly keeps the kernel out of reach of the program under
// test: a repository import would let a change to the program change
// the reference.
func TestStdlibOnly(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "calib.go", nil, parser.ImportsOnly)
	if err != nil {
		t.Fatal(err)
	}
	for _, imp := range f.Imports {
		path, _ := strconv.Unquote(imp.Path.Value)
		if strings.Contains(strings.SplitN(path, "/", 2)[0], ".") || strings.HasPrefix(path, "earlybird") {
			t.Errorf("calib imports %s; only the standard library is allowed", path)
		}
	}
}

func TestClocksAdvance(t *testing.T) {
	runtime.LockOSThread() // the thread clock belongs to one OS thread
	defer runtime.UnlockOSThread()
	p0, t0 := ProcessCPU(), ThreadCPU()
	NewKernel().work()
	if ProcessCPU() <= p0 || ThreadCPU() <= t0 {
		t.Fatal("CPU clocks did not advance over a kernel run")
	}
}
