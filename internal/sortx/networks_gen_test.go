package sortx

import (
	"bytes"
	"flag"
	"fmt"
	"go/format"
	"os"
	"strings"
	"testing"
)

var updateGenerated = flag.Bool("update", false, "rewrite networks.go and kernel_amd64.s from their generators")

// networkSizes are the widths networks.go unrolls; sortRun pads every
// other run of up to networkMax keys to the next of them.
var networkSizes = []int{8, 16, 24, 32}

// batcher returns the compare-exchange pairs of Batcher's odd-even
// mergesort on n elements, in the bottom-up order that merges sorted runs
// of p into runs of 2p for p = 1, 2, 4, ... (the comparator order of the
// unrolled networks). The network is built for the next power of two and
// every pair that reaches index n is dropped: those comparators would
// only ever meet padding (math.MaxInt64 keys in sortRun, +Inf in the
// float reference of TestSortBitIdentical).
func batcher(n int) [][2]int {
	w := 1
	for w < n {
		w *= 2
	}
	var pairs [][2]int
	for p := 1; p < w; p *= 2 {
		for k := p; k >= 1; k /= 2 {
			for j := k % p; j+k < w; j += 2 * k {
				for i := 0; i < k && i+j+k < n; i++ {
					if (i+j)/(2*p) == (i+j+k)/(2*p) {
						pairs = append(pairs, [2]int{i + j, i + j + k})
					}
				}
			}
		}
	}
	return pairs
}

// renderNetworks returns the gofmt'd source of networks.go. Each
// network loads its keys into locals v0 … vN-1, eight to a statement, so
// the compiler can keep them in registers, runs its compare-exchanges on
// them as int64 min and max (CMPQ and two CMOVs, no branch), and stores
// them back once.
func renderNetworks() ([]byte, error) {
	var b bytes.Buffer
	b.WriteString("// Code generated by \"go test ./internal/sortx -run TestNetworksGenerated -update\"; DO NOT EDIT.\n")
	b.WriteString("// The generator is batcher in networks_gen_test.go.\n\npackage sortx\n")
	for _, n := range networkSizes {
		pairs := batcher(n)
		// vars and slots are lines of eight locals and of their array
		// elements.
		var vars, slots []string
		for lo := 0; lo < n; lo += 8 {
			var vs, ps []string
			for i := lo; i < lo+8; i++ {
				vs = append(vs, fmt.Sprintf("v%d", i))
				ps = append(ps, fmt.Sprintf("p[%d]", i))
			}
			vars = append(vars, strings.Join(vs, ", "))
			slots = append(slots, strings.Join(ps, ", "))
		}
		fmt.Fprintf(&b, "\n// network%d sorts the keys p[0:%d] with %d compare-exchange operations.\n", n, n, len(pairs))
		fmt.Fprintf(&b, "func network%d(p *[%d]int64) {\n", n, n)
		for i := range vars {
			fmt.Fprintf(&b, "\t%s := %s\n", vars[i], slots[i])
		}
		for _, c := range pairs {
			fmt.Fprintf(&b, "\tv%[1]d, v%[2]d = min(v%[1]d, v%[2]d), max(v%[1]d, v%[2]d)\n", c[0], c[1])
		}
		for i := range vars {
			fmt.Fprintf(&b, "\t%s = %s\n", slots[i], vars[i])
		}
		b.WriteString("}\n")
	}
	return format.Source(b.Bytes())
}

// TestNetworksGenerated fails when networks.go is not what the generator
// renders. After an intentional change to the generator, rewrite it with
//
//	go test ./internal/sortx -run TestNetworksGenerated -update
func TestNetworksGenerated(t *testing.T) {
	want, err := renderNetworks()
	if err != nil {
		t.Fatal(err)
	}
	if *updateGenerated {
		if err := os.WriteFile("networks.go", want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile("networks.go")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("networks.go differs from the generator's output (run with -update to rewrite it)")
	}
}
