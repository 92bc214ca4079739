package sortx

import (
	"bytes"
	"flag"
	"fmt"
	"go/format"
	"os"
	"testing"
)

var updateNetworks = flag.Bool("update", false, "rewrite networks.go from the generator")

// networkSizes are the widths networks.go unrolls; Sort pads every other
// n <= networkMax up to the next of them.
var networkSizes = []int{8, 16, 32}

// batcher returns the compare-exchange pairs of Batcher's odd-even
// mergesort on n elements, in the bottom-up order that merges sorted runs
// of p into runs of 2p for p = 1, 2, 4, ... (the comparator order of the
// unrolled networks). The network is built for the next power of two and
// every pair that reaches index n is dropped: those comparators would
// only ever meet +Inf padding.
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

// renderNetworks returns the gofmt'd source of networks.go.
func renderNetworks() ([]byte, error) {
	var b bytes.Buffer
	b.WriteString("// Code generated by \"go test ./internal/sortx -run TestNetworksGenerated -update\"; DO NOT EDIT.\n")
	b.WriteString("// The generator is batcher in networks_gen_test.go.\n\npackage sortx\n")
	for _, n := range networkSizes {
		pairs := batcher(n)
		fmt.Fprintf(&b, "\n// network%d sorts s[:%d] with %d compare-exchange operations.\n", n, n, len(pairs))
		fmt.Fprintf(&b, "func network%d(s []float64) {\n\tp := (*[%d]float64)(s)\n", n, n)
		for _, c := range pairs {
			fmt.Fprintf(&b, "\tp[%[1]d], p[%[2]d] = min(p[%[1]d], p[%[2]d]), max(p[%[1]d], p[%[2]d])\n", c[0], c[1])
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
	if *updateNetworks {
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
