package sortx

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"os"
	"slices"
	"testing"
)

// kernelSlots is the width of the bitonic network of the AVX-512
// kernel: eight ZMM registers of eight int64 keys each.
const kernelSlots = 64

// bitonicStage is one step of a bitonic sorting network: every slot i
// with partner l = i^j > i is compare-exchanged with l, ascending (the
// smaller key to i) when i&k == 0 and descending otherwise. k is the
// width of the bitonic runs the step's phase merges, j the distance.
type bitonicStage struct{ k, j int }

// bitonicStages returns the stages of the bitonic sorting network on w
// slots, w a power of two: phases k = 2, 4, …, w, each of the steps
// j = k/2, k/4, …, 1. At w = 64 that is 21 stages: 6 with j >= 8, which
// pair whole registers, and 15 with j < 8, which pair lanes of one
// register.
func bitonicStages(w int) []bitonicStage {
	var stages []bitonicStage
	for k := 2; k <= w; k *= 2 {
		for j := k / 2; j >= 1; j /= 2 {
			stages = append(stages, bitonicStage{k, j})
		}
	}
	return stages
}

// runBitonic applies the stages to keys with int64 min and max, the
// model of what the generated kernel computes.
func runBitonic(keys []int64, stages []bitonicStage) {
	for _, st := range stages {
		for i := range keys {
			l := i ^ st.j
			if l <= i {
				continue
			}
			lo, hi := min(keys[i], keys[l]), max(keys[i], keys[l])
			if i&st.k != 0 {
				lo, hi = hi, lo
			}
			keys[i], keys[l] = lo, hi
		}
	}
}

// TestBitonicStagesSort holds the stage list the kernel is rendered
// from to slices.Sort on random keys, heavy duplicates and the
// extremes, so the network is checked on any host, with or without the
// kernel.
func TestBitonicStagesSort(t *testing.T) {
	stages := bitonicStages(kernelSlots)
	if len(stages) != 21 {
		t.Fatalf("%d stages, want 21", len(stages))
	}
	rng := rand.New(rand.NewPCG(5, 6))
	extremes := []int64{-1 << 63, -1, 0, 1, 1<<63 - 1}
	for trial := 0; trial < 2000; trial++ {
		keys := make([]int64, kernelSlots)
		for i := range keys {
			switch trial % 3 {
			case 0:
				keys[i] = int64(rng.Uint64())
			case 1:
				keys[i] = int64(rng.IntN(3))
			default:
				keys[i] = extremes[rng.IntN(len(extremes))]
			}
		}
		want := slices.Clone(keys)
		slices.Sort(want)
		runBitonic(keys, stages)
		if !slices.Equal(keys, want) {
			t.Fatalf("trial %d: the bitonic stages give %v, want %v", trial, keys, want)
		}
	}
}

// Register plan of the kernel. Logical register r (0..7) holds slots
// 8r..8r+7 and lives in bank 0 (Z0-Z7) or bank 1 (Z16-Z23); a
// cross-register stage reads one bank and writes the other. Z8-Z10
// hold the lane permutations of j = 1, 2 and 4, Z11 math.MaxInt64,
// and Z24-Z31 are the permuted copies and key-map temporaries. Z15 is
// left alone, and so are Z12-Z14.
const (
	kernelIndexReg = 8
	kernelMaxReg   = 11
	kernelTempReg  = 24
)

// kernelWriter emits the kernel's instructions and tracks which bank
// holds the keys and what each mask register K1-K7 holds.
type kernelWriter struct {
	b     bytes.Buffer
	bank  int
	masks [8]int // masks[x] is the lane mask in Kx; -1 when unknown
	used  [8]int // used[x] is the tick of Kx's last use
	tick  int
}

func (w *kernelWriter) op(format string, args ...any) {
	w.b.WriteByte('\t')
	fmt.Fprintf(&w.b, format, args...)
	w.b.WriteByte('\n')
}

func (w *kernelWriter) comment(format string, args ...any) {
	w.b.WriteString("\n\t// ")
	fmt.Fprintf(&w.b, format, args...)
	w.b.WriteByte('\n')
}

// reg is the physical register of logical register r in bank.
func reg(bank, r int) string {
	return fmt.Sprintf("Z%d", 16*bank+r)
}

// loadMasks puts every lane mask of want into a mask register, keeping
// those already loaded and replacing the least recently used, and
// returns the register of each.
func (w *kernelWriter) loadMasks(want []int) map[int]int {
	w.tick++
	at := map[int]int{}
	for x := 1; x < len(w.masks); x++ {
		if slices.Contains(want, w.masks[x]) {
			at[w.masks[x]] = x
			w.used[x] = w.tick
		}
	}
	for _, m := range want {
		if _, ok := at[m]; ok {
			continue
		}
		x := 0
		for y := 1; y < len(w.masks); y++ {
			if w.used[y] < w.tick && (x == 0 || w.used[y] < w.used[x]) {
				x = y
			}
		}
		if x == 0 {
			panic(fmt.Sprintf("sortx: lane masks %#x need more than seven mask registers", want))
		}
		w.op("MOVL $0x%02x, AX", m)
		w.op("KMOVW AX, K%d", x)
		w.masks[x], w.used[x] = m, w.tick
		at[m] = x
	}
	return at
}

// edgeMasks loads the lanes of s that registers 4-7 hold into K1-K4,
// from the n low bits of DX.
func (w *kernelWriter) edgeMasks() {
	w.op("MOVQ DX, AX")
	w.op("SHRQ $32, AX")
	for x := 1; x <= 4; x++ {
		if x > 1 {
			w.op("SHRQ $8, AX")
		}
		w.op("KMOVW AX, K%d", x)
		w.masks[x] = -1
	}
}

// keys maps the floats' bits in the current bank to keys, or keys back
// to bits: key's b ^ (b>>63 & math.MaxInt64), its own inverse.
func (w *kernelWriter) keys() {
	for r := range 8 {
		w.op("VPSRAQ $63, %s, Z%d", reg(w.bank, r), kernelTempReg+r)
	}
	for r := range 8 {
		w.op("VPANDQ Z%d, Z%d, Z%d", kernelMaxReg, kernelTempReg+r, kernelTempReg+r)
	}
	for r := range 8 {
		w.op("VPXORQ Z%d, %s, %s", kernelTempReg+r, reg(w.bank, r), reg(w.bank, r))
	}
}

// stage emits one bitonic stage over the eight registers.
func (w *kernelWriter) stage(st bitonicStage) {
	if st.j >= 8 {
		// Whole registers r and p = r^(j/8) pair up, lane by lane; the
		// direction is the same for every lane of the pair.
		w.comment("k = %d, j = %d: registers r and r^%d", st.k, st.j, st.j/8)
		src, dst := w.bank, 1-w.bank
		for r := range 8 {
			p := r ^ st.j/8
			if p < r {
				continue
			}
			lo, hi := r, p
			if 8*r&st.k != 0 {
				lo, hi = hi, lo
			}
			w.op("VPMINSQ %s, %s, %s", reg(src, p), reg(src, r), reg(dst, lo))
			w.op("VPMAXSQ %s, %s, %s", reg(src, p), reg(src, r), reg(dst, hi))
		}
		w.bank = dst
		return
	}
	// Lane l of register r pairs with lane l^j of the same register:
	// one permuted copy, then the lanes that keep the smaller key take
	// the min and the others the max, both merge-masked in place.
	w.comment("k = %d, j = %d: lanes l and l^%d", st.k, st.j, st.j)
	minMask := func(r int) int {
		m := 0
		for l := range 8 {
			ascending := (8*r+l)&st.k == 0
			if (l&st.j == 0) == ascending {
				m |= 1 << l
			}
		}
		return m
	}
	var want []int
	for r := range 8 {
		for _, m := range []int{minMask(r), ^minMask(r) & 0xff} {
			if !slices.Contains(want, m) {
				want = append(want, m)
			}
		}
	}
	at := w.loadMasks(want)
	idx := kernelIndexReg + map[int]int{1: 0, 2: 1, 4: 2}[st.j]
	for r := range 8 {
		w.op("VPERMQ %s, Z%d, Z%d", reg(w.bank, r), idx, kernelTempReg+r)
	}
	for r := range 8 {
		w.op("VPMINSQ Z%d, %s, K%d, %s", kernelTempReg+r, reg(w.bank, r), at[minMask(r)], reg(w.bank, r))
	}
	for r := range 8 {
		w.op("VPMAXSQ Z%d, %s, K%d, %s", kernelTempReg+r, reg(w.bank, r), at[^minMask(r)&0xff], reg(w.bank, r))
	}
}

// renderKernel returns the source of kernel_amd64.s, the AVX-512F sort
// of 33 <= n <= 64 floats rendered from bitonicStages(64).
func renderKernel() []byte {
	w := &kernelWriter{}
	for x := range w.masks {
		w.masks[x] = -1
	}
	b := &w.b
	b.WriteString("// Code generated by \"go test ./internal/sortx -run TestKernelGenerated -update\"; DO NOT EDIT.\n")
	b.WriteString("// The generator is renderKernel in kernel_gen_test.go.\n\n")
	b.WriteString("#include \"textflag.h\"\n\n")
	b.WriteString("// Lane permutations of the in-register stages: lane l of row j takes\n")
	b.WriteString("// lane l^j, for j = 1, 2 and 4.\n")
	for row, j := range []int{1, 2, 4} {
		for l := range 8 {
			fmt.Fprintf(b, "DATA xorLanes<>+%d(SB)/8, $%d\n", 64*row+8*l, l^j)
		}
	}
	b.WriteString("GLOBL xorLanes<>(SB), RODATA|NOPTR, $192\n\n")
	stages := bitonicStages(kernelSlots)
	fmt.Fprintf(b, "// func sort64(s []float64)\n")
	fmt.Fprintf(b, "//\n// Sorts the keys of 33 <= len(s) <= 64 floats with the %d-stage bitonic\n", len(stages))
	b.WriteString("// network on 64 slots, padded with math.MaxInt64, in eight ZMM registers.\n")
	b.WriteString("// Requires AVX-512F.\n")
	b.WriteString("TEXT ·sort64(SB), NOSPLIT, $0-24\n")
	w.op("MOVQ s_base+0(FP), DI")
	w.op("MOVQ s_len+8(FP), CX")
	w.comment("DX: the n low bits set; Z11: math.MaxInt64 in every lane.")
	w.op("NEGQ CX")
	w.op("ADDQ $64, CX")
	w.op("MOVQ $-1, DX")
	w.op("SHRQ CX, DX")
	w.op("MOVQ $0x7fffffffffffffff, AX")
	w.op("VPBROADCASTQ AX, Z%d", kernelMaxReg)
	w.comment("Load s[0:32] whole and s[32:n] merge-masked over pads.")
	w.edgeMasks()
	for r := range 4 {
		w.op("VMOVDQU64 %d(DI), %s", 64*r, reg(0, r))
	}
	for r := 4; r < 8; r++ {
		w.op("VMOVDQA64 Z%d, %s", kernelMaxReg, reg(0, r))
		w.op("VMOVDQU64 %d(DI), K%d, %s", 64*r, r-3, reg(0, r))
	}
	w.comment("Bits to keys.")
	w.keys()
	for row := range 3 {
		w.op("VMOVDQU64 xorLanes<>+%d(SB), Z%d", 64*row, kernelIndexReg+row)
	}
	for _, st := range stages {
		w.stage(st)
	}
	w.comment("Keys to bits; store s[0:32] whole and s[32:n] masked.")
	w.keys()
	w.edgeMasks()
	for r := range 4 {
		w.op("VMOVDQU64 %s, %d(DI)", reg(w.bank, r), 64*r)
	}
	for r := 4; r < 8; r++ {
		w.op("VMOVDQU64 %s, K%d, %d(DI)", reg(w.bank, r), r-3, 64*r)
	}
	w.op("VZEROUPPER")
	w.op("RET")
	return b.Bytes()
}

// TestKernelGenerated fails when kernel_amd64.s is not what the
// generator renders. After an intentional change to the generator,
// rewrite it with
//
//	go test ./internal/sortx -run TestKernelGenerated -update
func TestKernelGenerated(t *testing.T) {
	want := renderKernel()
	if *updateGenerated {
		if err := os.WriteFile("kernel_amd64.s", want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile("kernel_amd64.s")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("kernel_amd64.s differs from the generator's output (run with -update to rewrite it)")
	}
}
