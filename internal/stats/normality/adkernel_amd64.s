#include "textflag.h"

// adWeights holds the weights 2i+1 of the lanes i = 0..7 of the first
// group; each step adds 16.
DATA adWeights<>+0(SB)/8, $1.0
DATA adWeights<>+8(SB)/8, $3.0
DATA adWeights<>+16(SB)/8, $5.0
DATA adWeights<>+24(SB)/8, $7.0
DATA adWeights<>+32(SB)/8, $9.0
DATA adWeights<>+40(SB)/8, $11.0
DATA adWeights<>+48(SB)/8, $13.0
DATA adWeights<>+56(SB)/8, $15.0
GLOBL adWeights<>(SB), RODATA|NOPTR, $64

// adConsts: the table's middle adTableZ*adTableSteps and its width
// adTableCells, in cells, and the weight step.
DATA adConsts<>+0(SB)/8, $2880.0
DATA adConsts<>+8(SB)/8, $5760.0
DATA adConsts<>+16(SB)/8, $16.0
GLOBL adConsts<>(SB), RODATA|NOPTR, $24

// func adTableSumKernel(x []float64, mean, scale float64, table *[adTableCells + 1]float64) (sum float64, ok bool)
//
// adTableSum's sum, 8 samples per step, for 1 <= len(x) <= 2^30. Each
// lane computes its terms with adTableSum's operations; lane j sums the
// terms of i = j mod 8, and the lanes are added in a fixed tree at the
// end. The last group is masked. Requires AVX-512F.
TEXT ·adTableSumKernel(SB), NOSPLIT, $0-57
	MOVQ x_base+0(FP), DI
	MOVQ x_len+8(FP), SI
	MOVQ table+40(FP), R8

	// Z16 mean, Z17 scale, Z18 the middle, Z19 0, Z20 the width, Z21 the
	// lanes' weights w, Z22 16, Z23 2n, Z24 the dword adTableCells-1, Z0
	// the lanes' sums.
	VBROADCASTSD mean+24(FP), Z16
	VBROADCASTSD scale+32(FP), Z17
	VBROADCASTSD adConsts<>+0(SB), Z18
	VPXORQ Z19, Z19, Z19
	VBROADCASTSD adConsts<>+8(SB), Z20
	VMOVUPD adWeights<>(SB), Z21
	VBROADCASTSD adConsts<>+16(SB), Z22
	LEAQ (SI)(SI*1), AX
	VPBROADCASTD AX, Z23
	VCVTDQ2PD Y23, Z23
	MOVL $5759, AX
	VPBROADCASTD AX, Z24
	VPXORQ Z0, Z0, Z0

loop:
	// DX, K1: the lanes of this group, all 8 but in a last group of
	// r < 8 samples, where 0xff >> (8-r).
	MOVL $0xff, DX
	CMPQ SI, $8
	JGE  group
	MOVL $8, CX
	SUBQ SI, CX
	SHRL CX, DX

group:
	KMOVW DX, K1

	// Z1: t = (x-mean)*scale + middle, masked lanes at x = mean.
	VMOVAPD Z16, Z1
	VMOVUPD (DI), K1, Z1
	VSUBPD  Z16, Z1, Z1
	VMULPD  Z17, Z1, Z1
	VADDPD  Z18, Z1, Z1

	// Every lane of the group must hold 0 <= t < width; NaN fails both.
	VCMPPD $0x1d, Z19, Z1, K1, K2
	VCMPPD $0x11, Z20, Z1, K2, K2
	KMOVW  K2, AX
	CMPL   AX, DX
	JNE    outside

	// Y2: k = int(t); Z3: f = t - k; Y4: m = adTableCells-1-k.
	VCVTTPD2DQ Z1, Y2
	VCVTDQ2PD  Y2, Z3
	VSUBPD     Z3, Z1, Z3
	VPSUBD     Z2, Z24, Z4

	// Z5 g[k], Z6 g[k+1], Z7 g[m], Z8 g[m+1]. A gather clears its mask.
	KMOVW      K1, K3
	VGATHERDPD (R8)(Y2*8), K3, Z5
	KMOVW      K1, K3
	VGATHERDPD 8(R8)(Y2*8), K3, Z6
	KMOVW      K1, K3
	VGATHERDPD (R8)(Y4*8), K3, Z7
	KMOVW      K1, K3
	VGATHERDPD 8(R8)(Y4*8), K3, Z8

	// Z5: lo = g[k] + f*(g[k+1]-g[k]); Z8: hi = g[m+1] - f*(g[m+1]-g[m]).
	VSUBPD Z5, Z6, Z6
	VMULPD Z3, Z6, Z6
	VADDPD Z6, Z5, Z5
	VSUBPD Z7, Z8, Z7
	VMULPD Z3, Z7, Z7
	VSUBPD Z7, Z8, Z8

	// The lanes of the group add w*lo + (2n-w)*hi to their sums.
	VMULPD Z21, Z5, Z5
	VSUBPD Z21, Z23, Z9
	VMULPD Z9, Z8, Z8
	VADDPD Z8, Z5, Z5
	VADDPD Z5, Z0, K1, Z0

	VADDPD Z22, Z21, Z21
	ADDQ   $64, DI
	SUBQ   $8, SI
	JGT    loop

	// Lane sums s0..s7 to ((s0+s4)+(s2+s6)) + ((s1+s5)+(s3+s7)).
	VSHUFF64X2 $0x4e, Z0, Z0, Z1
	VADDPD     Z1, Z0, Z0
	VSHUFF64X2 $0xb1, Z0, Z0, Z1
	VADDPD     Z1, Z0, Z0
	VPERMILPD  $0x55, Z0, Z1
	VADDPD     Z1, Z0, Z0
	VZEROUPPER
	MOVSD X0, sum+48(FP)
	MOVB  $1, ok+56(FP)
	RET

outside:
	VZEROUPPER
	MOVQ $0, sum+48(FP)
	MOVB $0, ok+56(FP)
	RET
