// Package cpuid reports whether this host runs the repo's AVX-512
// kernels: sortx's bitonic block sort (sort64) and normality's
// Anderson-Darling table sum (adTableSumKernel). Both use AVX-512F
// instructions only, opmask moves included (KMOVW, not the DQ forms),
// so one test serves both. It is a leaf package with no flag and no
// environment variable: each kernel's package copies AVX512F into its
// own use variable, which its tests flip to run the Go fallback on any
// host.
package cpuid
