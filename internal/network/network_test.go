package network

import (
	"math"
	"testing"
)

func TestTransferTimeComponents(t *testing.T) {
	f := Fabric{LatencySec: 1e-6, BandwidthBytesPerSec: 1e9, OverheadSec: 0.5e-6}
	// 1000 bytes: 1us + 0.5us + 1us = 2.5us.
	want := 2.5e-6
	if got := f.TransferTime(1000); math.Abs(got-want) > 1e-15 {
		t.Fatalf("transfer = %v, want %v", got, want)
	}
	// Zero and negative sizes cost latency + overhead only.
	if got := f.TransferTime(0); math.Abs(got-1.5e-6) > 1e-15 {
		t.Fatalf("zero-byte transfer = %v", got)
	}
	if f.TransferTime(-5) != f.TransferTime(0) {
		t.Fatal("negative size should clamp to zero")
	}
}

func TestOmniPathParameters(t *testing.T) {
	f := OmniPath()
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	// A 1 MiB message on 12.5 GB/s should take ~85us dominated by
	// bandwidth.
	got := f.TransferTime(1 << 20)
	if got < 80e-6 || got > 95e-6 {
		t.Fatalf("1MiB transfer = %v, want ~85us", got)
	}
}

func TestValidateRejectsBadFabrics(t *testing.T) {
	bad := []Fabric{
		{LatencySec: -1, BandwidthBytesPerSec: 1},
		{LatencySec: 0, BandwidthBytesPerSec: 0},
		{LatencySec: 0, BandwidthBytesPerSec: 1, OverheadSec: -1},
	}
	for _, f := range bad {
		if f.Validate() == nil {
			t.Errorf("fabric %+v should be invalid", f)
		}
	}
}

// hier returns the two-level fabric the hierarchical tests share: a
// fast 50 GB/s intra-node level over the paper's Omni-Path inter-node
// level.
func hier(congestion float64) Hierarchical {
	return Hierarchical{
		Intra:        Fabric{LatencySec: 0.2e-6, BandwidthBytesPerSec: 50e9, OverheadSec: 0.1e-6},
		Inter:        OmniPath(),
		RanksPerNode: 4,
		Congestion:   congestion,
	}
}

func TestHierarchicalValidate(t *testing.T) {
	if err := hier(1.5).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Hierarchical{
		{Intra: OmniPath(), Inter: OmniPath(), RanksPerNode: 0},
		{Intra: OmniPath(), Inter: OmniPath(), RanksPerNode: 4, Congestion: 0.5},
		{Intra: Fabric{BandwidthBytesPerSec: -1}, Inter: OmniPath(), RanksPerNode: 4},
		{Intra: OmniPath(), Inter: Fabric{}, RanksPerNode: 4},
	}
	for i, h := range bad {
		if err := h.Validate(); err == nil {
			t.Errorf("bad hierarchy %d accepted: %+v", i, h)
		}
	}
}

func TestHierarchicalEffectiveBounds(t *testing.T) {
	h := hier(1.5)
	eff := h.Effective(8)
	if err := eff.Validate(); err != nil {
		t.Fatal(err)
	}
	// The blend lies strictly between the intra level and the congested
	// inter level on every parameter.
	congested := Fabric{
		LatencySec:           h.Inter.LatencySec * 1.5,
		BandwidthBytesPerSec: h.Inter.BandwidthBytesPerSec / 1.5,
		OverheadSec:          h.Inter.OverheadSec,
	}
	if eff.LatencySec <= h.Intra.LatencySec || eff.LatencySec >= congested.LatencySec {
		t.Errorf("latency %v outside (%v, %v)", eff.LatencySec, h.Intra.LatencySec, congested.LatencySec)
	}
	if eff.BandwidthBytesPerSec >= h.Intra.BandwidthBytesPerSec || eff.BandwidthBytesPerSec <= congested.BandwidthBytesPerSec {
		t.Errorf("bandwidth %v outside blend bounds", eff.BandwidthBytesPerSec)
	}
}

func TestHierarchicalEffectiveDegenerateCases(t *testing.T) {
	h := hier(2)
	// One rank: no communication peers cross a node boundary.
	if got := h.Effective(1); got != h.Intra {
		t.Errorf("single-rank effective = %+v, want intra", got)
	}
	// Everything on one node: still the intra fabric exactly.
	if got := h.Effective(3); got != h.Intra {
		t.Errorf("all-local effective = %+v, want intra", got)
	}
	// One rank per node (RanksPerNode 1): pure congested inter fabric.
	h1 := h
	h1.RanksPerNode = 1
	want := Fabric{
		LatencySec:           h.Inter.LatencySec * 2,
		BandwidthBytesPerSec: h.Inter.BandwidthBytesPerSec / 2,
		OverheadSec:          h.Inter.OverheadSec,
	}
	got := h1.Effective(8)
	if math.Abs(got.LatencySec-want.LatencySec) > 1e-18 ||
		math.Abs(got.BandwidthBytesPerSec-want.BandwidthBytesPerSec) > 1 ||
		math.Abs(got.OverheadSec-want.OverheadSec) > 1e-18 {
		t.Errorf("all-remote effective = %+v, want %+v", got, want)
	}
}

// TestHierarchicalCongestionMonotone: more congestion never makes the
// effective fabric faster.
func TestHierarchicalCongestionMonotone(t *testing.T) {
	prev := hier(1).Effective(8).TransferTime(1 << 20)
	for _, c := range []float64{1.5, 2, 4, 8} {
		cur := hier(c).Effective(8).TransferTime(1 << 20)
		if cur < prev {
			t.Fatalf("congestion %v made the fabric faster: %v < %v", c, cur, prev)
		}
		prev = cur
	}
}
