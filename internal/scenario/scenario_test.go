package scenario

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"earlybird/internal/cluster"
	"earlybird/internal/dlb"
	"earlybird/internal/engine"
	"earlybird/internal/network"
	"earlybird/internal/trace"
)

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}

// engineDefaultSpec is the fully defaulted study the serve layer would
// run for a bare app request.
func engineDefaultSpec(app string) (engine.Spec, error) {
	return engine.Spec{App: app}.Resolve()
}

func TestParseNoiseCanonical(t *testing.T) {
	// Reordered, re-spelled parameters land on one canonical string.
	a, err := ParseNoise("burst:factor=3.0,rate=2,mean-ms=5.0")
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParseNoise("burst:rate=2,mean-ms=5,factor=3")
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() || a.String() != "burst:rate=2,mean-ms=5,factor=3" {
		t.Fatalf("canonical forms differ: %q vs %q", a, b)
	}
	if n, err := ParseNoise("none"); err != nil || !n.IsNone() || n.String() != "none" {
		t.Fatalf("none: %v %v", n, err)
	}
	for _, bad := range []string{
		"burst:rate=2",                            // missing required params
		"burst:rate=0,mean-ms=5,factor=3",         // rate must be positive
		"burst:rate=2,mean-ms=5,factor=1",         // factor must exceed 1
		"burst:rate=2,mean-ms=5,factor=3,x=1",     // unknown param
		"daemon:period-ms=1,cost-us=1,affinity=2", // affinity > 1
		"gauss:sigma=1",                           // unknown model
	} {
		if _, err := ParseNoise(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}

func TestParseFabricCanonical(t *testing.T) {
	f, err := ParseFabric("hier:ranks-per-node=4,congestion=1.5")
	if err != nil {
		t.Fatal(err)
	}
	if !f.Hierarchical() {
		t.Fatal("hier spec not hierarchical")
	}
	// The canonical form spells out every default; re-parsing it is a
	// fixed point.
	again, err := ParseFabric(f.String())
	if err != nil {
		t.Fatal(err)
	}
	if again.String() != f.String() {
		t.Fatalf("canonical form not a fixed point: %q -> %q", f, again)
	}
	// Flattening matches network.Hierarchical directly.
	want := network.Hierarchical{
		Intra:        network.Fabric{LatencySec: 0.2e-6, BandwidthBytesPerSec: 50e9, OverheadSec: 0.1e-6},
		Inter:        network.OmniPath(),
		RanksPerNode: 4,
		Congestion:   1.5,
	}
	if got := f.Effective(8); got != want.Effective(8) {
		t.Fatalf("effective fabric %+v != %+v", got, want.Effective(8))
	}
	// Flat entries and the default.
	flat, err := ParseFabric("flat:gbs=12.5,latency-us=1")
	if err != nil {
		t.Fatal(err)
	}
	if flat.String() != "flat:latency-us=1,gbs=12.5,overhead-us=0.3" {
		t.Fatalf("flat canonical = %q", flat)
	}
	if def, err := ParseFabric("omnipath"); err != nil || def.Effective(8) != network.OmniPath() {
		t.Fatalf("omnipath default wrong: %v %v", def, err)
	}
	for _, bad := range []string{
		"flat:latency-us=1",                    // missing bandwidth
		"flat:latency-us=-1,gbs=1",             // invalid fabric
		"hier:congestion=2",                    // missing ranks-per-node
		"hier:ranks-per-node=2.5",              // non-integer
		"hier:ranks-per-node=4,congestion=0.5", // congestion < 1
		"mesh:dim=3",                           // unknown kind
	} {
		if _, err := ParseFabric(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}

func TestSpecValidateRejects(t *testing.T) {
	app := Source{App: "minife"}
	mk := func(mut func(*Spec)) *Spec {
		s := &Spec{Name: "v", Sources: []Source{app}}
		mut(s)
		return s
	}
	burst, _ := ParseNoise("burst:rate=2,mean-ms=5,factor=3")
	cases := map[string]*Spec{
		"no name":    mk(func(s *Spec) { s.Name = "" }),
		"no sources": mk(func(s *Spec) { s.Sources = nil }),
		"two-backing source": mk(func(s *Spec) {
			s.Sources = []Source{{App: "minife", Trace: "x.csv"}}
		}),
		"duplicate source": mk(func(s *Spec) { s.Sources = []Source{app, app} }),
		"duplicate geometry": mk(func(s *Spec) {
			s.Geometries = []cluster.Config{cluster.SmallConfig(), cluster.SmallConfig()}
		}),
		"duplicate noise": mk(func(s *Spec) { s.Noise = []NoiseSpec{burst, burst} }),
		"duplicate dlb": mk(func(s *Spec) {
			s.DLB = []dlb.Spec{{Policy: "lewi"}, {Policy: "lewi"}}
		}),
		"nonpositive timeout": mk(func(s *Spec) { s.BinTimeoutsSec = []float64{0} }),
		"alpha out of range":  mk(func(s *Spec) { s.Alpha = 1 }),
		"negative laggard":    mk(func(s *Spec) { s.LaggardThresholdSec = -1 }),
	}
	for name, s := range cases {
		if err := s.Validate(); err == nil {
			t.Errorf("%s: validated", name)
		}
	}
	if err := mk(func(*Spec) {}).Validate(); err != nil {
		t.Fatalf("minimal spec rejected: %v", err)
	}
}

// testTrace renders a small dataset as CSV for trace-source tests.
func testTrace(t *testing.T, app string, ranks int) string {
	t.Helper()
	d := trace.NewDataset(app, 1, ranks, 2, 2)
	for trial := 0; trial < d.Trials; trial++ {
		for rank := 0; rank < d.Ranks; rank++ {
			for iter := 0; iter < d.Iterations; iter++ {
				for th := 0; th < d.Threads; th++ {
					d.Times[trial][rank][iter][th] = 0.001 * float64(1+rank+th)
				}
			}
		}
	}
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestCompileCrossProduct(t *testing.T) {
	spec, err := Parse([]byte(`
name: cross
sources:
  - app: minife
  - app: minimd
geometries: [quick, 2x4x10x8]
noise: [none, "burst:rate=2,mean-ms=5,factor=3"]
dlb: [static, lewi]
fabrics: [omnipath, "hier:ranks-per-node=4,congestion=2"]
bin_timeouts_ms: [1, 5]
`))
	if err != nil {
		t.Fatal(err)
	}
	c, err := spec.Compile(CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// 2 apps x 2 geometries x 2 noise x 2 dlb x 2 fabrics x 2 timeouts.
	if len(c.Cells) != 64 {
		t.Fatalf("got %d cells, want 64", len(c.Cells))
	}
	cov, err := c.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if cov.Cells != 64 || cov.Sources["app:minife"] != 32 || cov.Sources["app:minimd"] != 32 {
		t.Fatalf("coverage %+v", cov)
	}
	// Noiseless cells stay wire-expressible (App set, no Model); noisy
	// cells carry a wrapped model with the canonical suffix.
	for _, cell := range c.Cells {
		if cell.Noise == "none" {
			if cell.Spec.App == "" || cell.Spec.Model != nil {
				t.Fatalf("cell %d not wire-expressible: %+v", cell.Index, cell.Spec)
			}
		} else if cell.Spec.Model == nil || !strings.Contains(cell.Spec.Model.Name(), "+burst:") {
			t.Fatalf("cell %d missing noisy model", cell.Index)
		}
	}
}

func TestCompileTraceSource(t *testing.T) {
	csv := testTrace(t, "imported", 4)
	spec := &Spec{
		Name:    "replay",
		Sources: []Source{{CSV: csv}},
		// App-only axes are declared but must not multiply trace cells.
		Geometries:     []cluster.Config{cluster.SmallConfig()},
		Noise:          []NoiseSpec{{}},
		DLB:            []dlb.Spec{{}, {Policy: "lewi"}},
		BinTimeoutsSec: []float64{1e-3, 5e-3},
	}
	c, err := spec.Compile(CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// 1 trace x 1 fabric x 2 timeouts: geometry/noise/dlb do not apply.
	if len(c.Cells) != 2 {
		t.Fatalf("got %d cells, want 2", len(c.Cells))
	}
	for _, cell := range c.Cells {
		if cell.Spec.Dataset == nil || cell.Spec.Dataset.App != "imported" {
			t.Fatalf("cell %d has no dataset: %+v", cell.Index, cell.Spec)
		}
	}
	if _, err := c.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestCompileTraceFromDisk(t *testing.T) {
	csv := testTrace(t, "ondisk", 2)
	path := t.TempDir() + "/run.csv"
	if err := writeFile(path, csv); err != nil {
		t.Fatal(err)
	}
	spec := &Spec{Name: "disk", Sources: []Source{{Trace: path}}}
	c, err := spec.Compile(CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Cells) != 1 || c.Cells[0].Spec.Dataset == nil {
		t.Fatalf("disk trace compiled wrong: %+v", c.Cells)
	}
	if _, err := c.Verify(); err != nil {
		t.Fatal(err)
	}
	// Missing file is a compile error, not a panic downstream.
	spec.Sources[0].Trace = path + ".missing"
	if _, err := spec.Compile(CompileOptions{}); err == nil {
		t.Fatal("missing trace file accepted")
	}
}

func TestCompileRejectsUnknownApp(t *testing.T) {
	spec := &Spec{Name: "x", Sources: []Source{{App: "not-an-app"}}}
	if _, err := spec.Compile(CompileOptions{}); err == nil {
		t.Fatal("unknown app accepted")
	}
}

func TestCompileDefaultsResolveLikeHandWrittenSpecs(t *testing.T) {
	// A minimal scenario's one cell must coalesce with the plain default
	// study: same resolved SpecKey, so /v1/scenario shares cache entries
	// with /v1/study.
	spec := &Spec{Name: "min", Sources: []Source{{App: "minife"}}}
	c, err := spec.Compile(CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Cells) != 1 {
		t.Fatalf("got %d cells", len(c.Cells))
	}
	got, err := c.Cells[0].Spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	want, err := engineDefaultSpec("minife")
	if err != nil {
		t.Fatal(err)
	}
	if got.Key() != want.Key() {
		t.Fatalf("minimal scenario cell does not coalesce with the default study:\n got %+v\nwant %+v", got, want)
	}
}

// TestBinTimeoutFloorAndSpanCap: the scenario bin-timeout axis refuses a
// timeout below partcomm.MinBinTimeoutSec, and compiling refuses a trace
// source with a block wider than partcomm.MaxBinsPerBlock bins of a
// declared timeout, so no such cell ever reaches the binning loop.
func TestBinTimeoutFloorAndSpanCap(t *testing.T) {
	s := &Spec{Name: "bins", Sources: []Source{{App: "minife"}}, BinTimeoutsSec: []float64{1e-9}}
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "floor") {
		t.Fatalf("1 ns timeout: error %v, want a floor violation", err)
	}
	ds := trace.NewDataset("wide", 1, 1, 1, 2)
	ds.Times[0][0][0] = []float64{0.01, 0.02}
	load := func(Source) (*trace.Dataset, error) { return ds, nil }
	trs := &Spec{Name: "bins", Sources: []Source{{CSV: "inline"}}, BinTimeoutsSec: []float64{1e-3}}
	if _, err := trs.Compile(CompileOptions{LoadTrace: load}); err != nil {
		t.Fatalf("10 ms span at 1 ms: %v", err)
	}
	ds.Times[0][0][0][1] = 1e4
	if _, err := trs.Compile(CompileOptions{LoadTrace: load}); err == nil || !strings.Contains(err.Error(), "bins") {
		t.Fatalf("1e4 s span at 1 ms: error %v, want a bin-cap violation", err)
	}
}
