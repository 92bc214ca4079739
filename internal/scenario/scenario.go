package scenario

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"earlybird/internal/cliopts"
	"earlybird/internal/cluster"
	"earlybird/internal/dlb"
	"earlybird/internal/engine"
	"earlybird/internal/network"
	"earlybird/internal/noise"
	"earlybird/internal/partcomm"
)

// Source is one workload of a scenario: a built-in application model, a
// trace CSV on disk, or an inline trace CSV (the wire form — the service
// never reads server-side paths).
type Source struct {
	// App names a built-in application model (minife, minimd, miniqmc).
	App string `json:"app,omitempty"`
	// Trace is a path to a long-form CSV (trace.WriteCSV's format)
	// replayed as a pre-collected dataset.
	Trace string `json:"trace,omitempty"`
	// CSV is the trace content inline, for specs that travel over the
	// wire. Mutually exclusive with Trace.
	CSV string `json:"csv,omitempty"`
}

// IsApp reports whether the source is an application model.
func (s Source) IsApp() bool { return s.App != "" }

// key is the source's identity inside one scenario; index
// disambiguates inline CSVs, which have no name of their own.
func (s Source) key(index int) string {
	switch {
	case s.App != "":
		return "app:" + s.App
	case s.Trace != "":
		return "trace:" + s.Trace
	default:
		return fmt.Sprintf("trace:inline#%d", index)
	}
}

// validate checks the source declares exactly one backing.
func (s Source) validate() error {
	n := 0
	for _, set := range []bool{s.App != "", s.Trace != "", s.CSV != ""} {
		if set {
			n++
		}
	}
	if n != 1 {
		return fmt.Errorf("scenario: source must set exactly one of app, trace or csv, got %+v", s)
	}
	return nil
}

// Spec is one parsed scenario: the declared sources and axes plus the
// scalar analysis knobs. Zero axes default at Compile time (one
// paper-geometry point, no noise, the Omni-Path fabric, the static
// policy, the 1 ms bin timeout), so the smallest useful scenario is a
// name and one source.
type Spec struct {
	Name        string
	Description string
	Sources     []Source
	// Geometries is the geometry grid (application sources only).
	Geometries []cluster.Config
	// Noise is the noise-model axis (application sources only).
	Noise []NoiseSpec
	// Fabrics is the interconnect axis; hierarchical entries flatten
	// per-geometry through network.Hierarchical.Effective.
	Fabrics []FabricSpec
	// DLB is the runtime-rebalancing axis (application sources only).
	DLB []dlb.Spec
	// BinTimeoutsSec is the binned delivery strategy's timeout axis.
	BinTimeoutsSec []float64
	// Alpha, LaggardThresholdSec and BytesPerPartition are scalar
	// analysis parameters shared by every cell; zero means the paper
	// defaults (engine.Spec fills them).
	Alpha               float64
	LaggardThresholdSec float64
	BytesPerPartition   int
}

// fnum renders a float the one canonical way axis entries use, so
// spelled-out defaults and shorthands land on identical strings.
func fnum(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// params parses "k1=v1,k2=v2" with every key drawn from allowed, which
// maps key -> required. Returns the present values.
func params(what, text string, allowed map[string]bool) (map[string]float64, error) {
	got := map[string]float64{}
	for _, part := range strings.Split(text, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		k, v, ok := strings.Cut(part, "=")
		k = strings.TrimSpace(k)
		if !ok {
			return nil, fmt.Errorf("scenario: %s: parameter %q is not key=value", what, part)
		}
		if _, known := allowed[k]; !known {
			keys := make([]string, 0, len(allowed))
			for a := range allowed {
				keys = append(keys, a)
			}
			sort.Strings(keys)
			return nil, fmt.Errorf("scenario: %s: unknown parameter %q (want %s)", what, k, strings.Join(keys, ", "))
		}
		if _, dup := got[k]; dup {
			return nil, fmt.Errorf("scenario: %s: parameter %q given twice", what, k)
		}
		f, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
		if err != nil {
			return nil, fmt.Errorf("scenario: %s: parameter %q: bad number %q", what, k, v)
		}
		got[k] = f
	}
	for k, required := range allowed {
		if required {
			if _, ok := got[k]; !ok {
				return nil, fmt.Errorf("scenario: %s: missing required parameter %q", what, k)
			}
		}
	}
	return got, nil
}

// NoiseSpec is one parsed noise-axis entry. The zero value is "none".
type NoiseSpec struct {
	raw   string
	model noise.Model // nil for none
}

// IsNone reports whether the entry disables noise injection.
func (n NoiseSpec) IsNone() bool { return n.model == nil }

// Model returns the injector, nil for none.
func (n NoiseSpec) Model() noise.Model { return n.model }

// String renders the canonical form ParseNoise accepts.
func (n NoiseSpec) String() string {
	if n.raw == "" {
		return "none"
	}
	return n.raw
}

// ParseNoise reads a noise-axis entry:
//
//	none
//	burst:rate=R,mean-ms=M,factor=F        correlated bursts (noise.Burst)
//	daemon:period-ms=P,cost-us=C,affinity=A periodic daemon (noise.PeriodicDaemon)
//	interrupt:rate=R,cost-us=C             random interrupts (noise.RandomInterrupt)
//	slowdown:prob=P,factor=F               persistent slow core (noise.CoreSlowdown)
//
// The returned spec's String() is canonical: numerically equal entries
// render identically regardless of how they were spelled.
func ParseNoise(text string) (NoiseSpec, error) {
	text = strings.TrimSpace(text)
	if text == "" || text == "none" {
		return NoiseSpec{}, nil
	}
	kind, rest, _ := strings.Cut(text, ":")
	switch kind {
	case "burst":
		p, err := params("noise burst", rest, map[string]bool{"rate": true, "mean-ms": true, "factor": true})
		if err != nil {
			return NoiseSpec{}, err
		}
		m := noise.Burst{
			RatePerSec:   p["rate"],
			MeanDuration: time.Duration(p["mean-ms"] * float64(time.Millisecond)),
			Factor:       p["factor"],
		}
		if m.RatePerSec <= 0 || m.MeanDuration <= 0 || m.Factor <= 1 {
			return NoiseSpec{}, fmt.Errorf("scenario: noise %q needs rate > 0, mean-ms > 0, factor > 1", text)
		}
		return NoiseSpec{
			raw:   fmt.Sprintf("burst:rate=%s,mean-ms=%s,factor=%s", fnum(p["rate"]), fnum(p["mean-ms"]), fnum(p["factor"])),
			model: m,
		}, nil
	case "daemon":
		p, err := params("noise daemon", rest, map[string]bool{"period-ms": true, "cost-us": true, "affinity": true})
		if err != nil {
			return NoiseSpec{}, err
		}
		m := noise.PeriodicDaemon{
			Period:   time.Duration(p["period-ms"] * float64(time.Millisecond)),
			Cost:     time.Duration(p["cost-us"] * float64(time.Microsecond)),
			Affinity: p["affinity"],
		}
		if m.Period <= 0 || m.Cost <= 0 || m.Affinity <= 0 || m.Affinity > 1 {
			return NoiseSpec{}, fmt.Errorf("scenario: noise %q needs period-ms > 0, cost-us > 0, affinity in (0, 1]", text)
		}
		return NoiseSpec{
			raw:   fmt.Sprintf("daemon:period-ms=%s,cost-us=%s,affinity=%s", fnum(p["period-ms"]), fnum(p["cost-us"]), fnum(p["affinity"])),
			model: m,
		}, nil
	case "interrupt":
		p, err := params("noise interrupt", rest, map[string]bool{"rate": true, "cost-us": true})
		if err != nil {
			return NoiseSpec{}, err
		}
		m := noise.RandomInterrupt{
			Rate:     p["rate"],
			MeanCost: time.Duration(p["cost-us"] * float64(time.Microsecond)),
		}
		if m.Rate <= 0 || m.MeanCost <= 0 {
			return NoiseSpec{}, fmt.Errorf("scenario: noise %q needs rate > 0 and cost-us > 0", text)
		}
		return NoiseSpec{
			raw:   fmt.Sprintf("interrupt:rate=%s,cost-us=%s", fnum(p["rate"]), fnum(p["cost-us"])),
			model: m,
		}, nil
	case "slowdown":
		p, err := params("noise slowdown", rest, map[string]bool{"prob": true, "factor": true})
		if err != nil {
			return NoiseSpec{}, err
		}
		m := noise.CoreSlowdown{Prob: p["prob"], Factor: p["factor"]}
		if m.Prob <= 0 || m.Prob > 1 || m.Factor <= 1 {
			return NoiseSpec{}, fmt.Errorf("scenario: noise %q needs prob in (0, 1] and factor > 1", text)
		}
		return NoiseSpec{
			raw:   fmt.Sprintf("slowdown:prob=%s,factor=%s", fnum(p["prob"]), fnum(p["factor"])),
			model: m,
		}, nil
	default:
		return NoiseSpec{}, fmt.Errorf("scenario: unknown noise model %q (want none, burst, daemon, interrupt or slowdown)", kind)
	}
}

// FabricSpec is one parsed fabric-axis entry: a flat alpha-beta fabric
// or a two-level hierarchical one. The zero value is the paper's
// Omni-Path.
type FabricSpec struct {
	raw  string
	flat *network.Fabric
	hier *network.Hierarchical
}

// String renders the canonical form ParseFabric accepts.
func (f FabricSpec) String() string {
	if f.raw == "" {
		return "omnipath"
	}
	return f.raw
}

// Effective returns the alpha-beta fabric a study over ranks processes
// analyses under: flat entries return their parameters, hierarchical
// ones flatten through network.Hierarchical.Effective.
func (f FabricSpec) Effective(ranks int) network.Fabric {
	switch {
	case f.hier != nil:
		return f.hier.Effective(ranks)
	case f.flat != nil:
		return *f.flat
	default:
		return network.OmniPath()
	}
}

// Fabric defaults shared by ParseFabric: the flat default overhead
// matches the CLI's fabric flags; the intra-node defaults model a
// 50 GB/s shared-memory transport; the inter-node defaults are the
// paper's Omni-Path.
const (
	defaultFlatOverheadUs = 0.3
	defaultIntraLatencyUs = 0.2
	defaultIntraGBs       = 50
	defaultIntraOverhead  = 0.1
)

// ParseFabric reads a fabric-axis entry:
//
//	omnipath
//	flat:latency-us=L,gbs=B[,overhead-us=O]
//	hier:ranks-per-node=N[,congestion=C][,intra-latency-us=][,intra-gbs=]
//	     [,intra-overhead-us=][,inter-latency-us=][,inter-gbs=][,inter-overhead-us=]
//
// hier defaults: a 50 GB/s, 0.2 us intra-node level over the paper's
// Omni-Path inter-node parameters, congestion 1. The returned spec's
// String() is canonical with every parameter spelled out.
func ParseFabric(text string) (FabricSpec, error) {
	text = strings.TrimSpace(text)
	if text == "" || text == "omnipath" {
		return FabricSpec{}, nil
	}
	kind, rest, _ := strings.Cut(text, ":")
	switch kind {
	case "flat":
		p, err := params("fabric flat", rest, map[string]bool{"latency-us": true, "gbs": true, "overhead-us": false})
		if err != nil {
			return FabricSpec{}, err
		}
		overhead, ok := p["overhead-us"]
		if !ok {
			overhead = defaultFlatOverheadUs
		}
		f := network.Fabric{
			LatencySec:           p["latency-us"] * 1e-6,
			BandwidthBytesPerSec: p["gbs"] * 1e9,
			OverheadSec:          overhead * 1e-6,
		}
		if err := f.Validate(); err != nil {
			return FabricSpec{}, fmt.Errorf("scenario: fabric %q: %w", text, err)
		}
		return FabricSpec{
			raw:  fmt.Sprintf("flat:latency-us=%s,gbs=%s,overhead-us=%s", fnum(p["latency-us"]), fnum(p["gbs"]), fnum(overhead)),
			flat: &f,
		}, nil
	case "hier":
		p, err := params("fabric hier", rest, map[string]bool{
			"ranks-per-node": true, "congestion": false,
			"intra-latency-us": false, "intra-gbs": false, "intra-overhead-us": false,
			"inter-latency-us": false, "inter-gbs": false, "inter-overhead-us": false,
		})
		if err != nil {
			return FabricSpec{}, err
		}
		get := func(key string, def float64) float64 {
			if v, ok := p[key]; ok {
				return v
			}
			return def
		}
		omni := network.OmniPath()
		// Work in the spec's microsecond/GB units and render the canonical
		// string from those values: FormatFloat(-1) round-trips exactly, so
		// the canonical form is a parse fixed point (a seconds -> us back
		// conversion would not be).
		congestion := get("congestion", 1)
		intraLat := get("intra-latency-us", defaultIntraLatencyUs)
		intraGbs := get("intra-gbs", defaultIntraGBs)
		intraOvh := get("intra-overhead-us", defaultIntraOverhead)
		interLat := get("inter-latency-us", omni.LatencySec*1e6)
		interGbs := get("inter-gbs", omni.BandwidthBytesPerSec*1e-9)
		interOvh := get("inter-overhead-us", omni.OverheadSec*1e6)
		h := network.Hierarchical{
			Intra: network.Fabric{
				LatencySec:           intraLat * 1e-6,
				BandwidthBytesPerSec: intraGbs * 1e9,
				OverheadSec:          intraOvh * 1e-6,
			},
			Inter: network.Fabric{
				LatencySec:           interLat * 1e-6,
				BandwidthBytesPerSec: interGbs * 1e9,
				OverheadSec:          interOvh * 1e-6,
			},
			RanksPerNode: int(p["ranks-per-node"]),
			Congestion:   congestion,
		}
		if float64(h.RanksPerNode) != p["ranks-per-node"] {
			return FabricSpec{}, fmt.Errorf("scenario: fabric %q: ranks-per-node must be an integer", text)
		}
		if err := h.Validate(); err != nil {
			return FabricSpec{}, fmt.Errorf("scenario: fabric %q: %w", text, err)
		}
		return FabricSpec{
			raw: fmt.Sprintf("hier:ranks-per-node=%d,congestion=%s,intra-latency-us=%s,intra-gbs=%s,intra-overhead-us=%s,inter-latency-us=%s,inter-gbs=%s,inter-overhead-us=%s",
				h.RanksPerNode, fnum(congestion),
				fnum(intraLat), fnum(intraGbs), fnum(intraOvh),
				fnum(interLat), fnum(interGbs), fnum(interOvh)),
			hier: &h,
		}, nil
	default:
		return FabricSpec{}, fmt.Errorf("scenario: unknown fabric %q (want omnipath, flat:... or hier:...)", kind)
	}
}

// Validate checks the spec's declarations without compiling: every
// source well-formed and unique, no duplicate axis entries (an axis is a
// set — listing a cell twice would make "covers exactly the declared
// cross-product" ambiguous).
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: spec needs a name")
	}
	if len(s.Sources) == 0 {
		return fmt.Errorf("scenario: spec needs at least one source")
	}
	seenSrc := map[string]bool{}
	for i, src := range s.Sources {
		if err := src.validate(); err != nil {
			return err
		}
		k := src.key(i)
		if src.CSV == "" && seenSrc[k] {
			return fmt.Errorf("scenario: duplicate source %s", k)
		}
		seenSrc[k] = true
	}
	checkDup := func(axis string, keys []string) error {
		seen := map[string]bool{}
		for _, k := range keys {
			if seen[k] {
				return fmt.Errorf("scenario: duplicate %s entry %q", axis, k)
			}
			seen[k] = true
		}
		return nil
	}
	geoms := make([]string, len(s.Geometries))
	for i, g := range s.Geometries {
		geoms[i] = cliopts.FormatGeometry(g)
	}
	if err := checkDup("geometry", geoms); err != nil {
		return err
	}
	noises := make([]string, len(s.Noise))
	for i, n := range s.Noise {
		noises[i] = n.String()
	}
	if err := checkDup("noise", noises); err != nil {
		return err
	}
	fabrics := make([]string, len(s.Fabrics))
	for i, f := range s.Fabrics {
		fabrics[i] = f.String()
	}
	if err := checkDup("fabric", fabrics); err != nil {
		return err
	}
	dlbs := make([]string, len(s.DLB))
	for i, d := range s.DLB {
		dlbs[i] = d.String()
	}
	if err := checkDup("dlb", dlbs); err != nil {
		return err
	}
	timeouts := make([]string, len(s.BinTimeoutsSec))
	for i, t := range s.BinTimeoutsSec {
		if err := partcomm.CheckBinTimeout(t); err != nil {
			return fmt.Errorf("scenario: bin_timeouts_ms: %w", err)
		}
		timeouts[i] = fnum(t)
	}
	if err := checkDup("bin timeout", timeouts); err != nil {
		return err
	}
	if err := engine.CheckAnalysis(s.Alpha, s.LaggardThresholdSec, s.BytesPerPartition); err != nil {
		return fmt.Errorf("scenario: %w", err)
	}
	return nil
}
