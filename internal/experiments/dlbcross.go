// E15: delivery strategies x runtime rebalancing. The paper evaluates
// early-bird delivery under a fixed thread layout; the DLB library
// (LeWI, DROM) attacks the same imbalance from the other side, by moving
// threads instead of moving data earlier. E15 crosses the two axes to
// answer the question neither work asks alone: does early-bird delivery
// still pay once the runtime rebalances?

package experiments

import (
	"fmt"
	"io"

	"earlybird/internal/analysis"
	"earlybird/internal/dlb"
	"earlybird/internal/partcomm"
)

// E15Policies returns the rebalancing axis of the E15 cross: the
// paper's static layout plus LeWI and DROM at their default parameters,
// in canonical (resolved) form.
func E15Policies() []dlb.Spec {
	policies := []dlb.Spec{{}, {Policy: dlb.PolicyLeWI}, {Policy: dlb.PolicyDROM}}
	for i, p := range policies {
		resolved, err := p.Resolve()
		if err != nil {
			panic(err) // the built-in axis is always valid
		}
		policies[i] = resolved
	}
	return policies
}

// E15Cell is one (application, rebalancing policy) cell of the E15
// cross: the delivery-strategy sweep on that policy's dataset, plus the
// imbalance statistics the policy leaves behind.
type E15Cell struct {
	App    string
	Policy dlb.Spec
	// LaggardFraction and MeanMedianSec describe the rebalanced data the
	// strategies ran against: how much straggling the policy removed (or
	// introduced) before delivery strategies see the blocks.
	LaggardFraction float64
	MeanMedianSec   float64
	// Sweep is the full delivery-strategy evaluation on this cell.
	Sweep partcomm.Sweep
}

// E15DLBCross evaluates the standard delivery-strategy grid against
// datasets generated under every rebalancing policy — app-major, policy
// order as E15Policies — entirely on the columnar cursor path. Each
// (app, policy) dataset is a distinct engine cache entry, so repeated
// renders are cache-served.
func (s *Suite) E15DLBCross() []E15Cell {
	policies := E15Policies()
	cells := make([]E15Cell, 0, len(AppNames)*len(policies))
	for _, app := range AppNames {
		for _, policy := range policies {
			col, _, err := s.eng.ColumnarDLB(s.models[app], s.cfg.Cluster, policy)
			if err != nil {
				panic(fmt.Sprintf("experiments: %s under %s: %v", app, policy.Name(), err))
			}
			metrics := analysis.ComputeMetricsStreaming(app, col.Cursor(), s.cfg.LaggardThresholdSec)
			cells = append(cells, E15Cell{
				App:             app,
				Policy:          policy,
				LaggardFraction: metrics.LaggardFraction,
				MeanMedianSec:   metrics.MeanMedianSec,
				Sweep: partcomm.GridSweep(col, s.cfg.BytesPerPartition, s.cfg.Fabric,
					s.E14StrategyTimeouts(), []float64{0.2}, s.cfg.LaggardThresholdSec),
			})
		}
	}
	return cells
}

// WriteDLBReport renders the E15 cross as a table — one row per (app,
// policy) cell with the residual imbalance and the strategy frontier —
// and closes with the headline comparison: the best strategy's speedup
// over bulk under each policy. It is the renderer behind cmd/repro
// -exp dlb and the E15 golden test.
func (s *Suite) WriteDLBReport(w io.Writer) {
	fmt.Fprintln(w, "== E15: delivery strategies x runtime rebalancing (LeWI/DROM) ==")
	cells := s.E15DLBCross()
	byApp := map[string][]E15Cell{}
	for _, c := range cells {
		byApp[c.App] = append(byApp[c.App], c)
	}
	for _, app := range AppNames {
		fmt.Fprintf(w, "%s:\n", app)
		fmt.Fprintf(w, "  %-8s  %-10s  %-12s  %-24s  %-12s  %s\n",
			"policy", "laggards", "median", "best strategy", "finish", "vs bulk")
		for _, c := range byApp[app] {
			best := bestResult(c.Sweep)
			fmt.Fprintf(w, "  %-8s  %8.1f%%  %9.3f ms  %-24s  %9.3f ms  %5.3fx\n",
				c.Policy.Name(), 100*c.LaggardFraction, 1e3*c.MeanMedianSec,
				c.Sweep.Best, 1e3*c.Sweep.BestFinishSec, best.SpeedupVsBulk)
		}
	}
	fmt.Fprintln(w, "verdict: early-bird delivery's payoff per rebalancing policy (best-strategy speedup over bulk):")
	for _, app := range AppNames {
		fmt.Fprintf(w, "  %-8s", app)
		for _, c := range byApp[app] {
			best := bestResult(c.Sweep)
			fmt.Fprintf(w, "  %s %5.3fx", c.Policy.Name(), best.SpeedupVsBulk)
		}
		fmt.Fprintln(w)
	}
}

// bestResult finds the frontier row of a sweep (the row Best names).
func bestResult(sw partcomm.Sweep) partcomm.Result {
	for _, r := range sw.Results {
		if r.Strategy == sw.Best {
			return r
		}
	}
	return partcomm.Result{}
}
