// Package experiments regenerates every table and figure of the paper's
// evaluation. Each FigN function runs the corresponding experiment at a
// configurable scale, writes the same rows/series the paper reports to an
// io.Writer, and returns a structured result for programmatic checks
// (tests, benchmarks).
//
// Absolute numbers differ from the paper — the substrates are synthetic
// (see DESIGN.md §2) — but each experiment preserves the published shape:
// who wins, by roughly what factor, and where crossovers fall.
package experiments

import (
	"fmt"
	"io"

	"cisp"
	"cisp/internal/obs"
	"cisp/internal/traffic"
	"cisp/internal/units"
)

// Options configures an experiment run.
type Options struct {
	Scale cisp.Scale
	Seed  int64
	Out   io.Writer // nil discards output

	// MaxCities truncates the scenario's city set when > 0 (test speed-ups).
	MaxCities int

	// Parallelism bounds how many independent figure reproductions RunAll
	// executes concurrently. 0 means GOMAXPROCS; 1 forces sequential runs.
	Parallelism int

	// Span is the figure's trace span, set by RunAll so experiments can
	// hang their stage spans under it. Nil (no tracer, or a figure called
	// directly) is a valid no-op parent.
	Span *obs.Span
}

func (o *Options) out() io.Writer {
	if o.Out == nil {
		return io.Discard
	}
	return o.Out
}

// spanOrRoot opens a stage span under the figure's span when RunAll set
// one, or as a root span on the active tracer when the figure was called
// directly. Either way the result is nil-safe.
func (o *Options) spanOrRoot(name string) *obs.Span {
	if o.Span != nil {
		return o.Span.Child(name)
	}
	return obs.Active().Span(name)
}

// aggregateGbps returns the design throughput target for the scale: the
// paper provisions 100 Gbps at full scale.
func (o *Options) aggregateGbps() float64 {
	switch o.Scale {
	case cisp.ScaleFull:
		return 100
	case cisp.ScaleMedium:
		return 40
	default:
		return 10
	}
}

// simAggregateGbps is the design throughput for the packet-level studies
// (Figs 5 and 11). It is deliberately higher than aggregateGbps so per-link
// loads are large relative to the 1 Gbps series unit: the k² capacity
// quantization is then tight (load 20 Gbps → 25 Gbps capacity), as at the
// paper's 100 Gbps operating point, and saturation appears near 100%% load.
func (o *Options) simAggregateGbps() float64 {
	if o.Scale == cisp.ScaleSmall {
		return 50
	}
	return 100
}

// scenario builds the baseline US scenario for the options.
func (o *Options) scenario() *cisp.Scenario {
	return cisp.NewScenario(cisp.ScenarioConfig{
		Region: cisp.US, Scale: o.Scale, Seed: o.Seed, MaxCities: o.MaxCities,
	})
}

func scaleTo(tm traffic.Matrix, aggregateGbps float64) traffic.Matrix {
	return traffic.ScaleToAggregate(tm, units.Gbps(aggregateGbps))
}

func fprintf(w io.Writer, format string, args ...interface{}) {
	fmt.Fprintf(w, format, args...)
}
