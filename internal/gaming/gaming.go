// Package gaming models the paper's §7.1 thin-client gaming study (Fig 12):
// a speculative-execution client-server loop where the server streams frames
// for every possible player input over conventional (fiber) connectivity,
// and a parallel low-latency (cISP) path carries the player's inputs and the
// tiny "which speculation was right" selection messages. Frame time — input
// to observed output — then tracks the low-latency path instead of the
// conventional one whenever speculation covers the input.
//
// The toy game mirrors the paper's multi-player Pacman variant: four
// possible movement directions, all of which the server speculates on, so
// the hit rate is 1 unless configured otherwise.
package gaming

import "math/rand"

const (
	// processMs is the non-network overhead per frame: server simulation,
	// encode, client decode/render. The paper's "rudimentary
	// implementation" carries substantial overhead.
	processMs = 140
	// directions is the input fan-out the server speculates over (Pacman).
	directions = 4
	// inputs is the number of user inputs a session simulates.
	inputs = 500
)

// Config parameterises a session.
type Config struct {
	// SpecHitRate is the probability the actual input is among the
	// speculated set. With all four directions speculated it is 1; lower it
	// to model richer input spaces.
	SpecHitRate float64

	// Seed drives jitter and speculation misses.
	Seed int64
}

func (c *Config) setDefaults() {
	if c.SpecHitRate == 0 {
		c.SpecHitRate = 1
	}
}

// Result summarises a simulated session.
type Result struct {
	MeanFrameMs float64
	P95FrameMs  float64
	// BandwidthFactor is the fiber-path bandwidth overhead of speculation
	// relative to streaming a single outcome (≈ the four directions on a
	// hit path).
	BandwidthFactor float64
}

// SimulateConventional plays the session over conventional connectivity
// only: every input travels to the server and the resulting frame travels
// back, so frame time = RTT + processing (+ jitter).
func SimulateConventional(convRTTMs float64, cfg Config) Result {
	cfg.setDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	return simulate(func() float64 {
		return convRTTMs + jitteredProcess(rng)
	}, 1)
}

// SimulateAugmented plays the session with the low-latency augmentation: the
// server pre-streams speculated frames for each possible input over the
// conventional path, while inputs and selection messages use the cISP path
// at lowRTTMs. On a speculation hit the observed latency is the low path's
// RTT plus processing; on a miss the client must wait for a conventional
// round trip for the corrected frame.
func SimulateAugmented(convRTTMs, lowRTTMs float64, cfg Config) Result {
	cfg.setDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	return simulate(func() float64 {
		if rng.Float64() < cfg.SpecHitRate {
			return lowRTTMs + jitteredProcess(rng)
		}
		return convRTTMs + jitteredProcess(rng)
	}, directions)
}

func simulate(frame func() float64, bwFactor float64) Result {
	times := make([]float64, inputs)
	sum := 0.0
	for i := range times {
		times[i] = frame()
		sum += times[i]
	}
	// 95th percentile by partial sort.
	p95 := percentile(times, 0.95)
	return Result{
		MeanFrameMs:     sum / inputs,
		P95FrameMs:      p95,
		BandwidthFactor: bwFactor,
	}
}

func jitteredProcess(rng *rand.Rand) float64 {
	return processMs * (0.9 + 0.2*rng.Float64())
}

func percentile(v []float64, q float64) float64 {
	s := append([]float64(nil), v...)
	// insertion sort is fine at these sizes
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	idx := int(q * float64(len(s)-1))
	return s[idx]
}

// FrameTimeCurve evaluates mean frame time across a sweep of conventional
// RTTs, with and without the low-latency augmentation at ratio lowFraction
// (the paper uses 1/3). It returns parallel slices: rtts, conventional mean
// frame times, augmented mean frame times — Fig 12's three columns.
func FrameTimeCurve(rttsMs []float64, lowFraction float64, cfg Config) (conv, aug []float64) {
	for _, rtt := range rttsMs {
		conv = append(conv, SimulateConventional(rtt, cfg).MeanFrameMs)
		aug = append(aug, SimulateAugmented(rtt, rtt*lowFraction, cfg).MeanFrameMs)
	}
	return conv, aug
}
