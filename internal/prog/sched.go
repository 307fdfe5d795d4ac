package prog

import "math/rand"

// Scheduler selects mutation operators with multi-armed-bandit
// weights driven by coverage feedback: each operator's weight is its
// Laplace-smoothed average new-coverage yield, mixed with a uniform
// exploration floor so cold operators keep getting tried. Reward
// history decays periodically, so the schedule tracks the campaign
// phase (growth operators dominate early, value-probing operators
// late) instead of averaging over the whole run.
//
// All randomness flows through the caller's RNG and all state updates
// are in deterministic order, so campaigns using a Scheduler remain
// exactly reproducible from their seed. A Scheduler is not safe for
// concurrent use; campaigns own one each.
type Scheduler struct {
	ops      []Operator
	adaptive bool
	// trials and rewards are the decayed bandit state.
	trials  []float64
	rewards []float64
	// sinceDecay counts rewards since the last halving.
	sinceDecay int
	// wbuf is what weights fills and returns: valid until the next
	// Pick, never handed to a caller.
	wbuf []float64
}

// Bandit constants: the smoothing prior (a cold operator is assumed
// to yield priorReward new blocks per priorTrials attempts), the
// uniform exploration floor, and the sliding-window decay period.
const (
	schedPriorReward = 0.5
	schedPriorTrials = 8.0
	schedExplore     = 0.15
	schedDecayEvery  = 1024
)

// NewScheduler returns an adaptive scheduler over the given operators
// (DefaultOperators when none are given).
func NewScheduler(ops ...Operator) *Scheduler {
	return newScheduler(true, ops)
}

// NewUniformScheduler returns a scheduler that ignores feedback and
// picks operators uniformly at random — the ablation baseline.
func NewUniformScheduler(ops ...Operator) *Scheduler {
	return newScheduler(false, ops)
}

func newScheduler(adaptive bool, ops []Operator) *Scheduler {
	if len(ops) == 0 {
		ops = DefaultOperators()
	}
	return &Scheduler{
		ops:      ops,
		adaptive: adaptive,
		trials:   make([]float64, len(ops)),
		rewards:  make([]float64, len(ops)),
		wbuf:     make([]float64, len(ops)),
	}
}

// Ops returns the scheduled operator set in canonical order.
func (s *Scheduler) Ops() []Operator { return s.ops }

// Pick selects the next operator index, drawing from r.
func (s *Scheduler) Pick(r *rand.Rand) int {
	var idx int
	if !s.adaptive {
		idx = r.Intn(len(s.ops))
	} else {
		weights, total := s.weights()
		t := r.Float64() * total
		idx = len(s.ops) - 1
		for i, w := range weights {
			if t < w {
				idx = i
				break
			}
			t -= w
		}
	}
	return idx
}

// weights returns the unnormalized selection weights, in s.wbuf, and
// their sum.
func (s *Scheduler) weights() ([]float64, float64) {
	weights := s.wbuf
	var yieldSum float64
	for i := range s.ops {
		weights[i] = (s.rewards[i] + schedPriorReward) / (s.trials[i] + schedPriorTrials)
		yieldSum += weights[i]
	}
	// Mix in the exploration floor: explore/K uniform mass each, the
	// rest proportional to smoothed yield.
	uniform := yieldSum / float64(len(s.ops))
	var total float64
	for i := range weights {
		weights[i] = schedExplore*uniform + (1-schedExplore)*weights[i]
		total += weights[i]
	}
	return weights, total
}

// Reward credits operator op with the number of new coverage blocks
// its last mutation found (zero is a valid observation: it teaches
// the scheduler the operator is currently dry).
func (s *Scheduler) Reward(op int, newBlocks int) {
	s.trials[op]++
	s.rewards[op] += float64(newBlocks)
	if s.sinceDecay++; s.sinceDecay >= schedDecayEvery {
		s.sinceDecay = 0
		for i := range s.trials {
			s.trials[i] /= 2
			s.rewards[i] /= 2
		}
	}
}
