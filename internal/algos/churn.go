package algos

import (
	"fmt"

	"sapspsgd/internal/rng"
)

// ChurnModel describes per-round worker availability dynamics: an active
// worker leaves with probability LeaveProb, an inactive one rejoins with
// probability JoinProb. At least MinActive workers are always kept active
// (the longest-absent workers are recalled first).
type ChurnModel struct {
	LeaveProb float64 `json:"leave_prob"`
	JoinProb  float64 `json:"join_prob"`
	MinActive int     `json:"min_active"`
}

func (c ChurnModel) validate(n int) error {
	if c.LeaveProb < 0 || c.LeaveProb >= 1 || c.JoinProb <= 0 || c.JoinProb > 1 {
		return fmt.Errorf("algos: churn probabilities %v/%v", c.LeaveProb, c.JoinProb)
	}
	if c.MinActive < 2 || c.MinActive > n {
		return fmt.Errorf("algos: MinActive %d of %d", c.MinActive, n)
	}
	return nil
}

// churnProcess iterates a ChurnModel's membership one round at a time: the
// random source of a Membership (paper §I: workers "may join/leave the
// training randomly due to the battery power, network connection, ...").
// Returning workers are re-synchronized by the gossip itself; no recovery
// protocol is needed.
type churnProcess struct {
	model  ChurnModel
	rnd    *rng.Source
	active []bool
	absent []int // rounds since last active (for MinActive recall)
}

func newChurnProcess(n int, seed uint64, model ChurnModel) *churnProcess {
	p := &churnProcess{
		model:  model,
		rnd:    rng.New(seed).Derive(0xc4012),
		active: make([]bool, n),
		absent: make([]int, n),
	}
	for i := range p.active {
		p.active[i] = true
	}
	return p
}

// step flips availability, enforces MinActive by recalling the
// longest-absent workers, and returns the round's membership (the process's
// own slice, rewritten by the next step).
func (p *churnProcess) step() []bool {
	for i := range p.active {
		if p.active[i] {
			if p.rnd.Bernoulli(p.model.LeaveProb) {
				p.active[i] = false
			}
		} else if p.rnd.Bernoulli(p.model.JoinProb) {
			p.active[i] = true
		}
	}
	count := 0
	for _, a := range p.active {
		if a {
			count++
		}
	}
	for count < p.model.MinActive {
		// Recall the longest-absent worker.
		best, bestAbsent := -1, -1
		for i, a := range p.active {
			if !a && p.absent[i] > bestAbsent {
				best, bestAbsent = i, p.absent[i]
			}
		}
		p.active[best] = true
		count++
	}
	for i, a := range p.active {
		if a {
			p.absent[i] = 0
		} else {
			p.absent[i]++
		}
	}
	return p.active
}
