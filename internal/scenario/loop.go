package scenario

import (
	"sapspsgd/internal/algos"
	"sapspsgd/internal/dataset"
	"sapspsgd/internal/engine"
	"sapspsgd/internal/netsim"
	"sapspsgd/internal/nn"
	"sapspsgd/internal/tensor"
)

// Loop configures RunLoop.
type Loop struct {
	// Rounds is the number of synchronous communication rounds T.
	Rounds int
	// Valid, when non-nil, is the held-out set the worker-averaged model
	// is evaluated on every max(1, Rounds/20) rounds and after the last
	// round. nil skips evaluation entirely.
	Valid *dataset.Dataset

	// before advances a time-varying environment ahead of round r and
	// after observes the finished round — Spec.RunFull's hooks.
	before func(r int)
	after  func(r int, stats engine.RoundStats)
}

// EvalPoint is one periodic evaluation of the worker-averaged model, with
// the ledger's cumulative totals at that round: one point of the paper's
// accuracy-vs-epoch, -traffic and -time figures.
type EvalPoint struct {
	// Round counts completed rounds (1-based).
	Round int `json:"round"`
	// TrainLoss is the round's mean local training loss.
	TrainLoss float64 `json:"train_loss"`
	// ValLoss and ValAcc are the averaged model's loss and top-1 accuracy
	// on the held-out set.
	ValLoss float64 `json:"val_loss"`
	ValAcc  float64 `json:"val_acc"`
	// TrafficMB is the mean cumulative per-worker communication volume in
	// megabytes (the x-axis of Fig. 4).
	TrafficMB float64 `json:"traffic_mb"`
	// TimeSec is the cumulative simulated communication time in seconds
	// (the x-axis of Fig. 6).
	TimeSec float64 `json:"sim_seconds"`
}

// Evals is a run's evaluation series in round order.
type Evals []EvalPoint

// Final returns the last point (the zero value if there is none).
func (e Evals) Final() EvalPoint {
	if len(e) == 0 {
		return EvalPoint{}
	}
	return e[len(e)-1]
}

// FirstReaching returns the first point with ValAcc >= target, and whether
// one exists — the "traffic/time to reach target accuracy" query of
// Table IV.
func (e Evals) FirstReaching(target float64) (EvalPoint, bool) {
	for _, p := range e {
		if p.ValAcc >= target {
			return p, true
		}
	}
	return EvalPoint{}, false
}

// LoopResult is what RunLoop measured.
type LoopResult struct {
	// Records is the evaluation series (empty without a validation set).
	Records Evals
	// Ledger is the traffic and simulated-time account the run charged.
	Ledger *netsim.Ledger
	// FinalLoss is the last round's mean local training loss.
	FinalLoss float64
}

// RunLoop is the repository's one synchronous round loop: every in-process
// run of a scenario spec (Spec.RunFull) steps its algorithm here, charging
// led. RunLoop releases the algorithm's engine executors when the run
// completes, so it cannot be stepped again afterwards (its models stay
// readable).
func RunLoop(alg *algos.InProc, led *netsim.Ledger, cfg Loop) LoopResult {
	defer alg.Close()
	res := LoopResult{Ledger: led}
	every := max(1, cfg.Rounds/20)
	for r := 0; r < cfg.Rounds; r++ {
		if cfg.before != nil {
			cfg.before(r)
		}
		stats := alg.Round(r, led)
		res.FinalLoss = stats.Loss
		if cfg.after != nil {
			cfg.after(r, stats)
		}
		if cfg.Valid != nil && ((r+1)%every == 0 || r == cfg.Rounds-1) {
			vl, va := evalMean(alg.Models(), cfg.Valid)
			res.Records = append(res.Records, EvalPoint{
				Round:     r + 1,
				TrainLoss: res.FinalLoss,
				ValLoss:   vl,
				ValAcc:    va,
				TrafficMB: led.MeanWorkerTrafficMB(),
				TimeSec:   led.TotalTime(),
			})
		}
	}
	return res
}

// evalMean evaluates the parameter average of the given models on the
// validation set, using the first model's instance (and hence its
// normalization running statistics) as the evaluation vehicle. The model's
// parameters are restored afterwards.
func evalMean(models []*nn.Model, valid *dataset.Dataset) (loss, acc float64) {
	host := models[0]
	dim := host.ParamCount()
	mean := tensor.GetVec(dim)
	saved := tensor.GetVecRaw(dim) // fully written by FlatParams
	defer func() {
		tensor.PutVec(mean)
		tensor.PutVec(saved)
	}()
	for _, m := range models {
		x, _ := m.Flat()
		tensor.Axpy(1/float64(len(models)), x, mean)
	}
	saved = host.FlatParams(saved)
	host.SetFlatParams(mean)
	loss, acc = nn.EvaluateDataset(host, valid, 128)
	host.SetFlatParams(saved)
	return loss, acc
}
