// Package trainer drives any algos.Algorithm round by round over a simulated
// bandwidth environment, evaluating the global (worker-averaged) model
// periodically and recording the accuracy / traffic / simulated-time series
// from which every figure and table of the paper's evaluation is
// regenerated.
package trainer

import (
	"fmt"

	"sapspsgd/internal/algos"
	"sapspsgd/internal/dataset"
	"sapspsgd/internal/netsim"
	"sapspsgd/internal/nn"
	"sapspsgd/internal/tensor"
)

// Config controls one training run.
type Config struct {
	// Rounds is the number of communication rounds T.
	Rounds int
	// EvalEvery evaluates the global model every this many rounds (and
	// always on the final round). Values < 1 default to Rounds/20.
	EvalEvery int
	// Valid is the held-out evaluation set.
	Valid *dataset.Dataset
	// BatchesPerEpoch converts rounds to epochs in the records (0 disables
	// the conversion).
	BatchesPerEpoch int
}

// Record is one evaluation point of a run.
type Record struct {
	Round     int
	Epoch     float64
	TrainLoss float64
	ValLoss   float64
	ValAcc    float64
	// TrafficMB is the mean cumulative per-worker communication volume in
	// megabytes (the x-axis of Fig. 4).
	TrafficMB float64
	// TimeSec is the cumulative simulated communication time in seconds
	// (the x-axis of Fig. 6).
	TimeSec float64
}

// Result is a full run: the algorithm name, its evaluation series, and the
// final ledger.
type Result struct {
	Algorithm string
	Records   []Record
	Ledger    *netsim.Ledger
}

// Final returns the last record (zero value if none).
func (r Result) Final() Record {
	if len(r.Records) == 0 {
		return Record{}
	}
	return r.Records[len(r.Records)-1]
}

// FirstReaching returns the first record with ValAcc >= target, and whether
// one exists — the "traffic/time to reach target accuracy" query of
// Table IV.
func (r Result) FirstReaching(target float64) (Record, bool) {
	for _, rec := range r.Records {
		if rec.ValAcc >= target {
			return rec, true
		}
	}
	return Record{}, false
}

// Run trains alg for cfg.Rounds rounds over the bandwidth environment. An
// algorithm holding background resources (the engine's executors) exposes
// Close; Run releases it when the run completes, so the algorithm cannot be
// stepped again afterwards (its models and diagnostics stay readable).
func Run(alg algos.Algorithm, bw *netsim.Bandwidth, cfg Config) Result {
	if cfg.Rounds < 1 {
		panic(fmt.Sprintf("trainer: rounds %d", cfg.Rounds))
	}
	if c, ok := alg.(interface{ Close() }); ok {
		defer c.Close()
	}
	evalEvery := cfg.EvalEvery
	if evalEvery < 1 {
		evalEvery = cfg.Rounds / 20
		if evalEvery < 1 {
			evalEvery = 1
		}
	}
	led := netsim.NewLedger(bw)
	res := Result{Algorithm: alg.Name(), Ledger: led}
	recentLoss := 0.0
	for t := 0; t < cfg.Rounds; t++ {
		recentLoss = alg.Step(t, led)
		if (t+1)%evalEvery == 0 || t == cfg.Rounds-1 {
			vl, va := 0.0, 0.0
			if cfg.Valid != nil {
				vl, va = EvalMean(alg.Models(), cfg.Valid)
			}
			rec := Record{
				Round:     t + 1,
				TrainLoss: recentLoss,
				ValLoss:   vl,
				ValAcc:    va,
				TrafficMB: led.MeanWorkerTrafficMB(),
				TimeSec:   led.TotalTime(),
			}
			if cfg.BatchesPerEpoch > 0 {
				rec.Epoch = float64(t+1) / float64(cfg.BatchesPerEpoch)
			}
			res.Records = append(res.Records, rec)
		}
	}
	return res
}

// EvalMean evaluates the parameter average of the given models on the
// validation set, using the first model's instance (and hence its
// normalization running statistics) as the evaluation vehicle. The model's
// parameters are restored afterwards.
func EvalMean(models []*nn.Model, valid *dataset.Dataset) (loss, acc float64) {
	if len(models) == 0 {
		return 0, 0
	}
	host := models[0]
	if len(models) == 1 {
		return nn.EvaluateDataset(host, valid, 128)
	}
	dim := host.ParamCount()
	mean := tensor.GetVec(dim)
	flat := tensor.GetVecRaw(dim)  // fully written by FlatParams
	saved := tensor.GetVecRaw(dim) // fully written by FlatParams
	defer func() {
		tensor.PutVec(mean)
		tensor.PutVec(flat)
		tensor.PutVec(saved)
	}()
	for _, m := range models {
		tensor.Axpy(1/float64(len(models)), m.FlatParams(flat), mean)
	}
	saved = host.FlatParams(saved)
	host.SetFlatParams(mean)
	loss, acc = nn.EvaluateDataset(host, valid, 128)
	host.SetFlatParams(saved)
	return loss, acc
}

// Consensus returns Σ_i ‖x_i − x̄‖² across the models — the disagreement
// quantity bounded by Theorem 1.
func Consensus(models []*nn.Model) float64 {
	if len(models) < 2 {
		return 0
	}
	dim := models[0].ParamCount()
	mean := tensor.GetVec(dim)
	defer tensor.PutVec(mean)
	flats := make([][]float64, len(models))
	for i, m := range models {
		flats[i] = m.FlatParams(tensor.GetVecRaw(dim))
		tensor.Axpy(1/float64(len(models)), flats[i], mean)
	}
	total := 0.0
	for _, f := range flats {
		for j := range f {
			d := f[j] - mean[j]
			total += d * d
		}
	}
	for _, f := range flats {
		tensor.PutVec(f)
	}
	return total
}
