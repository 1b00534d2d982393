package netsim

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"sapspsgd/internal/graph"
	"sapspsgd/internal/rng"
	"sapspsgd/internal/tensor"
)

func TestFourteenCitiesShape(t *testing.T) {
	bw := FourteenCities()
	if bw.N != 14 || len(Cities) != 14 {
		t.Fatalf("N = %d", bw.N)
	}
	for i := 0; i < 14; i++ {
		if bw.MBps(i, i) != 0 {
			t.Fatalf("diagonal %d not zero", i)
		}
		for j := 0; j < 14; j++ {
			if bw.MBps(i, j) != bw.MBps(j, i) {
				t.Fatalf("asymmetric at (%d,%d)", i, j)
			}
		}
	}
}

func TestFourteenCitiesKnownValues(t *testing.T) {
	bw := FourteenCities()
	// AliBeijing <-> AliShanghai: min(1.3, 1.3)/8 MB/s.
	if got, want := bw.MBps(0, 1), 1.3/8; math.Abs(got-want) > 1e-12 {
		t.Fatalf("Beijing-Shanghai = %v, want %v", got, want)
	}
	// AmaFrankfurt <-> AmaLondon: min(331.2, 276.2)/8.
	if got, want := bw.MBps(6, 7), 276.2/8; math.Abs(got-want) > 1e-12 {
		t.Fatalf("Frankfurt-London = %v, want %v", got, want)
	}
	// AliBeijing <-> AmaLondon is the paper's bottleneck link: min(1.6, 0.2)/8.
	if got, want := bw.MBps(0, 7), 0.2/8; math.Abs(got-want) > 1e-12 {
		t.Fatalf("Beijing-London = %v, want %v", got, want)
	}
}

func TestRandomUniformRange(t *testing.T) {
	r := rng.New(1)
	bw := RandomUniform(32, 0, 5, r)
	if bw.N != 32 {
		t.Fatal("N")
	}
	for i := 0; i < 32; i++ {
		for j := 0; j < 32; j++ {
			v := bw.MBps(i, j)
			if i == j {
				if v != 0 {
					t.Fatal("diagonal")
				}
				continue
			}
			if v <= 0 || v > 5 {
				t.Fatalf("bandwidth %v out of (0,5]", v)
			}
			if v != bw.MBps(j, i) {
				t.Fatal("asymmetric")
			}
		}
	}
}

// Rounds returns the number of completed rounds (a test probe).
func (l *Ledger) Rounds() int { return l.rounds }

func TestFilterAndEdges(t *testing.T) {
	bw := NewBandwidth([][]float64{
		{0, 10, 1},
		{10, 0, 5},
		{1, 5, 0},
	})
	edges := bw.AppendEdges(nil, 4)
	if len(edges) != 2 || edges[0].U != 0 || edges[0].V != 1 || edges[1].U != 1 || edges[1].V != 2 {
		t.Fatalf("AppendEdges = %v", edges)
	}
	g := graph.NewFromEdges(bw.N, bw.AppendEdges(nil, 4))
	if !g.IsConnected() {
		t.Fatal("filtered graph should be connected at thresh 4")
	}
	if g2 := graph.NewFromEdges(bw.N, bw.AppendEdges(nil, 100)); g2.IsConnected() {
		t.Fatal("filtered graph should be disconnected at thresh 100")
	}
}

func TestSymmetrizationUsesMin(t *testing.T) {
	bw := NewBandwidth([][]float64{
		{0, 9},
		{3, 0},
	})
	if bw.MBps(0, 1) != 3 || bw.MBps(1, 0) != 3 {
		t.Fatalf("min symmetrization failed: %v", bw.MBps(0, 1))
	}
}

func TestClusteredFasterInside(t *testing.T) {
	r := rng.New(2)
	bw := Clustered(16, 4, 100, 1, r)
	// Same cluster (i%4 == j%4) should on average be much faster.
	var inSum, outSum float64
	var inN, outN int
	for i := 0; i < 16; i++ {
		for j := i + 1; j < 16; j++ {
			if i%4 == j%4 {
				inSum += bw.MBps(i, j)
				inN++
			} else {
				outSum += bw.MBps(i, j)
				outN++
			}
		}
	}
	if inSum/float64(inN) < 10*outSum/float64(outN) {
		t.Fatalf("intra-cluster %v not >> inter-cluster %v", inSum/float64(inN), outSum/float64(outN))
	}
}

func TestLedgerExchange(t *testing.T) {
	bw := NewBandwidth([][]float64{
		{0, 2},
		{2, 0},
	})
	l := NewLedger(bw)
	l.Exchange(0, 1, 1e6, 1e6) // 1MB each way over a 2MB/s link
	rt := l.EndRound()
	if math.Abs(rt-1.0) > 1e-9 { // 2MB total / 2MB/s = 1s for each endpoint
		t.Fatalf("round time = %v, want 1.0", rt)
	}
	s0, r0 := l.WorkerBytes(0)
	s1, r1 := l.WorkerBytes(1)
	if s0 != 1e6 || r0 != 1e6 || s1 != 1e6 || r1 != 1e6 {
		t.Fatalf("bytes: %d %d %d %d", s0, r0, s1, r1)
	}
	if !l.ConservationOK() {
		t.Fatal("conservation violated")
	}
	if l.Rounds() != 1 || l.TotalTime() != rt {
		t.Fatal("round accounting")
	}
}

func TestLedgerRoundTimeIsMax(t *testing.T) {
	bw := NewBandwidth([][]float64{
		{0, 10, 1},
		{10, 0, 1},
		{1, 1, 0},
	})
	l := NewLedger(bw)
	l.Exchange(0, 1, 1e6, 1e6) // fast pair: 0.2s
	l.Exchange(0, 2, 1e6, 0)   // slow link: adds 1s to workers 0 and 2
	rt := l.EndRound()
	if math.Abs(rt-1.2) > 1e-9 { // worker 0: 0.2 + 1.0
		t.Fatalf("round time = %v, want 1.2", rt)
	}
}

func TestLedgerServerTransfer(t *testing.T) {
	bw := NewBandwidth([][]float64{{0, 1}, {1, 0}})
	l := NewLedger(bw)
	l.ServerTransfer(0, 500, 1500, 2)
	if l.ServerBytes() != 2000 {
		t.Fatalf("ServerBytes = %d", l.ServerBytes())
	}
	if !l.ConservationOK() {
		t.Fatal("server conservation violated")
	}
	rt := l.EndRound()
	if math.Abs(rt-0.001) > 1e-9 { // 2000B / 2MB/s
		t.Fatalf("round time = %v", rt)
	}
}

func TestLedgerSelfExchangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	l := NewLedger(NewBandwidth([][]float64{{0, 1}, {1, 0}}))
	l.Exchange(0, 0, 1, 1)
}

func TestLedgerZeroBandwidthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	l := NewLedger(NewBandwidth([][]float64{{0, 0}, {0, 0}}))
	l.Exchange(0, 1, 1, 1)
}

func TestLedgerConservationProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 2 + r.Intn(10)
		bw := RandomUniform(n, 1, 5, r)
		l := NewLedger(bw)
		for round := 0; round < 5; round++ {
			for k := 0; k < 3; k++ {
				i := r.Intn(n)
				j := r.Intn(n)
				if i == j {
					continue
				}
				l.Exchange(i, j, int64(r.Intn(1000)), int64(r.Intn(1000)))
			}
			l.ServerTransfer(r.Intn(n), int64(r.Intn(1000)), int64(r.Intn(1000)), 5)
			l.EndRound()
		}
		return l.ConservationOK()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMeanWorkerTraffic(t *testing.T) {
	bw := NewBandwidth([][]float64{
		{0, 1, 1},
		{1, 0, 1},
		{1, 1, 0},
	})
	l := NewLedger(bw)
	l.Exchange(0, 1, 100, 200)
	l.Exchange(1, 2, 300, 0)
	wantMean := float64(100+200+200+100+300+300) / 3 / 1e6
	if got := l.MeanWorkerTrafficMB(); math.Abs(got-wantMean) > 1e-12 {
		t.Fatalf("MeanWorkerTrafficMB = %v, want %v", got, wantMean)
	}
}

// TestLedgerStateRoundTrip: a fresh ledger restored from a checkpoint holds
// exactly the captured totals, captures the same bytes again, and keeps
// charging from there like the original.
func TestLedgerStateRoundTrip(t *testing.T) {
	bw := NewBandwidth([][]float64{
		{0, 2, 4},
		{2, 0, 1},
		{4, 1, 0},
	})
	l := NewLedger(bw)
	l.Exchange(0, 1, 1e6, 5e5)
	l.ServerTransfer(2, 300, 700, 3)
	l.EndRound()
	l.Exchange(1, 2, 2e5, 2e5)
	l.EndRound()
	data, err := l.AppendState(nil)
	if err != nil {
		t.Fatal(err)
	}
	r := NewLedger(bw)
	if err := r.RestoreState(data); err != nil {
		t.Fatal(err)
	}
	again, err := r.AppendState(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, data) {
		t.Fatal("a restored ledger captures different bytes")
	}
	check := func(when string, want *Ledger) {
		t.Helper()
		if r.TotalTime() != want.TotalTime() || r.Rounds() != want.Rounds() || r.ServerBytes() != want.ServerBytes() {
			t.Fatalf("%s: restored ledger at %v s / %d rounds / %d server bytes, original at %v / %d / %d", when,
				r.TotalTime(), r.Rounds(), r.ServerBytes(), want.TotalTime(), want.Rounds(), want.ServerBytes())
		}
		for i := 0; i < bw.N; i++ {
			rs, rr := r.WorkerBytes(i)
			ws, wr := want.WorkerBytes(i)
			if rs != ws || rr != wr {
				t.Fatalf("%s: worker %d restored %d/%d bytes, original %d/%d", when, i, rs, rr, ws, wr)
			}
		}
	}
	check("restored", l)
	if s, rcv := r.WorkerBytes(1); s != 5e5+2e5 || rcv != 1e6+2e5 || r.ServerBytes() != 1000 || r.Rounds() != 2 {
		t.Fatalf("restored worker 1 %d/%d bytes, server %d, %d rounds", s, rcv, r.ServerBytes(), r.Rounds())
	}
	for _, led := range []*Ledger{l, r} {
		led.Exchange(0, 2, 4e6, 4e6)
		led.EndRound()
	}
	check("one round on", l)
	if err := NewLedger(NewBandwidth([][]float64{{0, 1}, {1, 0}})).RestoreState(data); err == nil {
		t.Fatal("a 3-worker state restored into a 2-worker ledger")
	}
}

// TestLedgerRestoreRefusesMismatchedState: a state that does not fit the
// ledger is refused with an error naming the section, and the ledger keeps
// what it had. The ledger used to check the sent totals' length only, so a
// received-totals vector of another length was cut or zero-padded by copy
// and the rest of the state restored over it without a word.
func TestLedgerRestoreRefusesMismatchedState(t *testing.T) {
	bw := NewBandwidth([][]float64{{0, 2, 4}, {2, 0, 1}, {4, 1, 0}})
	src := NewLedger(bw)
	src.Exchange(0, 1, 1e6, 5e5)
	src.EndRound()
	good, err := src.AppendState(nil)
	if err != nil {
		t.Fatal(err)
	}
	ints := func(v ...int64) []byte { return tensor.AppendIntVector(nil, v) }
	totals := tensor.AppendWords(tensor.BeginSection(nil, 32), []float64{1.5})
	totals = tensor.AppendInts(totals, []int64{0, 0, 1})
	join := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	for _, c := range []struct {
		name, want string
		data       []byte
	}{
		{"received for another fleet", "received bytes", join(ints(1, 2, 3), ints(4, 5), totals)},
		{"received for a larger fleet", "received bytes", join(ints(1, 2, 3), ints(4, 5, 6, 7), totals)},
		{"sent for another fleet", "sent bytes", join(ints(1, 2), ints(4, 5), totals)},
		{"totals short", "totals", join(ints(1, 2, 3), ints(4, 5, 6), tensor.AppendIntVector(nil, []int64{1, 2}))},
		{"no totals", "totals", join(ints(1, 2, 3), ints(4, 5, 6))},
		{"trailing byte", "follow the last section", append(bytes.Clone(good), 0)},
		{"truncated", "received bytes", good[:40]},
		{"empty", "sent bytes", nil},
	} {
		l := NewLedger(bw)
		err := l.RestoreState(c.data)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one naming %q", c.name, err, c.want)
		}
		for i := 0; i < bw.N; i++ {
			if s, r := l.WorkerBytes(i); s != 0 || r != 0 {
				t.Errorf("%s: a refused state left worker %d at %d/%d bytes", c.name, i, s, r)
			}
		}
		if l.Rounds() != 0 || l.TotalTime() != 0 || l.ServerBytes() != 0 {
			t.Errorf("%s: a refused state moved the ledger's totals", c.name)
		}
	}
}

func TestMeanBandwidth(t *testing.T) {
	bw := NewBandwidth([][]float64{
		{0, 2},
		{2, 0},
	})
	if got := bw.MeanBandwidth(); got != 2 {
		t.Fatalf("MeanBandwidth = %v", got)
	}
}
