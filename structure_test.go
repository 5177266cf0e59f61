package hybridpart

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"hybridpart/internal/analysis"
)

// TestStructureAnalyzeMatchesAnalyze: the App's per-request analysis, which
// weighs a profile against the loop structure Compile built, must equal
// the one-shot analysis.Analyze on a freshly compiled copy of the same
// function — on OFDM, JPEG and the FIR fixture, under the paper's weights
// and under weights that price every operation class differently, and for
// a profile too short to cover every block.
func TestStructureAnalyzeMatchesAnalyze(t *testing.T) {
	type fixture struct {
		name string
		app  *App
		freq []uint64
		src  string
	}
	fir, firProf := compileFIR(t)
	fixtures := []fixture{{"fir", fir, firProf.Freq, firSrc}}
	benches := []string{BenchOFDM}
	if !testing.Short() {
		benches = append(benches, BenchJPEG)
	}
	for _, name := range benches {
		app, prof, err := ProfileBenchmarkCached(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		d, _ := lookupBenchmark(name)
		src, err := d.source()
		if err != nil {
			t.Fatal(err)
		}
		fixtures = append(fixtures, fixture{name, app, prof.Freq, src})
	}
	weights := []analysis.Weights{
		analysis.DefaultWeights(),
		{ALU: 3, Mul: 5, Div: 11, Mem: 7, Call: 13},
	}
	for _, fx := range fixtures {
		entry := fx.app.Entry()
		fresh, err := Compile(fx.src, entry)
		if err != nil {
			t.Fatal(err)
		}
		for wi, w := range weights {
			for _, freq := range [][]uint64{fx.freq, fx.freq[:len(fx.freq)/2]} {
				got := fx.app.analyze(freq, w)
				want := analysis.Analyze(fresh.flat, freq, w)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s weights %d, %d-entry profile: Structure.Analyze differs from Analyze\n got %+v\nwant %+v",
						fx.name, wi, len(freq), got, want)
				}
				if len(got.Kernels) == 0 && len(freq) == len(fx.freq) {
					t.Fatalf("%s: no kernels; the comparison is vacuous", fx.name)
				}
			}
		}
	}
}

// TestSharedAppAnalyzeConcurrent: goroutines analyze and partition one
// freshly compiled App at once — under different kernel orders, weights,
// objectives and scoring tiers — and every result must equal the serial
// run on a separate App. The analysis step used to rewrite the shared
// function's edge lists under a lock; it now only reads the structure
// Compile built, so run this under -race.
func TestSharedAppAnalyzeConcurrent(t *testing.T) {
	configs := [][]Option{
		{WithConstraint(60000)},
		{WithConstraint(60000), withKnobs(func(o *Options) { o.Order = OrderByFreq })},
		{WithConstraint(1), withKnobs(func(o *Options) {
			o.WeightALU, o.WeightMul, o.WeightDiv, o.WeightMem = 2, 3, 5, 1
		})},
		{WithConstraint(60000), WithRerank(3), WithSimFrames(8)},
	}
	for _, d := range scoringDesignPoints {
		configs = append(configs, d.opts)
	}
	type outcome struct {
		an  *Analysis
		res *Result
	}
	run := func(w *Workload, opts []Option) (outcome, error) {
		eng, err := NewEngine(opts...)
		if err != nil {
			return outcome{}, err
		}
		an, err := eng.Analyze(w)
		if err != nil {
			return outcome{}, err
		}
		res, err := eng.Partition(context.Background(), w)
		return outcome{an, res}, err
	}
	ref, err := BenchmarkWorkload(BenchOFDM, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]outcome, len(configs))
	for i, opts := range configs {
		if want[i], err = run(ref, opts); err != nil {
			t.Fatal(err)
		}
	}
	shared, err := BenchmarkWorkload(BenchOFDM, 1)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 4
	errs := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range configs {
				i := (k + g) % len(configs)
				got, err := run(shared, configs[i])
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(got, want[i]) {
					errs <- fmt.Errorf("config %d on goroutine %d: concurrent result differs from the serial one", i, g)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
