// Co-simulation example: check the analytical model against the
// discrete-event simulator. The OFDM transmitter is partitioned once; the
// profiled trace then replays on the simulated platform — first at the
// model's own operating point (where the two agree cycle for cycle), then
// with frame pipelining and configuration prefetch, where the simulator
// measures what the closed-form model only idealizes.
package main

import (
	"context"
	"fmt"
	"log"

	"hybridpart"
)

func main() {
	w, err := hybridpart.BenchmarkWorkload(hybridpart.BenchOFDM, 1)
	if err != nil {
		log.Fatal(err)
	}
	eng, err := hybridpart.NewEngine(hybridpart.WithConstraint(60000))
	if err != nil {
		log.Fatal(err)
	}

	// The model's operating point: one frame, one transfer port, no
	// prefetch. Validation.Exact reports cycle-for-cycle agreement.
	rep, err := eng.Simulate(context.Background(), w)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("single frame: simulated %d cycles, model %d (exact: %v)\n",
		rep.TotalCycles, rep.Validation.ModelFinalCycles, rep.Validation.Exact)
	fmt.Printf("fine-grain utilization %.1f%%, coarse-grain %.1f%%\n\n",
		100*rep.Fine.Utilization, 100*rep.Coarse.Utilization)

	// A 16-frame stream with prefetch: the event-level pipeline vs the
	// idealized two-stage model.
	eng, err = hybridpart.NewEngine(hybridpart.WithConstraint(60000),
		hybridpart.WithSimFrames(16), hybridpart.WithSimPrefetch(true))
	if err != nil {
		log.Fatal(err)
	}
	rep, err = eng.Simulate(context.Background(), w)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(rep.Format())
}
