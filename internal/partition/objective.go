package partition

import "fmt"

// Objective selects what the move loop optimizes.
//
// ObjectiveModel is the paper's engine: the closed-form t_total (eq. 2) is
// recomputed after every move and the loop stops at the first mapping that
// meets the timing constraint.
//
// ObjectiveSimulated replaces the closed form with executed reality: every
// trajectory prefix is scored by replaying the profiled trace through the
// discrete-event co-simulator (Config.SimCostBatch), and the mapping with the
// minimal simulated makespan wins — closing the estimation-vs-execution gap
// the simulator exposed (frame pipelining, port contention and prefetch are
// invisible to eq. 2, so the model can prefer a partition the simulator
// proves slower).
type Objective int

const (
	// ObjectiveModel optimizes the closed-form t_total (the default).
	ObjectiveModel Objective = iota
	// ObjectiveSimulated optimizes the simulated makespan of each candidate
	// mapping (requires Config.SimCostBatch).
	ObjectiveSimulated
)

// String returns the canonical flag/wire spelling of the objective.
func (o Objective) String() string {
	switch o {
	case ObjectiveModel:
		return "model"
	case ObjectiveSimulated:
		return "sim"
	}
	return fmt.Sprintf("Objective(%d)", int(o))
}

// ParseObjective parses the flag/wire spelling of an objective. The empty
// string selects ObjectiveModel, matching the zero value.
func ParseObjective(s string) (Objective, error) {
	switch s {
	case "", "model":
		return ObjectiveModel, nil
	case "sim", "simulated":
		return ObjectiveSimulated, nil
	}
	return 0, fmt.Errorf(`partition: unknown objective %q (want "model" or "sim")`, s)
}
