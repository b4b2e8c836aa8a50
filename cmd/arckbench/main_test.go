package main

import (
	"testing"

	"arckfs/internal/bench/experiments"
)

// TestEveryExperimentHasAStep keeps the dispatch and the one list of
// experiment names in step: a name without a step would panic at -exp,
// and a step without a name could never run.
func TestEveryExperimentHasAStep(t *testing.T) {
	steps := stepsFor(experiments.Config{}, 0, 0)
	for _, name := range experiments.Names() {
		if _, ok := steps[name]; !ok {
			t.Errorf("experiment %q has no step", name)
		}
		delete(steps, name)
	}
	for name := range steps {
		t.Errorf("step %q is not in experiments.Experiments", name)
	}
}
