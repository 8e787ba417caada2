package main

import (
	"fmt"
	"math/rand"

	"nab"
)

// instanceSchedule is what dispute control decided for one instance.
type instanceSchedule struct {
	mismatch, phase3 bool
}

// oracle is the lockstep reference for one churn round: the paper's
// synchronous model run one instance at a time, which every concurrent
// engine must match.
type oracle struct {
	schedule []instanceSchedule
	disputes string
}

// churnOracle runs one round of the workload on the lockstep runner,
// outside the timed region. The scripted adversaries are stateless and the
// coding seed is the run's, so every round of the run must reproduce this
// schedule and this final dispute set whatever payloads it carries.
func churnOracle(w *workload, env *runEnv) (*oracle, error) {
	cfg, err := w.config(env)
	if err != nil {
		return nil, err
	}
	if cfg.Adversaries, err = w.adversaries(); err != nil {
		return nil, err
	}
	runner, err := nab.NewRunner(cfg)
	if err != nil {
		return nil, err
	}
	payloads := rand.New(rand.NewSource(env.seed))
	o := &oracle{}
	buf := make([]byte, w.Len)
	for k := 1; k <= w.Rounds; k++ {
		payloads.Read(buf)
		ir, err := runner.RunInstance(buf)
		if err != nil {
			return nil, err
		}
		for v, out := range ir.Outputs {
			if string(out) != string(buf) {
				return nil, fmt.Errorf("lockstep instance %d: node %d did not output the input", k, v)
			}
		}
		o.schedule = append(o.schedule, instanceSchedule{ir.Mismatch, ir.Phase3})
	}
	o.disputes = runner.Disputes().String()
	return o, nil
}

// check compares one finished round with the oracle.
func (o *oracle) check(round int, got []instanceSchedule, disputes string, tally *tally) {
	if len(got) != len(o.schedule) {
		tally.fail("round %d: %d instances reported, oracle ran %d", round, len(got), len(o.schedule))
		return
	}
	for i := range got {
		if got[i] != o.schedule[i] {
			tally.fail("round %d instance %d: mismatch/phase3 = %v/%v, lockstep oracle says %v/%v",
				round, i+1, got[i].mismatch, got[i].phase3, o.schedule[i].mismatch, o.schedule[i].phase3)
		}
	}
	if disputes != o.disputes {
		tally.fail("round %d: final dispute set %s, lockstep oracle says %s", round, disputes, o.disputes)
	}
}
