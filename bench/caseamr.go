package main

import (
	"bytes"
	"fmt"
	"strings"

	"repro/internal/cca"
	"repro/internal/components"
	"repro/internal/harness"
	"repro/internal/mpi"
)

var schedModes = []mpi.SchedulerMode{mpi.Serial, mpi.ConservativeParallel, mpi.OptimisticParallel}

// caseAMR is the case_amr workload: harness.RunCaseStudy on the paper's
// calibrated shock-interface configuration, once per rank scheduler. Pass
// i runs seed+i, so three passes cover the seeds seed, seed+1 and seed+2.
type caseAMR struct {
	e *env
	// cfg is the case study every run starts from; tests shrink it.
	cfg harness.CaseStudyConfig
	// waitsome bounds the MPI_Waitsome share the profile must show.
	waitsomeLo, waitsomeHi float64
	// wiring is the component assembly set-up built, which every run's
	// assembly must equal.
	wiring string
}

func newCaseAMR(e *env) *caseAMR {
	return &caseAMR{e: e, cfg: harness.DefaultCaseStudy(), waitsomeLo: 0.25, waitsomeHi: 0.45}
}

// setup validates the machine and wires the component assembly once, on
// a one-rank world: the reference every run's wiring is checked against.
func (c *caseAMR) setup() error {
	one := c.cfg.World
	one.Procs = 1
	if err := one.Validate(); err != nil {
		return err
	}
	return cca.RunSCMD(mpi.NewWorld(one), func(f *cca.Framework, _ *mpi.Rank) error {
		if _, err := components.BuildApp(f, c.cfg.App); err != nil {
			return err
		}
		var sb strings.Builder
		err := f.WriteDOT(&sb, "case-study-assembly")
		c.wiring = sb.String()
		return err
	})
}

func (c *caseAMR) warm() error { return nil }

func (c *caseAMR) pass(i int) (passResult, error) {
	var pr passResult
	seed := c.e.seed + int64(i)
	var serial []byte
	t0 := now()
	for _, mode := range schedModes {
		cfg := c.cfg
		cfg.World.Seed = seed
		cfg.World = cfg.World.WithScheduler(mode, 0)
		c.e.rec.push("harness", "case."+mode.String(), int(mode)+1)
		t := now()
		res, err := harness.RunCaseStudy(cfg)
		lat := since(t)
		c.e.rec.pop()
		pr.latMS = append(pr.latMS, lat*1e3)
		pr.check(err == nil, "%s seed %d: %v", mode, seed, err)
		if err != nil {
			continue
		}
		// Output checks ride inside the pass but are a few hundred
		// microseconds against seconds of simulation.
		var profile bytes.Buffer
		if err := res.WriteProfile(&profile); err != nil {
			return pr, err
		}
		pr.check(res.AssemblyDOT == c.wiring, "seed %d: %s assembly wiring differs from the one set-up built", seed, mode)
		if mode == mpi.Serial {
			serial = profile.Bytes()
			share := res.TimerShare("MPI_Waitsome()")
			pr.check(share >= c.waitsomeLo && share <= c.waitsomeHi,
				"seed %d: MPI_Waitsome share %.3f outside %.2f-%.2f", seed, share, c.waitsomeLo, c.waitsomeHi)
			pr.check(c.e.checkDigest(fmt.Sprintf("case_amr/seed%d/profile", seed), sha256Hex(serial)),
				"seed %d: profile differs from the golden digest", seed)
			continue
		}
		pr.check(bytes.Equal(profile.Bytes(), serial), "seed %d: %s profile differs from serial", seed, mode)
	}
	pr.wallS = since(t0)
	return pr, nil
}

func (c *caseAMR) derived(map[string]float64) error { return nil }

func (c *caseAMR) close() error { return nil }
