package main

import (
	"fmt"
	"strconv"
	"time"

	"visa/internal/conform"
	"visa/internal/fault"
	"visa/internal/obs"
	"visa/internal/rt"
)

// Conformance corpus sizes. The anchor corpus is pinned (its report hash
// and timing-run count are goldens); the timed corpus derives from -seed.
const (
	conformBatch        = 100 // programs per engine run in the timed phase
	conformAnchorSeed   = 1
	conformAnchorN      = 100
	quickConformBatch   = 10
	quickConformAnchorN = 10
)

// conformCorpus pushes seeded random programs through the conformance
// oracle (exec, simple, OOO simple mode and WCET in lockstep) on a
// two-worker engine: the same layers as eval-steady, used as thousands of
// short programs with cold models, where construction, GC, oracle hashing
// and small-CFG analysis dominate rather than the Feed loops. Set-up is a
// warm-up run of the pinned anchor corpus, checked against its golden.
type conformCorpus struct {
	cfg     config
	batch   int
	anchorN int
	batches int
}

func newConformCorpus(cfg config) workload {
	c := &conformCorpus{cfg: cfg, batch: conformBatch, anchorN: conformAnchorN}
	if cfg.quick {
		c.batch, c.anchorN = quickConformBatch, quickConformAnchorN
	}
	return c
}

// window is one batch of generated programs.
func (c *conformCorpus) window() int { return c.batch }

func (c *conformCorpus) setup(r *runner) error {
	rep, err := (&rt.Engine{Workers: workers}).Run(
		conform.CampaignPlan(nil, conform.Campaign{Seed: conformAnchorSeed, N: c.anchorN}))
	if err != nil {
		return err
	}
	if rep.Failed > 0 {
		return fmt.Errorf("anchor corpus: %w", rep.Err())
	}
	r.gold.golden(goldenKey(c.cfg, fmt.Sprintf("conform/anchor/n%d", c.anchorN)), rt.ReportHash(rep.Text))
	return nil
}

func (c *conformCorpus) measure(r *runner, until time.Time) error {
	for ; c.batches == 0 || now().Before(until); c.batches++ {
		camp := conform.Campaign{Seed: fault.DeriveSeed(c.cfg.seed, uint64(c.batches)), N: c.batch}
		plan := conform.CampaignPlan(nil, camp)
		parent := r.spans.begin(0, "rt.Engine.Run/conform", int64(c.batches))
		for i := range plan.Jobs {
			inner := plan.Jobs[i].Run
			req := int64(c.batches*c.batch + i)
			plan.Jobs[i].Run = func(sink *obs.Sink) (rt.JobResult, error) {
				start := now()
				id := r.spans.begin(parent, "conform.program", req)
				res, err := inner(sink)
				r.spans.end(id)
				r.op(strconv.FormatInt(req, 10), start, err) // every program is its own kind
				if row, ok := res.Custom.(*conform.Row); ok && err == nil {
					r.addSimInsts(row.DynInsts * int64(row.Runs))
				}
				return res, err
			}
		}
		rep, err := (&rt.Engine{Workers: workers}).Run(plan)
		r.spans.end(parent)
		if err != nil {
			return err
		}
		if n := len(rep.Results) - rep.Failed; n != c.batch {
			r.gold.fail("conform: batch %d: %d of %d programs conform: %v", c.batches, n, c.batch, rep.Err())
		}
	}
	return nil
}

// verify has nothing left to do: every program was checked by the oracle
// as it ran (a violation fails its job, which counts as a failed
// operation and an incorrect batch).
func (c *conformCorpus) verify(r *runner) error { return nil }

func (c *conformCorpus) close() error { return nil }
