// Package autopilot closes the self-driving loop the paper leaves open:
// TScout collects training data, models learn OU behavior, and this
// controller feeds the models' own error back into the collection policy.
// On every virtual-time epoch it consumes the archive segments sealed
// since the last tick (an incremental tail read — never a re-scan),
// refreshes the online models with a bounded mini-batch fit, scores the
// prequential per-subsystem error, and retunes each subsystem's sampling
// rate: converged subsystems throttle toward a near-zero floor, drifting
// ones burst back to full sampling until the models re-learn.
//
// Determinism: ticks fire from the workload driver's OnDrain hook at
// virtual-time-scheduled points (never a wall clock); Sampler.SetRate
// draws from per-subsystem noise streams, so retuning one subsystem
// cannot perturb another's sampling field; model refreshes are seeded
// pure functions of their inputs. A same-seed run with the controller
// attached is therefore bit-reproducible, and a run without it is
// untouched (the golden fingerprint never sees this package).
package autopilot

import (
	"tscout/internal/archive"
	"tscout/internal/model"
	"tscout/internal/tscout"
)

// Sampling-rate bounds (percent) of the rate policy.
const (
	// minRate is the floor a converged subsystem throttles toward — never
	// fully blind, so drift remains detectable.
	minRate = 1
	// maxRate is the burst rate a drifting subsystem jumps to.
	maxRate = 100
)

// Config tunes the controller. The zero value is usable: drift at 2x
// baseline error, converge below 1.25x, windowed-forest models.
type Config struct {
	// DriftRatio is the recent/baseline prequential-error ratio at or
	// above which a subsystem is declared drifting (default 2).
	DriftRatio float64
	// ConvergeRatio is the ratio at or below which a subsystem may
	// throttle (default 1.25).
	ConvergeRatio float64
	// MinSamples is the number of scored predictions a subsystem needs
	// before the controller will throttle it (default 200). Bursting on
	// drift is never gated — reacting late to drift costs accuracy,
	// reacting late to convergence only costs overhead.
	MinSamples int64
	// HWContext is appended to every point's features, as in the batch
	// pipeline (model.FromArchive).
	HWContext []float64
	// NewModel constructs the per-(OU, arity) online model (default
	// WindowedForest{Trees: 8, RefreshTrees: 2, Seed: 7}).
	NewModel func() model.OnlineModel
}

func (c Config) withDefaults() Config {
	if c.DriftRatio <= 0 {
		c.DriftRatio = 2
	}
	if c.ConvergeRatio <= 0 {
		c.ConvergeRatio = 1.25
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 200
	}
	if c.NewModel == nil {
		c.NewModel = func() model.OnlineModel {
			return &model.WindowedForest{Trees: 8, RefreshTrees: 2, MaxDepth: 8, Seed: 7}
		}
	}
	return c
}

// Controller is the online-retraining loop. Create with New, wire
// Hook() into workload.Config.OnDrain (or call Tick directly from any
// deterministic schedule), and read progress from ProcessorStats.Autopilot.
type Controller struct {
	cfg     Config
	ts      *tscout.TScout
	surface *model.ErrorSurface
	set     *model.OnlineSet

	tail     []byte                     // sealed segments not yet consumed
	tailSegs int64                      // segment count in tail
	stats    tscout.AutopilotStats      // last published self-report
	drifting [tscout.NumSubsystems]bool // current drift latch
}

// New builds a controller reading sealed segments from w and driving the
// sampler of ts. It registers itself as w's seal listener; the archive
// keeps writing to its destination unchanged.
func New(ts *tscout.TScout, w *archive.Writer, cfg Config) *Controller {
	st := tscout.AutopilotStats{Enabled: true}
	for i := range st.Rates {
		st.Rates[i] = -1 // untouched until the controller first retunes it
	}
	c := &Controller{
		cfg:     cfg.withDefaults(),
		ts:      ts,
		surface: &model.ErrorSurface{},
		stats:   st,
	}
	c.set = model.NewOnlineSet(c.cfg.NewModel)
	if w != nil {
		w.SetOnSeal(c.onSeal)
	}
	c.publish() // visible as attached before the first tick
	return c
}

// onSeal buffers one sealed segment's wire bytes for the next tick. The
// Writer notifies in seal order, so the buffered tail is always a
// NewReader-parsable run.
func (c *Controller) onSeal(seg []byte) {
	c.tail = append(c.tail, seg...)
	c.tailSegs++
}

// Hook returns the function to install as workload.Config.OnDrain.
func (c *Controller) Hook() func(nowNS int64) {
	return func(int64) { c.Tick() }
}

// Tick is one controller epoch: consume the sealed tail, refresh models,
// score drift, retune rates, publish stats. Exposed so harnesses with
// their own drain schedule (chaos tests, tsctl) can drive epochs
// directly. Returns the number of archive rows absorbed.
func (c *Controller) Tick() int {
	tail := c.tail
	segs := c.tailSegs
	c.tail = nil
	c.tailSegs = 0

	absorbed := 0
	if len(tail) > 0 {
		// The tail is a run of consecutively sealed segments; NewReader
		// accepts any such run (only row-index rewinds are rejected), so
		// incremental consumption needs no full-archive re-scan.
		if r, err := archive.NewReader(tail); err == nil {
			if pts, err := model.FromArchive(r, c.cfg.HWContext); err == nil {
				c.set.ObservePrequential(pts, c.surface)
				_ = c.set.Refit() // soft failures keep prior predictors
				absorbed = len(pts)
			}
		}
		// A corrupt tail is dropped, not retried: the archive's own
		// destination still has the bytes, and the next seal starts a
		// fresh consecutive run.
	}

	c.stats.Epochs++
	c.stats.Segments += segs
	if absorbed > 0 {
		c.stats.Refits++
		c.stats.PointsConsumed += int64(absorbed)
	}
	for _, sub := range tscout.AllSubsystems {
		c.retune(sub)
	}
	c.publish()
	return absorbed
}

// retune applies the rate policy to one subsystem.
func (c *Controller) retune(sub tscout.SubsystemID) {
	ratio := c.surface.DriftRatio(sub)
	samples := c.surface.Samples(sub)
	cur := c.ts.Sampler().Rate(sub)
	c.stats.RecentErrUS[sub] = c.surface.Recent(sub)
	c.stats.BaselineErrUS[sub] = c.surface.Baseline(sub)

	switch {
	case ratio >= c.cfg.DriftRatio && samples > 0:
		// Burst: the models stopped describing this subsystem. Count the
		// event on the rising edge only, and re-anchor the baseline to
		// the new error level so the ratio tracks recovery from here.
		if !c.drifting[sub] {
			c.drifting[sub] = true
			c.stats.DriftEvents[sub]++
			c.surface.Reanchor(sub)
		}
		c.stats.Converged[sub] = false
		if cur != maxRate {
			c.ts.Sampler().SetRate(sub, maxRate)
		}
		c.stats.Rates[sub] = maxRate
	case ratio <= c.cfg.ConvergeRatio && samples >= c.cfg.MinSamples:
		// Converged: halve toward the floor — geometric descent reaches
		// near-zero overhead in a few epochs but never goes blind.
		c.drifting[sub] = false
		next := cur / 2
		if next < minRate {
			next = minRate
		}
		if next != cur {
			c.ts.Sampler().SetRate(sub, next)
		}
		c.stats.Rates[sub] = next
		c.stats.Converged[sub] = next == minRate
	default:
		// Hold: not enough evidence either way.
		c.drifting[sub] = false
		c.stats.Rates[sub] = cur
		c.stats.Converged[sub] = false
	}
}

// publish pushes the self-report into the Processor.
func (c *Controller) publish() {
	c.ts.Processor().SetAutopilotStats(c.stats)
}

// Stats returns the controller's current self-report (the same block
// published into ProcessorStats.Autopilot).
func (c *Controller) Stats() tscout.AutopilotStats { return c.stats }

// ModelSet exposes the online models, e.g. for held-out evaluation at
// the end of a frontier run.
func (c *Controller) ModelSet() *model.OnlineSet { return c.set }

// NoteHardwareChange tells the controller the hardware context shifted
// (clock change, migration): every subsystem bursts to maxRate and the
// error baselines re-anchor, because behavior models trained under the
// old context are suspect until re-scored.
//
//tsvet:ignore unused-export test hook until the controller detects a hardware change itself; the autopilot and chaos tests drive it
func (c *Controller) NoteHardwareChange() {
	for _, sub := range tscout.AllSubsystems {
		if !c.drifting[sub] {
			c.drifting[sub] = true
			c.stats.DriftEvents[sub]++
		}
		c.surface.Reanchor(sub)
		c.stats.Converged[sub] = false
		if c.ts.Sampler().Rate(sub) != maxRate {
			c.ts.Sampler().SetRate(sub, maxRate)
		}
		c.stats.Rates[sub] = maxRate
	}
	c.publish()
}
