"""Interval solutions, tightened by boundary refinement.

Approximate mode gives every sample a two-sided interval from one pass over
its chain: the computed value, and that value plus the mass the pass dropped
(see demo 04).  The scenario problem then runs on the intervals, and only
solutions touching the region boundary are refined, which concentrates the
expensive work on the few samples that limit the containment bound.

One pass leaves intervals at most about epsilon / 4 wide, too narrow to move
the bound, so to show the loop at work every interval is widened by a margin,
as a coarse analysis would leave it: every 8th sample far more than the
rest.  Each refinement recomputes the sample's bounds with a tenth of its
drop budget and divides its margin by 10.

Run:  python demos/02_imprecise_refinement.py
"""

import numpy as np

import uctmc
import uctmc.io as uio

model = uctmc.load_model(uctmc.example_model_path("sir20"))
measures = uio.read_measures(uctmc.example_model_path("sir_horizons"))
samples = uctmc.sample_valuations(model, n=50, seed=7)

print("computing interval solutions (every 8th sample widened far more) ...")
intervals, margins = {}, {}
for i, valuation in enumerate(samples.valuations):
    intervals[i] = uctmc.bound_measures(model, valuation, measures, rel_gap=10.0)
    margins[i] = 0.5 if i % 8 == 0 else 1e-3
widths = np.array([float(np.max(iv.width)) for iv in intervals.values()])
print(f"  widest interval of one pass: {widths.max():.2g}")


def widened(i):
    return intervals[i].lower - margins[i], intervals[i].upper + margins[i]


refined_log = []


def refiner(i):
    refined_log.append(i)
    intervals[i] = uctmc.refine_solution(intervals[i], model,
                                         samples.valuations[i], measures)
    margins[i] /= 10.0
    return widened(i)


outcome, etas = uctmc.refine_until(
    [uctmc.IntervalSolution(i, *widened(i), intervals[i].delta)
     for i in range(len(intervals))],
    rho=2.0, beta=0.9, target_gain=0.0, max_iters=10, refiner=refiner)

print("\neta trajectory over refinement iterations:")
for k, eta in enumerate(etas, start=1):
    print(f"  iteration {k}: eta = {eta:.4f}")
print(f"\nrefined {len(refined_log)} solution(s) across "
      f"{len(set(refined_log))} distinct samples")
print(f"final: d* = {outcome.complexity_bound}, "
      f"eta = {outcome.eta[0.9]:.4f} at confidence 0.9")

exact = uctmc.solve_measure_set(model, samples, measures)
precise = uctmc.bound_outcome(exact, 2.0, [0.9], mode="precise")
print(f"for comparison, exact solutions give eta = {precise.eta[0.9]:.4f}")
