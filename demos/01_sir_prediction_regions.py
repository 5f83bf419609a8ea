"""Prediction regions on SIR extinction curves, end to end.

Samples infection/recovery rates for the SIR(20) epidemic model, model-checks
the probability that the epidemic dies out inside the window [100, t] for 26
horizons t, and computes a gradient of rectangular prediction regions with
high-confidence lower bounds on the containment probability.  Finishes with a
frequentist sanity check on fresh samples.

Run:  python demos/01_sir_prediction_regions.py
"""

import numpy as np

import uctmc
import uctmc.io as uio
from uctmc.scenario import solutions_matrix

model = uctmc.load_model(uctmc.example_model_path("sir20"))
measures = uio.read_measures(uctmc.example_model_path("sir_horizons"))

print("sampling 100 rate valuations ...")
samples = uctmc.sample_valuations(model, n=100, seed=42)
print(f"  accepted {len(samples)}, rejected {samples.rejected_count}")

print("model checking 26 extinction-window measures per sample ...")
solutions = uctmc.solve_measure_set(model, samples, measures)
values = solutions_matrix(solutions)
print(f"  solution matrix {values.shape}, entry range "
      f"[{values.min():.3f}, {values.max():.3f}]")

betas = [0.9, 0.99, 0.999]
print("\nrho      width-sum  relaxed  d*   " + "  ".join(f"eta(b={b})" for b in betas))
outcomes = []
for rho in uctmc.rho_grid(6):
    outcome = uctmc.bound_outcome(solutions, rho, betas, mode="precise")
    outcomes.append(outcome)
    widths = float(np.sum(outcome.region.upper - outcome.region.lower))
    etas = "  ".join(f"{outcome.eta[b]:.3f}   " for b in betas)
    print(f"{rho:7.3f}  {widths:8.3f}  {len(outcome.relaxed):7d}  "
          f"{outcome.complexity_bound:3d}  {etas}")

print("\nturning the widest region into a curve band (t, lower, upper):")
band = uctmc.region_to_curve(outcomes[0].region, measures)
for t, lo, hi in list(zip(band.horizons, band.lower, band.upper))[::5]:
    print(f"  t={t:6.1f}   [{lo:.3f}, {hi:.3f}]")

print("\nfrequentist cross-check on 1000 fresh samples:")
fresh = uctmc.sample_valuations(model, n=1000, seed=2042)
fresh_solutions = uctmc.solve_measure_set(model, fresh, measures)
for outcome in outcomes[:3]:
    observed = uctmc.baseline_frequentist(solutions_matrix(fresh_solutions),
                                          outcome.region)
    print(f"  rho={outcome.rho:.3f}: observed containment {observed:.3f} "
          f"vs eta(0.9)={outcome.eta[0.9]:.3f}")
