"""Approximate bounds from one pass over the full chain.

Approximate mode checks each full chain once.  Where a chain's exit rates
fall (SIR), the adaptive kernel zeroes tiny entries of the iterate while the
mass it drops stays within a budget of min(delta, epsilon / 8).  Dropped mass
is lost probability, so the computed value is a lower bound, and adding the
dropped mass (times the largest reward, for rewards) gives an upper bound.
Where the rates do not fall (buffer), the plain kernel drops nothing and the
two bounds agree.  Both stay within epsilon of the exact value.

Run:  python demos/04_approximate_bounds.py
"""

import uctmc

sir140 = uctmc.load_model(uctmc.example_model_path("sir140"))
u = uctmc.Valuation.from_floats([0.05, 0.04])
measures = uctmc.MeasureSet((
    uctmc.IntervalReach("ext", "extinct", 100.0, 200.0),
    uctmc.InstantReward("infected", "infected", 50.0),
))
exact = uctmc.solve_measures(sir140, u, measures).values
print("SIR(140), one pass over the full chain (adaptive kernel)")
print(f"  exact: extinction in [100, 200] = {exact[0]:.9f}, "
      f"infected at t=50 = {exact[1]:.9f}")
for delta in (1e-2, 1e-8, 1e-9):
    iv = uctmc.bound_measures(sir140, u, measures, delta=delta, rel_gap=10.0)
    print(f"  delta={delta:g} (drop budget {iv.delta:.3g}): "
          f"extinction [{iv.lower[0]:.9f}, {iv.upper[0]:.9f}], "
          f"widths {iv.width[0]:.2g} and {iv.width[1]:.2g}")

buffer = uctmc.load_model(uctmc.example_model_path("buffer"))
v = uctmc.Valuation.from_floats([35.0, 30.0, 30.0, 0.05, 10.0, 10.0])
buffer_measures = uctmc.MeasureSet((
    uctmc.IntervalReach("busy", "both_busy", 0.5, 2.0),
    uctmc.InstantReward("tokens", "buffered", 25.0),
))
iv = uctmc.bound_measures(buffer, v, buffer_measures)
print("\nbuffer, one pass over the full chain (plain kernel: nothing dropped)")
print(f"  both busy in [0.5, 2] in [{iv.lower[0]:.9f}, {iv.upper[0]:.9f}], "
      f"tokens at t=25 in [{iv.lower[1]:.6f}, {iv.upper[1]:.6f}]")
