"""State-space truncation and two-sided bounds.

Shows the machinery behind approximate mode: how the retained state set grows
as the truncation threshold drops, and how the sink yields sound lower/upper
measure bounds.

Run:  python demos/04_partial_models.py
"""

import uctmc

model = uctmc.load_model(uctmc.example_model_path("sir140"))
u = uctmc.Valuation.from_floats([0.05, 0.04])

print("SIR(140): full state space vs truncated partial models")
full = uctmc.build_full(model, u)
print(f"  full model: {full.num_states} states, {full.num_transitions} transitions")
for delta in (1e-2, 1e-4, 1e-6):
    partial = uctmc.build_partial(model, u, delta)
    print(f"  delta={delta:g}: retained {len(partial.retained_states)} states, "
          f"redirected rate {partial.redirected_rate:.2f}")

measures = uctmc.MeasureSet((
    uctmc.IntervalReach("ext", "extinct", 100.0, 200.0),
))
exact = uctmc.solve_measures(model, u, measures).values[0]
print(f"\nextinction in [100, 200]: exact = {exact:.6f}")
for delta in (1e-3, 1e-5, 1e-7):
    iv = uctmc.bound_measures(model, u, measures, delta=delta, rel_gap=10.0)
    print(f"  delta={delta:g}: bounds [{iv.lower[0]:.6f}, {iv.upper[0]:.6f}]")
