"""Acceptance gate: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the PASS
lines).  Criterion 9 is a probabilistic test under documented seeds; per the
confidence-level semantics a single failing trial across the suite is
tolerated and asserted accordingly (9 of 10 trials must validate).
"""

import math
import time

import numpy as np
import pytest

import uctmc
from uctmc import (
    IntervalSolution,
    Valuation,
    baseline_frequentist,
    baseline_independent,
    bound_measures,
    bound_outcome,
    build_full,
    compute_eta,
    refine_solution,
    refine_until,
    sample_valuations,
    solve_box_precise,
    solve_box_imprecise,
    solve_measure_set,
    solve_measures,
    transient_distribution,
)
from uctmc.cli import main
from uctmc.scenario import complexity_imprecise, complexity_precise, solutions_matrix

from oracles import (
    brute_force_complexity,
    lp_box,
    lp_relaxed_set,
    naive_imprecise_greedy,
    random_ctmc,
    transient_oracle,
)


def _report(criterion, detail):
    print(f"PASS criterion {criterion}: {detail}")


def test_criterion_01_eta_anchor_values():
    start = time.perf_counter()
    eta_09 = compute_eta(25, 4, 0.9)
    eta_0999 = compute_eta(25, 4, 0.999)
    elapsed = time.perf_counter() - start
    assert eta_09 == pytest.approx(0.615, abs=1e-3)
    assert eta_0999 == pytest.approx(0.455, abs=1e-3)
    assert elapsed < 1.0
    _report(1, f"eta(25,4,0.9)={eta_09:.4f}, eta(25,4,0.999)={eta_0999:.4f} "
               f"in {elapsed:.3f}s")


def test_criterion_02_eta_boundary_and_shape():
    start = time.perf_counter()
    for n in (10, 25, 100):
        for beta in (0.9, 0.99, 0.999):
            assert compute_eta(n, n, beta) == 0.0
    for n in (25, 100):
        for beta in (0.9, 0.999):
            etas = [compute_eta(n, c, beta) for c in range(n)]
            assert all(a > b for a, b in zip(etas, etas[1:])), (n, beta)
    for beta in (0.9, 0.999):
        for k in (1, 2, 3, 4, 5, 6):
            assert compute_eta(100, 4 * k, beta) > compute_eta(25, k, beta)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(2, f"eta boundary, strict decrease in c, and n-scaling in {elapsed:.2f}s")


def test_criterion_03_example_one_relaxation_thresholds():
    values = np.array([[1.0], [2.0], [3.0], [4.0], [5.0], [6.0]])
    expected = {
        2.0: ((1.0, 6.0), ()),
        0.7: ((2.0, 5.0), (0, 5)),
        0.3: ((3.0, 4.0), (0, 1, 4, 5)),
    }
    for rho, ((lo, hi), relaxed) in expected.items():
        region, rel = solve_box_precise(values, rho)
        assert (region.lower[0], region.upper[0]) == (lo, hi)
        assert rel == relaxed
    _report(3, "regions [1,6]/[2,5]/[3,4] with 0/2/4 relaxed at rho=2/0.7/0.3")


def test_criterion_04_lp_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(2718)
    checked = 0
    while checked < 200:
        n = int(rng.integers(2, 21))
        m = int(rng.integers(1, 4))
        values = rng.normal(size=(n, m))
        j_max = max(1, min(5, (n - 1) // 2))
        j = int(rng.integers(0, j_max))
        rho = 2.0 if j == 0 else 1.0 / (j + 0.5)
        region, relaxed = solve_box_precise(values, rho)
        xlow, xbar, xi = lp_box(values, rho)
        assert np.allclose(region.lower, xlow, atol=1e-8), (n, m, rho)
        assert np.allclose(region.upper, xbar, atol=1e-8), (n, m, rho)
        assert relaxed == lp_relaxed_set(xi), (n, m, rho)
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(4, f"{checked} random instances match the generic LP in {elapsed:.1f}s")


def test_criterion_05_complexity_soundness():
    start = time.perf_counter()
    rng = np.random.default_rng(314)
    checked = 0
    while checked < 100:
        n = int(rng.integers(2, 8))
        m = int(rng.integers(1, 3))
        values = rng.normal(size=(n, m))
        j_max = max(1, min(3, (n - 1) // 2))
        j = int(rng.integers(0, j_max))
        rho = 2.0 if j == 0 else 1.0 / (j + 0.5)
        region, relaxed = solve_box_precise(values, rho)
        greedy = complexity_precise(values, rho, region, relaxed)
        exact = brute_force_complexity(values, rho)
        assert exact <= greedy, (n, m, rho)
        checked += 1

    inner = np.random.default_rng(1).uniform(0.3, 0.7, size=(21, 2))
    faces = np.array([[0.0, 0.5], [1.0, 0.5], [0.5, 0.0], [0.5, 1.0]])
    values = np.vstack([inner, faces])
    region, relaxed = solve_box_precise(values, 2.0)
    assert complexity_precise(values, 2.0, region, relaxed) == 4
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _report(5, f"{checked} brute-force comparisons and Example-2 d*=4 in {elapsed:.1f}s")


def test_criterion_06_theorem2_and_lemma2_regression():
    rng = np.random.default_rng(161)
    checked = 0
    while checked < 100:
        n = int(rng.integers(2, 16))
        m = int(rng.integers(1, 4))
        lower = rng.normal(size=(n, m))
        upper = lower + rng.uniform(0.0, 2.0, size=(n, m))
        precise = rng.uniform(lower, upper)
        j_max = max(1, min(4, (n - 1) // 2))
        j = int(rng.integers(0, j_max))
        rho = 2.0 if j == 0 else 1.0 / (j + 0.5)
        box_i, _ = solve_box_imprecise((lower, upper), rho)
        box_p, _ = solve_box_precise(precise, rho)
        assert np.all(box_p.lower >= box_i.lower - 1e-12)
        assert np.all(box_p.upper <= box_i.upper + 1e-12)
        checked += 1

    # Lemma-2 pattern: one box corner covers two faces that distinct samples
    # define precisely; the naive precise-style greedy undercounts and is not
    # what the library uses
    boxes_lo = np.array([[1.0, 1.0], [0.0, 0.0], [2.5, 8.0], [4.5, 0.2], [3.0, 3.0]])
    boxes_hi = np.array([[10.0, 10.0], [0.5, 0.5], [3.5, 9.0], [5.5, 0.6], [4.0, 4.0]])
    precise = np.array([[9.5, 2.0], [0.2, 0.3], [3.0, 8.8], [5.0, 0.25], [3.5, 3.5]])
    assert np.all((boxes_lo <= precise) & (precise <= boxes_hi))
    naive = naive_imprecise_greedy(boxes_lo, boxes_hi, 2.0)
    true_c = brute_force_complexity(precise, 2.0)
    assert naive < true_c
    region, _ = solve_box_imprecise((boxes_lo, boxes_hi), 2.0)
    shipped, _ = complexity_imprecise((boxes_lo, boxes_hi), region)
    assert shipped >= true_c
    _report(6, f"{checked} containment checks; naive greedy {naive} < c*={true_c} "
               f"<= shipped {shipped}")


def test_criterion_07_checker_correctness(sir20, mean_valuation):
    start = time.perf_counter()
    lam, tau = 1.0, 1.0
    chain = uctmc.ConcreteCtmc.from_dense(
        [[0.0, lam], [0.0, 0.0]], [1.0, 0.0], labels={"goal": [False, True]})
    p = uctmc.reach_probability(chain, "goal", tau, epsilon=1e-6)
    assert p == pytest.approx(1 - math.exp(-lam * tau), abs=1e-6)

    rng = np.random.default_rng(4242)
    for _ in range(100):
        c = random_ctmc(rng, max_states=8)
        t = float(rng.uniform(0.0, 5.0))
        ours = transient_distribution(c, t, epsilon=1e-6)
        ref = transient_oracle(c, t)
        assert np.abs(ours - ref).sum() <= 2e-6

    full = build_full(sir20, mean_valuation)
    assert (full.num_states, full.num_transitions) == (216, 396)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(7, f"1-e^-t anchor, 100 expm comparisons, SIR(20)=216/396 in {elapsed:.1f}s")


def test_criterion_08_imprecise_sandwich_and_refinement(sir20, sir_measures):
    start = time.perf_counter()
    u = Valuation.from_floats([0.05, 0.04])
    exact = solve_measures(sir20, u, sir_measures).values
    interval = bound_measures(sir20, u, sir_measures, delta=1e-2, rel_gap=1e-2)
    assert interval.gap_met
    assert np.all(interval.lower <= exact + 1e-9)
    assert np.all(exact <= interval.upper + 1e-9)

    # artificially coarsened instance: n=50, every 8th sample's bounds
    # widened far more than the rest's, then refined on the region boundary
    # (target_gain 0 runs the loop to stabilization).  Approximate bounds are
    # at most about epsilon / 4 wide, too narrow to move eta, so a margin
    # stands in for a coarse analysis: each refinement recomputes the
    # sample's bounds with refine_solution and divides its margin by 10
    samples = sample_valuations(sir20, 50, seed=4711)
    coarse, margin = {}, {}
    for i, v in enumerate(samples.valuations):
        coarse[i] = bound_measures(sir20, v, sir_measures, rel_gap=10.0)
        margin[i] = 0.5 if i % 8 == 0 else 1e-3

    def widened(i):
        return coarse[i].lower - margin[i], coarse[i].upper + margin[i]

    def refiner(i):
        coarse[i] = refine_solution(coarse[i], sir20, samples.valuations[i],
                                    sir_measures)
        margin[i] /= 10.0
        return widened(i)

    outcome, etas = refine_until([IntervalSolution(i, *widened(i), coarse[i].delta)
                                  for i in range(len(coarse))],
                                 rho=2.0, beta=0.9, target_gain=0.0,
                                 max_iters=10, refiner=refiner)
    strict_increases = sum(b - a > 1e-9 for a, b in zip(etas, etas[1:]))
    assert len(etas) >= 3
    assert strict_increases >= 2
    assert all(b >= a for a, b in zip(etas, etas[1:]))
    assert outcome.eta[0.9] == pytest.approx(max(etas))
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    _report(8, f"sandwich holds on 26 measures; eta trajectory "
               f"{[round(e, 3) for e in etas]} in {elapsed:.0f}s")


def test_criterion_09_frequentist_validation(sir20, sir_measures):
    start = time.perf_counter()
    trials, validated = 10, 0
    details = []
    for k in range(trials):
        train = sample_valuations(sir20, 100, seed=20_000 + k)
        solutions = solve_measure_set(sir20, train, sir_measures)
        outcome = bound_outcome(solutions, rho=1.1, betas=[0.9], mode="precise")
        fresh = sample_valuations(sir20, 1000, seed=90_000 + k)
        fresh_solutions = solve_measure_set(sir20, fresh, sir_measures)
        observed = baseline_frequentist(solutions_matrix(fresh_solutions),
                                        outcome.region)
        details.append((round(outcome.eta[0.9], 3), round(observed, 3)))
        if observed >= outcome.eta[0.9]:
            validated += 1
    elapsed = time.perf_counter() - start
    assert validated >= 9, details
    assert elapsed < 1200.0
    _report(9, f"{validated}/10 trials with observed >= eta {details} "
               f"in {elapsed:.0f}s")


def test_criterion_10_independent_baseline_gap():
    rng = np.random.default_rng(555)
    n, m = 100, 25
    latent = rng.normal(size=n)
    offsets = np.linspace(-0.5, 0.5, m)
    values = 1.0 / (1.0 + np.exp(-(latent[:, None] + offsets[None, :])))
    values += 0.01 * rng.normal(size=(n, m))

    joint = bound_outcome(values, 2.0, [0.99], "precise")
    combined, _ = baseline_independent(values, 2.0, 0.99)
    assert combined <= joint.eta[0.99] / 2.0
    _report(10, f"joint eta={joint.eta[0.99]:.3f} vs independent baseline "
                f"{combined:.3f}")


def test_criterion_11_run_determinism(tmp_path):
    model = str(uctmc.example_model_path("sir20"))
    measures = str(uctmc.example_model_path("sir_horizons"))
    outputs = []
    for run in ("one", "two"):
        out = tmp_path / run
        code = main(["run", "--model", model, "--measures", measures,
                     "--n", "40", "--seed", "2022", "--rho", "auto:4",
                     "--beta", "0.9,0.99,0.999", "--out-dir", str(out)])
        assert code == 0
        outputs.append(out)
    for name in ("samples.json", "regions.json"):
        first = (outputs[0] / name).read_bytes()
        second = (outputs[1] / name).read_bytes()
        assert first == second, name
    _report(11, "two identical runs produced byte-identical samples and regions")
