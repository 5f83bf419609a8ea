import math

import numpy as np
import pytest

import uctmc
from uctmc import (
    CheckerError,
    ConcreteCtmc,
    IntervalReach,
    InstantReward,
    IntervalSolution,
    MeasureSet,
    TimeBoundedReach,
    bound_measures,
    build_full,
    evaluate_measures,
    instant_reward,
    interval_reach,
    interval_reaches,
    reach_probabilities,
    reach_probability,
    refine_solution,
    region_to_curve,
    solve_measure_set,
    solve_measures,
    transient_distribution,
)
from uctmc.scenario import BoxRegion

from oracles import (
    dense_generator,
    interval_reach_oracle,
    poisson_terms_loop,
    reach_oracle,
    random_ctmc,
    transient_oracle,
    uniformized_sparse,
)
from scipy.linalg import expm


def two_state(lam=1.0):
    return ConcreteCtmc.from_dense(
        [[0.0, lam], [0.0, 0.0]], [1.0, 0.0],
        labels={"goal": [False, True], "start": [True, False]},
        rewards={"r": [0.0, 1.0], "one": [1.0, 1.0]})


def test_two_state_transient():
    c = two_state()
    pi = transient_distribution(c, 1.0)
    assert pi[1] == pytest.approx(1 - math.exp(-1), abs=1e-6)


def test_transient_at_zero_is_initial():
    c = two_state()
    assert np.array_equal(transient_distribution(c, 0.0), c.initial)


def test_epsilon_floor():
    with pytest.raises(CheckerError):
        transient_distribution(two_state(), 1.0, epsilon=1e-13)


def test_birth_chain_matches_expm_oracle():
    c = ConcreteCtmc.from_dense(
        [[0.0, 2.0, 0.0], [0.0, 0.0, 3.0], [0.0, 0.0, 0.0]],
        [1.0, 0.0, 0.0])
    pi = transient_distribution(c, 0.7, epsilon=1e-8)
    ref = transient_oracle(c, 0.7)
    assert np.max(np.abs(pi - ref)) < 1e-8


def test_random_ctmcs_match_expm_oracle():
    rng = np.random.default_rng(2024)
    for _ in range(25):
        c = random_ctmc(rng)
        t = float(rng.uniform(0.0, 4.0))
        pi = transient_distribution(c, t, epsilon=1e-7)
        ref = transient_oracle(c, t)
        assert np.abs(pi - ref).sum() < 2e-7


def draining_death_chain(top=40, rate=2.5, slow=0.05):
    """Pure death chain top -> ... -> 1 -> 0 with death rate rate*i and a slow
    last step: the upper states drain at very different speeds, so their mass
    passes through the subnormal range while Lambda*t is in the thousands."""
    rates = np.zeros((top + 1, top + 1))
    for i in range(2, top + 1):
        rates[i, i - 1] = rate * i
    rates[1, 0] = slow
    initial = np.zeros(top + 1)
    initial[top] = 1.0
    extinct = np.zeros(top + 1, dtype=bool)
    extinct[0] = True
    return ConcreteCtmc.from_dense(rates, initial, labels={"extinct": extinct})


def test_long_draining_pass_matches_expm_oracle():
    c = draining_death_chain()
    q = dense_generator(c)
    lam = float(-q.diagonal().min())
    t_lo, t_his = 10.0, [20.0, 40.0]
    assert lam * t_his[-1] >= 4000
    # without flushing, the power sequence leaves mass below the flush threshold
    p = np.eye(c.num_states) + q / lam
    v = c.initial.copy()
    tiny = 0
    for _ in range(int(lam * t_his[-1])):
        v = v @ p
        tiny = max(tiny, int(np.count_nonzero((v > 0.0) & (v < 1e-280))))
    assert tiny > 0

    eps = 1e-8
    pi = transient_distribution(c, t_his[-1], epsilon=eps)
    assert np.abs(pi - transient_oracle(c, t_his[-1])).sum() <= eps
    ours = interval_reaches(c, "extinct", t_lo, t_his, epsilon=eps)
    mask = c.label_mask("extinct")
    for value, t_hi in zip(ours, t_his):
        assert abs(value - interval_reach_oracle(c, mask, t_lo, t_hi)) <= eps


def test_iterates_match_public_matmul_with_flush():
    from uctmc.checker import _FLUSH_BELOW, _FLUSH_EVERY, _iterates, _uniformized

    c = draining_death_chain()
    pt, _ = _uniformized(c)
    steps = 4000
    ours = [x[0].copy() for x in _iterates(pt, c.initial[None], 0, steps + 1)]
    v = c.initial.copy()
    flushed = 0
    for k in range(steps + 1):
        if k:
            v = pt @ v
            if not k % _FLUSH_EVERY:
                tiny = v < _FLUSH_BELOW
                flushed += int(np.count_nonzero(v[tiny]))
                v[tiny] = 0.0
        assert np.array_equal(ours[k], v), k
    assert flushed > 0
    tail = [x[0].copy() for x in _iterates(pt, c.initial[None], 3000, 5)]
    assert all(np.array_equal(a, b) for a, b in zip(tail, ours[3000:3005]))


def test_poisson_terms_match_loop_reference():
    from uctmc.checker import _poisson_terms

    lam_ts = np.concatenate([np.geomspace(0.3, 6e4, 208),
                             [1e-9, 0.999, 1.0, 2.0, 510.0, 49999.99, 5e4, 50000.5]])
    for lam_t in lam_ts:
        k_lo, weights = _poisson_terms(float(lam_t))
        ref_lo, ref = poisson_terms_loop(float(lam_t))
        assert k_lo == ref_lo, lam_t
        assert np.array_equal(weights, ref), lam_t
    assert _poisson_terms(0.0)[1].tolist() == [1.0]


def test_uniformized_matches_sparse_reference(sir20, mean_valuation):
    from uctmc.checker import _bound_at_delta, _uniformized

    def check(c, absorbing):
        pt, lam = _uniformized(c, absorbing)
        ref, ref_lam = uniformized_sparse(c, absorbing)
        assert lam == ref_lam
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(pt, name), getattr(ref, name)), name

    full = build_full(sir20, mean_valuation)
    check(full, None)
    check(full, full.label_mask("extinct"))
    buffer = uctmc.load_model(uctmc.example_model_path("buffer"))
    u = uctmc.Valuation.from_floats([35.0, 30.0, 30.0, 0.05, 10.0, 10.0])
    _, _, partial = _bound_at_delta(buffer, u, MeasureSet(()), 1e-3, 1e-6)
    assert partial.sink_reachable
    check(partial, None)
    check(partial, partial.label_mask("both_busy"))
    # self-loops, and rows long enough for the summation order to matter
    rng = np.random.default_rng(8)
    for _ in range(20):
        c = random_ctmc(rng, max_states=30)
        rates = c.rates.toarray()
        np.fill_diagonal(rates, rng.uniform(0.0, 2.0, len(rates)))
        looped = ConcreteCtmc.from_dense(rates, c.initial, labels=c.labels)
        check(looped, None)
        check(looped, looped.label_mask("goal"))


def test_reach_examples():
    c = two_state()
    assert reach_probability(c, "start", 5.0) == pytest.approx(1.0)
    assert reach_probability(c, "goal", 2.0) == pytest.approx(1 - math.exp(-2), abs=1e-6)
    unreachable = ConcreteCtmc.from_dense(
        [[0.0, 1.0], [0.0, 0.0]], [0.0, 1.0], labels={"zero": [True, False]})
    assert reach_probability(unreachable, "zero", 10.0) == 0.0


def test_reach_is_monotone_in_horizon():
    c = two_state(0.7)
    taus = [0.0, 0.5, 1.0, 2.0, 4.0, 8.0]
    probs = reach_probabilities(c, "goal", taus)
    assert np.all(np.diff(probs) >= -1e-12)


def test_multi_horizon_matches_single_calls():
    rng = np.random.default_rng(5)
    c = random_ctmc(rng)
    taus = [0.3, 0.9, 2.7]
    batch = reach_probabilities(c, "goal", taus)
    single = [reach_probability(c, "goal", t) for t in taus]
    assert np.allclose(batch, single, atol=1e-9)


def test_interval_reach_zero_length_window_at_zero():
    c = ConcreteCtmc.from_dense(
        [[0.0, 1.0], [0.0, 0.0]], [0.3, 0.7], labels={"goal": [False, True]})
    assert interval_reach(c, "goal", 0.0, 0.0) == pytest.approx(0.7)


def test_interval_reach_zero_start_equals_reach():
    c = two_state()
    assert interval_reach(c, "goal", 0.0, 1.5) == pytest.approx(
        reach_probability(c, "goal", 1.5), abs=2e-6)


def test_interval_reach_sir2_matches_dense_oracle(sir2, mean_valuation):
    c = build_full(sir2, mean_valuation)
    mask = c.label_mask("extinct")
    ours = interval_reach(c, "extinct", 1.0, 2.0, epsilon=1e-8)
    ref = interval_reach_oracle(c, mask, 1.0, 2.0)
    assert ours == pytest.approx(ref, abs=1e-6)


def test_interval_reach_random_vs_oracle():
    rng = np.random.default_rng(31)
    for _ in range(20):
        c = random_ctmc(rng)
        t1 = float(rng.uniform(0.0, 1.5))
        t2 = t1 + float(rng.uniform(0.0, 2.0))
        ours = interval_reach(c, "goal", t1, t2, epsilon=1e-8)
        ref = interval_reach_oracle(c, c.label_mask("goal"), t1, t2)
        assert ours == pytest.approx(ref, abs=1e-6)


def test_instant_reward_examples():
    c = two_state()
    assert instant_reward(c, "r", 0.0) == 0.0
    assert instant_reward(c, "one", 3.7) == pytest.approx(1.0, abs=1e-9)
    assert instant_reward(c, "r", 1.0) == pytest.approx(1 - math.exp(-1), abs=1e-6)


# ---------------------------------------------------------------------------
# Measure sets
# ---------------------------------------------------------------------------

def test_solve_measures_two_state_formula(sir2):
    c = two_state(0.9)
    measures = MeasureSet((TimeBoundedReach("m1", "goal", 2.5),))
    values = evaluate_measures(c, measures)
    assert values[0] == pytest.approx(1 - math.exp(-0.9 * 2.5), abs=1e-6)


def test_solve_measures_empty_set(sir2, mean_valuation):
    sol = solve_measures(sir2, mean_valuation, MeasureSet(()))
    assert sol.values.shape == (0,)


def test_measure_ids_must_be_unique():
    with pytest.raises(CheckerError):
        MeasureSet((TimeBoundedReach("m", "goal", 1.0),
                    TimeBoundedReach("m", "goal", 2.0)))


def test_sir20_horizon_family_is_monotone(sir20, sir_measures, mean_valuation):
    sol = solve_measures(sir20, mean_valuation, sir_measures)
    assert np.all(np.diff(sol.values) >= -1e-9)
    assert np.all((sol.values >= 0) & (sol.values <= 1))


def test_solve_measure_set_layout_invariance(sir20, sir_measures):
    # in exact and approx mode, each valuation's result is the same bits
    # whether it is solved alone (on a freshly loaded model, whose compiled
    # table fills in another order), in a slice, or in the full list
    valuations = uctmc.sample_valuations(sir20, 5, seed=11).valuations
    for mode in ("exact", "approx"):
        full = solve_measure_set(sir20, valuations, sir_measures, mode=mode)
        sliced = dict(zip(range(1, 4), solve_measure_set(sir20, valuations[1:4],
                                                         sir_measures, mode=mode)))
        fresh = uctmc.load_model(uctmc.example_model_path("sir20"))
        for i in reversed(range(len(valuations))):
            alone = solve_measure_set(fresh, [valuations[i]], sir_measures, mode=mode)[0]
            for other in [alone] + ([sliced[i]] if i in sliced else []):
                if mode == "exact":
                    assert np.array_equal(other.values, full[i].values)
                    continue
                assert np.array_equal(other.lower, full[i].lower)
                assert np.array_equal(other.upper, full[i].upper)
                assert (other.delta, other.gap_met) == (full[i].delta, full[i].gap_met)


def _mixed_measures():
    return MeasureSet((
        TimeBoundedReach("reach_a", "extinct", 40.0),
        TimeBoundedReach("reach_b", "extinct", 150.0),
        IntervalReach("window_a", "extinct", 60.0, 90.0),
        IntervalReach("window_b", "extinct", 60.0, 200.0),
        IntervalReach("from_zero", "extinct", 0.0, 70.0),
        InstantReward("infected_a", "infected", 25.0),
        InstantReward("infected_b", "infected", 120.0),
    ))


def test_batched_check_layout_invariance(sir20):
    # one batch mixes reach, interval and reward measures over valuations
    # whose uniformization rates all differ, so blocks leave the stepped
    # prefix at different steps; each valuation's values are the same bits
    # alone, in reversed order, in a slice and in the full batch
    from uctmc.checker import _uniformized

    measures = _mixed_measures()
    valuations = uctmc.sample_valuations(sir20, 7, seed=3).valuations
    lams = [_uniformized(build_full(sir20, u))[1] for u in valuations]
    assert len(set(lams)) == len(lams)
    assert sorted(lams) != lams and sorted(lams, reverse=True) != lams

    full = solve_measure_set(sir20, valuations, measures)
    assert [s.valuation_index for s in full] == list(range(len(valuations)))
    backwards = solve_measure_set(sir20, valuations[::-1], measures)[::-1]
    sliced = dict(zip(range(2, 6), solve_measure_set(sir20, valuations[2:6], measures)))
    for i, u in enumerate(valuations):
        alone = solve_measures(sir20, u, measures, index=i)
        assert alone.valuation_index == i
        for other in [alone.values, backwards[i].values] + (
                [sliced[i].values] if i in sliced else []):
            assert np.array_equal(other, full[i].values), i


def test_batched_check_matches_expm_oracle(sir20):
    measures = _mixed_measures()
    valuations = uctmc.sample_valuations(sir20, 4, seed=5).valuations
    eps = 1e-6
    for u, sol in zip(valuations, solve_measure_set(sir20, valuations, measures,
                                                    epsilon=eps)):
        c = build_full(sir20, u)
        mask = c.label_mask("extinct")
        reward = c.reward_vector("infected")
        expected = [reach_oracle(c, mask, 40.0), reach_oracle(c, mask, 150.0),
                    interval_reach_oracle(c, mask, 60.0, 90.0),
                    interval_reach_oracle(c, mask, 60.0, 200.0),
                    interval_reach_oracle(c, mask, 0.0, 70.0),
                    float(transient_oracle(c, 25.0) @ reward),
                    float(transient_oracle(c, 120.0) @ reward)]
        assert np.all(np.abs(sol.values - expected) <= eps), sol.values - expected


# ---------------------------------------------------------------------------
# Interval solutions from partial models
# ---------------------------------------------------------------------------

def test_bound_measures_sandwich_sir2(sir2, mean_valuation):
    measures = MeasureSet((
        TimeBoundedReach("a", "extinct", 30.0),
        IntervalReach("b", "extinct", 5.0, 40.0),
        InstantReward("c", "infected", 10.0),
    ))
    exact = solve_measures(sir2, mean_valuation, measures).values
    iv = bound_measures(sir2, mean_valuation, measures, delta=0.5, rel_gap=1e-3)
    assert np.all(iv.lower <= exact + 1e-9)
    assert np.all(exact <= iv.upper + 1e-9)


def test_bound_measures_delta_one_gives_vacuous_reach_bounds(sir20, sir_measures,
                                                             mean_valuation):
    from uctmc.checker import _bound_at_delta
    lower, upper, partial = _bound_at_delta(sir20, mean_valuation, sir_measures,
                                            1.0, 1e-6)
    assert partial.retained_states == ((15, 5, 0),)
    assert np.all(lower <= 1e-6)
    assert np.all(upper >= 1.0 - 1e-6)


def test_partial_bounds_match_dense_oracle():
    from uctmc.checker import _bound_at_delta

    m = uctmc.load_model(uctmc.example_model_path("buffer"))
    u = uctmc.Valuation.from_floats([35.0, 30.0, 30.0, 0.05, 10.0, 10.0])
    measures = MeasureSet((
        TimeBoundedReach("reach1", "both_busy", 0.3),
        TimeBoundedReach("reach2", "both_busy", 1.5),
        IntervalReach("window", "both_busy", 0.5, 2.0),
        InstantReward("tokens", "buffered", 2.0),
    ))
    eps = 1e-8
    lower, upper, partial = _bound_at_delta(m, u, measures, 1e-3, eps)
    assert partial.sink_reachable

    mask = partial.label_mask("both_busy")
    sink = np.zeros(partial.num_states, dtype=bool)
    sink[-1] = True
    reward = partial.reward_vector("buffered")
    worst = reward.copy()
    worst[-1] = 3.0  # s + f at s = 2, f = 1
    pi = transient_oracle(partial, 2.0)
    # upper window bound: the sink keeps its mass at t_lo and counts as target
    q = dense_generator(partial, absorbing=mask)
    start = np.where(mask, 0.0, partial.initial @ expm(q * 0.5))
    window_up = float((start @ expm(q * 1.5))[mask | sink].sum())
    expected_lower = [reach_oracle(partial, mask, 0.3), reach_oracle(partial, mask, 1.5),
                      interval_reach_oracle(partial, mask, 0.5, 2.0), float(pi @ reward)]
    expected_upper = [reach_oracle(partial, mask | sink, 0.3),
                      reach_oracle(partial, mask | sink, 1.5), window_up, float(pi @ worst)]
    assert np.all(np.abs(lower - expected_lower) <= eps)
    assert np.all(np.abs(upper - expected_upper) <= eps)
    assert np.all(lower <= upper)
    # the sink holds enough mass for the two sides to differ
    assert np.all(upper - lower > 1e-6)


def test_bound_measures_tiny_delta_is_exact(sir2, mean_valuation):
    measures = MeasureSet((TimeBoundedReach("a", "extinct", 30.0),))
    exact = solve_measures(sir2, mean_valuation, measures).values
    iv = bound_measures(sir2, mean_valuation, measures, delta=1e-100, rel_gap=1.0)
    assert iv.upper[0] - iv.lower[0] <= 1e-9
    assert iv.lower[0] == pytest.approx(exact[0], abs=1e-6)


def test_bound_measures_meets_rel_gap(sir20, sir_measures, mean_valuation):
    iv = bound_measures(sir20, mean_valuation, sir_measures, delta=1e-2, rel_gap=1e-2)
    assert iv.gap_met
    rel = (iv.upper - iv.lower) / np.maximum(iv.upper, 1e-12)
    assert np.all(rel <= 1e-2 + 1e-12)


def test_refine_solution_shrinks_and_contains(sir20, sir_measures, mean_valuation):
    coarse = bound_measures(sir20, mean_valuation, sir_measures, delta=0.3, rel_gap=1.0)
    refined = refine_solution(coarse, sir20, mean_valuation, sir_measures)
    assert np.all(refined.lower >= coarse.lower - 1e-12)
    assert np.all(refined.upper <= coarse.upper + 1e-12)
    assert refined.delta == pytest.approx(coarse.delta / 10.0)
    # repeated refinement: widths decrease monotonically toward zero
    widths = [float(np.max(coarse.width))]
    current = coarse
    for _ in range(6):
        current = refine_solution(current, sir20, mean_valuation, sir_measures)
        widths.append(float(np.max(current.width)))
    assert all(a >= b - 1e-12 for a, b in zip(widths, widths[1:]))
    assert widths[-1] < 1e-3


def test_refine_exact_interval_unchanged(sir2, mean_valuation):
    measures = MeasureSet((TimeBoundedReach("a", "extinct", 30.0),))
    exact_iv = bound_measures(sir2, mean_valuation, measures, delta=1e-100, rel_gap=1.0)
    refined = refine_solution(exact_iv, sir2, mean_valuation, measures)
    assert np.allclose(refined.lower, exact_iv.lower, atol=1e-12)
    assert np.allclose(refined.upper, exact_iv.upper, atol=1e-12)


def test_refine_recomputes_gap_met(sir2, mean_valuation):
    measures = MeasureSet((TimeBoundedReach("a", "extinct", 30.0),))
    exact_iv = bound_measures(sir2, mean_valuation, measures, delta=1e-100, rel_gap=1.0)
    missed = IntervalSolution(exact_iv.valuation_index, exact_iv.lower, exact_iv.upper,
                              exact_iv.delta, gap_met=False)
    refined = refine_solution(missed, sir2, mean_valuation, measures)
    assert np.all(refined.width == 0.0)
    assert refined.gap_met


def test_cluster_reuse_stays_sound(sir20, sir_measures):
    samples = uctmc.sample_valuations(sir20, 8, seed=21)
    intervals = solve_measure_set(sir20, samples, sir_measures, mode="approx",
                                  delta=1e-2, rel_gap=1e-2, cluster_radius=1.0)
    exact = solve_measure_set(sir20, samples, sir_measures, mode="exact")
    for iv, sol in zip(intervals, exact):
        assert np.all(iv.lower <= sol.values + 1e-9)
        assert np.all(sol.values <= iv.upper + 1e-9)


# ---------------------------------------------------------------------------
# Curve bands
# ---------------------------------------------------------------------------

def _region(lower, upper):
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    return BoxRegion(lower, upper, np.zeros(1, dtype=np.int8))


def test_curve_single_horizon_constant_band():
    measures = MeasureSet((TimeBoundedReach("a", "goal", 5.0),))
    band = region_to_curve(_region([0.3], [0.6]), measures)
    assert band.evaluate(5.0) == (0.3, 0.6)


def test_curve_two_point_step_example():
    measures = MeasureSet((TimeBoundedReach("a", "goal", 1.0),
                           TimeBoundedReach("b", "goal", 2.0)))
    band = region_to_curve(_region([0.2, 0.3], [0.4, 0.5]), measures)
    assert band.evaluate(1.0) == (0.2, 0.4)
    assert band.evaluate(2.0) == (0.3, 0.5)
    lo, hi = band.evaluate(1.5)
    assert (lo, hi) == (0.2, 0.5)  # carry lower forward, upper backward


def test_curve_rejects_mixed_family(sir_measures):
    mixed = MeasureSet((TimeBoundedReach("a", "goal", 1.0),
                        InstantReward("b", "r", 1.0)))
    with pytest.raises(CheckerError):
        region_to_curve(_region([0.1, 0.1], [0.2, 0.2]), mixed)


def test_curve_band_contains_sir20_boxes(sir20, sir_measures):
    samples = uctmc.sample_valuations(sir20, 20, seed=4)
    solutions = solve_measure_set(sir20, samples, sir_measures)
    from uctmc.scenario import solve_box_precise, solutions_matrix
    region, _ = solve_box_precise(solutions_matrix(solutions), 2.0)
    band = region_to_curve(region, sir_measures)
    assert np.all(np.diff(band.lower) >= -1e-12)
    assert np.all(np.diff(band.upper) >= -1e-12)
    # on monotone data the envelopes coincide with the boxes at grid points
    assert np.allclose(band.lower, np.clip(region.lower, 0, 1), atol=1e-12)
    assert np.allclose(band.upper, np.clip(region.upper, 0, 1), atol=1e-12)


def test_unknown_label_or_reward_errors():
    from uctmc import ModelError

    c = two_state()
    with pytest.raises(ModelError, match="unknown label"):
        reach_probability(c, "nope", 1.0)
    with pytest.raises(ModelError, match="unknown reward"):
        instant_reward(c, "nope", 1.0)


def test_measure_preconditions():
    with pytest.raises(CheckerError):
        TimeBoundedReach("m", "goal", -1.0)
    with pytest.raises(CheckerError):
        IntervalReach("m", "goal", 2.0, 1.0)
    with pytest.raises(CheckerError):
        InstantReward("m", "r", -0.5)
