import numpy as np
import pytest

from uctmc.scenario import (
    BOUNDARY,
    INSIDE,
    OUTSIDE,
    CriticalRhoError,
    ScenarioError,
    baseline_frequentist,
    baseline_independent,
    bound_outcome,
    complexity_imprecise,
    complexity_precise,
    compute_eta,
    interval_matrices,
    refine_until,
    rho_grid,
    solutions_matrix,
    solve_box_imprecise,
    solve_box_precise,
)

from oracles import (
    ETA_SCAN_GRID,
    brute_force_complexity,
    complexity_precise_reference,
    eta_bracket,
    eta_bracket_scalar,
    eta_h,
    eta_h_at,
    eta_references,
    lp_box,
    lp_relaxed_set,
    naive_imprecise_greedy,
    rank_stats,
    solve_box_reference,
)

SIX = np.array([[1.0], [2.0], [3.0], [4.0], [5.0], [6.0]])


# ---------------------------------------------------------------------------
# rho grid
# ---------------------------------------------------------------------------

def test_rho_grid_k1():
    assert rho_grid(1) == [2.0]


def test_rho_grid_k3():
    grid = rho_grid(3)
    assert grid[0] == 2.0
    assert grid[1] == pytest.approx(1 / 1.5)
    assert grid[2] == pytest.approx(0.4)
    assert all(a > b for a, b in zip(grid, grid[1:]))


def test_rho_grid_avoids_critical_values():
    for rho in rho_grid(40):
        inv = 1.0 / rho
        assert abs(inv - round(inv)) > 1e-6 or inv < 1.0


def test_critical_rho_rejected():
    for rho in (1.0, 0.5, 0.25):
        with pytest.raises(CriticalRhoError):
            solve_box_precise(SIX, rho)
    # NaN fails the positivity check instead of reaching round()
    for rho in (float("nan"), 0.0, -2.0):
        with pytest.raises(ScenarioError, match="positive"):
            solve_box_precise(SIX, rho)


def test_rho_below_one_over_n_rejected():
    with pytest.raises(ScenarioError):
        solve_box_precise(SIX, 0.12)


# ---------------------------------------------------------------------------
# Precise boxes (relaxation thresholds)
# ---------------------------------------------------------------------------

def test_example_one_rho_two():
    region, relaxed = solve_box_precise(SIX, 2.0)
    assert (region.lower[0], region.upper[0]) == (1.0, 6.0)
    assert relaxed == ()


def test_example_one_rho_07():
    region, relaxed = solve_box_precise(SIX, 0.7)
    assert (region.lower[0], region.upper[0]) == (2.0, 5.0)
    assert relaxed == (0, 5)


def test_example_one_rho_03():
    region, relaxed = solve_box_precise(SIX, 0.3)
    assert (region.lower[0], region.upper[0]) == (3.0, 4.0)
    assert relaxed == (0, 1, 4, 5)


def test_classification_flags():
    region, _ = solve_box_precise(SIX, 0.7)
    assert list(region.classification) == [OUTSIDE, BOUNDARY, INSIDE, INSIDE,
                                           BOUNDARY, OUTSIDE]


def test_tied_values_form_one_rank_block():
    values = np.array([[1.0], [2.0], [2.0], [3.0], [6.0]])
    region, relaxed = solve_box_precise(values, 0.7)
    # both 2.0 samples share num_le = 3 > 1/0.7, so the face sits at 2.0
    assert region.lower[0] == 2.0
    assert relaxed == (0, 4)


def test_lp_oracle_equivalence_sample():
    rng = np.random.default_rng(99)
    for _ in range(25):
        n = int(rng.integers(3, 15))
        m = int(rng.integers(1, 4))
        values = rng.normal(size=(n, m))
        j = int(rng.integers(0, max(1, min(4, (n - 1) // 2))))
        rho = 2.0 if j == 0 else 1.0 / (j + 0.5)
        region, relaxed = solve_box_precise(values, rho)
        xlow, xbar, xi = lp_box(values, rho)
        assert np.allclose(region.lower, xlow, atol=1e-8)
        assert np.allclose(region.upper, xbar, atol=1e-8)
        assert relaxed == lp_relaxed_set(xi)


# ---------------------------------------------------------------------------
# Imprecise boxes
# ---------------------------------------------------------------------------

def test_degenerate_intervals_reduce_to_precise():
    rng = np.random.default_rng(3)
    values = rng.normal(size=(12, 2))
    for rho in (2.0, 1 / 1.5, 0.4):
        pr, prel = solve_box_precise(values, rho)
        ir, irel = solve_box_imprecise((values, values), rho)
        assert np.array_equal(pr.lower, ir.lower)
        assert np.array_equal(pr.upper, ir.upper)
        assert prel == irel


def test_stacked_intervals_rank_rule():
    # six stacked intervals, upper bounds strictly decreasing from u1 to u6;
    # with 1/4 < rho < 1/3 the upper face is the 4th largest upper bound
    upper = np.array([[2.3], [1.8], [1.4], [1.0], [0.6], [0.3]])
    lower = np.array([[2.0], [1.2], [0.8], [0.4], [0.05], [0.1]])
    region, _ = solve_box_imprecise((lower, upper), 0.28)
    assert region.upper[0] == 1.0


def test_theorem2_precise_region_inside_imprecise():
    rng = np.random.default_rng(17)
    for _ in range(40):
        n = int(rng.integers(2, 15))
        m = int(rng.integers(1, 4))
        lower = rng.normal(size=(n, m))
        upper = lower + rng.uniform(0.0, 1.5, size=(n, m))
        precise = rng.uniform(lower, upper)
        j = int(rng.integers(0, max(1, min(4, (n - 1) // 2))))
        rho = 2.0 if j == 0 else 1.0 / (j + 0.5)
        box_i, _ = solve_box_imprecise((lower, upper), rho)
        box_p, _ = solve_box_precise(precise, rho)
        assert np.all(box_p.lower >= box_i.lower - 1e-12)
        assert np.all(box_p.upper <= box_i.upper + 1e-12)


# ---------------------------------------------------------------------------
# Complexity (precise greedy)
# ---------------------------------------------------------------------------

def test_example_two_four_face_samples():
    rng = np.random.default_rng(1)
    inner = rng.uniform(0.3, 0.7, size=(21, 2))
    faces = np.array([[0.0, 0.5], [1.0, 0.5], [0.5, 0.0], [0.5, 1.0]])
    values = np.vstack([inner, faces])
    region, relaxed = solve_box_precise(values, 2.0)
    assert relaxed == ()
    assert complexity_precise(values, 2.0, region, relaxed) == 4


def test_single_sample_complexity_is_one():
    values = np.array([[0.4, 0.7]])
    region, relaxed = solve_box_precise(values, 2.0)
    assert complexity_precise(values, 2.0, region, relaxed) == 1


def test_greedy_bound_dominates_brute_force():
    rng = np.random.default_rng(13)
    for _ in range(30):
        n = int(rng.integers(2, 8))
        m = int(rng.integers(1, 3))
        values = rng.normal(size=(n, m))
        j = int(rng.integers(0, max(1, min(3, (n - 1) // 2))))
        rho = 2.0 if j == 0 else 1.0 / (j + 0.5)
        region, relaxed = solve_box_precise(values, rho)
        greedy = complexity_precise(values, rho, region, relaxed)
        assert brute_force_complexity(values, rho) <= greedy


def test_greedy_can_drop_redundant_boundary_samples():
    # duplicated face value: one of the two tied samples is removable
    values = np.array([[1.0], [2.0], [2.0], [3.0], [6.0]])
    region, relaxed = solve_box_precise(values, 0.7)
    d = complexity_precise(values, 0.7, region, relaxed)
    assert d == 4  # relaxed {1.0, 6.0} + faces {2.0 (one copy), 3.0}


def _same_region(a, b) -> bool:
    return (a.lower.tobytes() == b.lower.tobytes() and a.upper.tobytes() == b.upper.tobytes()
            and a.classification.tobytes() == b.classification.tobytes())


def test_order_statistics_match_rank_count_reference():
    """Boxes, relaxed sets and d keep every bit of the rank-count faces and the
    re-solving greedy, on tie-heavy matrices.  rho = 0.04 and 0.02 are the
    critical 1/25 and 1/50, which both reject; the mid-gap 1/25.5 and 1/50.5
    put k past n/2, so faces cross and the greedy reaches k kept rows, where
    it skips."""
    rng = np.random.default_rng(20)
    crossed = at_floor = compared = 0
    for rho in rho_grid(12) + [0.04, 0.02, 1 / 25.5, 1 / 50.5]:
        k = int(1.0 / rho) + 1
        for _ in range(40):
            n = int(rng.integers(max(1, k - 2), 2 * k + 12))
            m = int(rng.integers(1, 4))
            values = rng.integers(0, int(rng.integers(1, 5)), size=(n, m)) * 0.5
            width = rng.integers(0, 3, size=(n, m)) * 0.25
            lower, upper = values - width * (rng.random((n, m)) < 0.5), values + width
            for lo, hi in ((lower, upper), (values, values)):
                try:
                    ref, ref_relaxed = solve_box_reference(lo, hi, rho)
                except ScenarioError as exc:
                    with pytest.raises(type(exc)):
                        solve_box_imprecise((lo, hi), rho)
                    break
                got, got_relaxed = solve_box_imprecise((lo, hi), rho)
                assert _same_region(got, ref) and got_relaxed == ref_relaxed
                crossed += bool(np.any(np.sort(hi, axis=0)[n - k] < np.sort(lo, axis=0)[k - 1]))
            else:  # both raise, or both keep every bit
                region, relaxed = solve_box_precise(values, rho)
                assert _same_region(region, ref) and relaxed == ref_relaxed
                d = complexity_precise(values, rho, region, relaxed)
                assert d == complexity_precise_reference(values, rho)
                at_floor += len(relaxed) + len(region.boundary_indices()) - d == n - k
                compared += 1
    assert crossed > 0 and at_floor > 0 and compared > 300


# ---------------------------------------------------------------------------
# Complexity (imprecise, surely-noncritical route)
# ---------------------------------------------------------------------------

def _stack_fixture():
    lower = np.array([[2.00], [1.35], [1.30], [0.30], [0.35], [0.60], [0.10], [0.05]])
    upper = np.array([[2.30], [1.80], [1.40], [0.42], [0.70], [0.90], [0.20], [0.15]])
    return lower, upper


def test_surely_noncritical_membership():
    lower, upper = _stack_fixture()
    region, relaxed = solve_box_imprecise((lower, upper), 0.4)
    assert (region.lower[0], region.upper[0]) == (0.30, 1.40)
    d, analysis = complexity_imprecise((lower, upper), region)
    # the narrow deep-inside box is surely noncritical, its neighbour that
    # pokes into the face-hugging zone is not
    assert 5 in analysis.surely_noncritical      # u6 analogue
    assert 4 not in analysis.surely_noncritical  # u5 analogue
    assert d == 8 - len(analysis.surely_noncritical)
    assert d >= len(relaxed)


def test_every_box_on_boundary_gives_eta_zero():
    lower = np.array([[0.0, 0.0], [0.0, 0.5], [0.5, 0.0]])
    upper = np.array([[1.0, 1.0], [1.0, 1.5], [1.5, 1.0]])
    region, _ = solve_box_imprecise((lower, upper), 2.0)
    d, analysis = complexity_imprecise((lower, upper), region)
    assert analysis.surely_noncritical == ()
    assert d == 3
    assert compute_eta(3, d, 0.9) == 0.0


def test_face_defining_boxes_only():
    # 2m thin face-hugging boxes plus separated interior boxes: X is exactly
    # the interior set and d* equals the boundary count
    faces_lo = np.array([[0.00, 0.40], [0.90, 0.40], [0.40, 0.00], [0.40, 0.90]])
    faces_hi = np.array([[0.10, 0.50], [1.00, 0.50], [0.50, 0.10], [0.50, 1.00]])
    inner_lo = np.array([[0.30, 0.30], [0.60, 0.60], [0.30, 0.60]])
    inner_hi = np.array([[0.35, 0.35], [0.65, 0.65], [0.35, 0.65]])
    lower = np.vstack([faces_lo, inner_lo])
    upper = np.vstack([faces_hi, inner_hi])
    region, _ = solve_box_imprecise((lower, upper), 2.0)
    d, analysis = complexity_imprecise((lower, upper), region)
    assert set(analysis.boundary) == {0, 1, 2, 3}
    assert set(analysis.surely_noncritical) == {4, 5, 6}
    assert d == 4


def test_imprecise_bound_dominates_midpoint_brute_force():
    # Theorem-3 route must bound the complexity of any precise selection
    # inside the intervals; midpoints serve as the oracle selection
    rng = np.random.default_rng(23)
    for _ in range(25):
        n = int(rng.integers(2, 8))
        m = int(rng.integers(1, 3))
        lower = rng.normal(size=(n, m))
        upper = lower + rng.uniform(0.0, 1.0, size=(n, m))
        j_max = max(1, min(3, (n - 1) // 2))
        j = int(rng.integers(0, j_max))
        rho = 2.0 if j == 0 else 1.0 / (j + 0.5)
        region, _ = solve_box_imprecise((lower, upper), rho)
        d, _ = complexity_imprecise((lower, upper), region)
        midpoint_c = brute_force_complexity((lower + upper) / 2.0, rho)
        assert midpoint_c <= d


def test_naive_imprecise_greedy_is_unsound_lemma2_pattern():
    # one box corner covers two faces that two distinct samples define under
    # the (hidden) precise solutions, so the naive greedy undercounts
    boxes_lo = np.array([[1.0, 1.0], [0.0, 0.0], [2.5, 8.0], [4.5, 0.2], [3.0, 3.0]])
    boxes_hi = np.array([[10.0, 10.0], [0.5, 0.5], [3.5, 9.0], [5.5, 0.6], [4.0, 4.0]])
    precise = np.array([[9.5, 2.0], [0.2, 0.3], [3.0, 8.8], [5.0, 0.25], [3.5, 3.5]])
    assert np.all((boxes_lo <= precise) & (precise <= boxes_hi))

    naive = naive_imprecise_greedy(boxes_lo, boxes_hi, 2.0)
    true_c = brute_force_complexity(precise, 2.0)
    assert naive < true_c  # the naive bound would be unsound

    region, _ = solve_box_imprecise((boxes_lo, boxes_hi), 2.0)
    d, _ = complexity_imprecise((boxes_lo, boxes_hi), region)
    assert d >= true_c  # the shipped bound stays sound


# ---------------------------------------------------------------------------
# eta
# ---------------------------------------------------------------------------

def test_eta_anchor_values():
    assert compute_eta(25, 4, 0.9) == pytest.approx(0.615, abs=1e-3)
    assert compute_eta(25, 4, 0.999) == pytest.approx(0.455, abs=1e-3)


def test_eta_zero_at_full_complexity():
    for n in (10, 25, 100):
        for beta in (0.9, 0.99, 0.999):
            assert compute_eta(n, n, beta) == 0.0


def test_eta_monotone_in_complexity_and_beta():
    etas = [compute_eta(25, c, 0.9) for c in range(25)]
    assert all(a > b for a, b in zip(etas, etas[1:]))
    assert compute_eta(25, 4, 0.9) > compute_eta(25, 4, 0.99) > compute_eta(25, 4, 0.999)


def test_eta_tightens_with_more_samples_at_matched_ratio():
    for k in (1, 2, 3, 4, 5, 6):
        assert compute_eta(100, 4 * k, 0.9) > compute_eta(25, k, 0.9)


@pytest.mark.parametrize("beta", [1e-3, 0.5, 0.9, 0.99, 0.999, 0.9999])
def test_eta_matches_linear_scan_reference(beta):
    cases = [(n, range(n + 1)) for n in range(1, 121)]
    cases += [(1_000, (0, 37, 500, 999)), (10_000, (50, 9_999))]
    for n, ds in cases:
        assert [compute_eta(n, d, beta) for d in ds] == eta_references(n, ds, beta).tolist(), n


def test_eta_reference_scan_matches_scalar_scan():
    # the reference scans h at every grid point at once; each point gets the
    # bits of the scalar h, so the bracket is the scalar scan's
    grid = np.array(ETA_SCAN_GRID)
    cases = [(n, d) for n in range(1, 25) for d in range(n)] + [(1_000, 37)]
    for beta in (1e-3, 0.9, 0.999):
        for n, d in cases:
            h = eta_h(n, d, beta)
            assert np.array_equal(eta_h_at(n, d, beta, grid), [h(t) for t in ETA_SCAN_GRID]), \
                (n, d, beta)
            assert eta_bracket(n, d, beta) == eta_bracket_scalar(n, d, beta), (n, d, beta)


def test_eta_never_exceeds_its_root():
    # h(eta) <= 0 < h(eta + 1e-9): the root lies in (eta, eta + 1e-9]
    for n in (10, 50, 100, 1_000):
        for d in range(min(n, 40)):
            for beta in (0.9, 0.99, 0.999):
                eta = compute_eta(n, d, beta)
                h = eta_h(n, d, beta)
                assert h(eta) <= 0.0 < h(eta + 1e-9), (n, d, beta)


def test_non_finite_solutions_rejected():
    for bad in (np.nan, np.inf, -np.inf):
        values = np.array([[0.1, 0.2], [0.3, bad]])
        with pytest.raises(ScenarioError, match="finite"):
            solutions_matrix(values)
        with pytest.raises(ScenarioError, match="finite"):
            bound_outcome(values, 2.0, [0.9])
        with pytest.raises(ScenarioError, match="finite"):
            interval_matrices((np.zeros((2, 2)), values))
        with pytest.raises(ScenarioError, match="finite"):
            bound_outcome((values, np.ones((2, 2))), 2.0, [0.9], "imprecise")


def test_eta_large_n_and_extreme_inputs():
    assert 0.0 < compute_eta(10_000, 9_999, 0.9) < 1e-4
    assert compute_eta(10_000, 50, 0.99) > 0.98
    with pytest.raises(ScenarioError):
        compute_eta(10, 11, 0.9)
    with pytest.raises(ScenarioError):
        compute_eta(10, 2, 1.0)


# ---------------------------------------------------------------------------
# Composed outcomes
# ---------------------------------------------------------------------------

def test_bound_outcome_zero_width_intervals_match_precise():
    rng = np.random.default_rng(8)
    values = rng.normal(size=(15, 2))
    precise = bound_outcome(values, 1 / 1.5, [0.9, 0.99], "precise")
    imprecise = bound_outcome((values, values), 1 / 1.5, [0.9, 0.99], "imprecise")
    assert np.array_equal(precise.region.lower, imprecise.region.lower)
    assert np.array_equal(precise.region.upper, imprecise.region.upper)
    assert precise.relaxed == imprecise.relaxed
    assert precise.complexity_bound == imprecise.complexity_bound
    assert precise.eta == imprecise.eta


def test_bound_outcome_rho_sweep_monotonicity():
    rng = np.random.default_rng(21)
    values = rng.normal(size=(60, 3))
    widths, complexities = [], []
    for rho in rho_grid(8):
        out = bound_outcome(values, rho, [0.9], "precise")
        widths.append(out.region.upper - out.region.lower)
        complexities.append(out.complexity_bound)
    for a, b in zip(widths, widths[1:]):
        assert np.all(b <= a + 1e-12)
    assert all(a <= b for a, b in zip(complexities, complexities[1:]))


def test_outcome_determinism():
    rng = np.random.default_rng(5)
    values = rng.normal(size=(30, 2))
    a = bound_outcome(values, 0.4, [0.9], "precise")
    b = bound_outcome(values, 0.4, [0.9], "precise")
    assert np.array_equal(a.region.lower, b.region.lower)
    assert a.eta == b.eta and a.relaxed == b.relaxed


# ---------------------------------------------------------------------------
# Refinement loop
# ---------------------------------------------------------------------------

def test_refine_until_precise_inputs_stop_immediately():
    rng = np.random.default_rng(2)
    values = rng.normal(size=(10, 2))
    calls = []

    def refiner(i):
        calls.append(i)
        return values[i], values[i]

    outcome, etas = refine_until((values, values), 2.0, 0.9, 0.001, 5, refiner)
    assert len(etas) == 1
    assert calls == []


def test_refine_until_converges_to_precise():
    rng = np.random.default_rng(4)
    values = rng.normal(size=(20, 2))
    lower = values - rng.uniform(0.5, 1.0, size=values.shape)
    upper = values + rng.uniform(0.5, 1.0, size=values.shape)

    def refiner(i):
        return values[i], values[i]  # a perfect one-shot refinement

    # disable the stagnation stop: eta may plateau while wide interior boxes
    # drift onto the shrinking boundary before being refined themselves
    outcome, etas = refine_until((lower, upper), 2.0, 0.9, -np.inf, 20, refiner)
    precise = bound_outcome(values, 2.0, [0.9], "precise")
    assert outcome.eta[0.9] >= etas[0]
    assert outcome.eta[0.9] == pytest.approx(precise.eta[0.9], abs=1e-9)


def test_refine_until_refines_exactly_the_boundary_set():
    lower, upper = _stack_fixture()
    region, _ = solve_box_imprecise((lower, upper), 0.4)
    _, analysis = complexity_imprecise((lower, upper), region)
    refined = []

    def refiner(i):
        refined.append(i)
        return lower[i], upper[i]

    refine_until((lower, upper), 0.4, 0.9, 1e-9, 2, refiner)
    assert sorted(set(refined)) == sorted(analysis.boundary)


def test_refine_until_eta_never_decreases_in_best_outcome():
    rng = np.random.default_rng(14)
    values = rng.normal(size=(30, 2))
    lower = values - rng.uniform(0.1, 2.0, size=values.shape)
    upper = values + rng.uniform(0.1, 2.0, size=values.shape)
    shrink = {"factor": 1.0}

    def refiner(i):
        shrink["factor"] *= 0.5
        mid = values[i]
        return (mid - (mid - lower[i]) * shrink["factor"],
                mid + (upper[i] - mid) * shrink["factor"])

    outcome, etas = refine_until((lower, upper), 2.0, 0.9, -1.0, 6, refiner)
    assert outcome.eta[0.9] == pytest.approx(max(etas))


# ---------------------------------------------------------------------------
# Baselines
# ---------------------------------------------------------------------------

def test_baseline_independent_single_measure_equals_joint():
    rng = np.random.default_rng(6)
    values = rng.normal(size=(40, 1))
    joint = bound_outcome(values, 2.0, [0.99], "precise")
    combined, etas = baseline_independent(values, 2.0, 0.99)
    assert len(etas) == 1
    assert combined == pytest.approx(joint.eta[0.99], abs=1e-9)


def test_baseline_independent_never_beats_any_single_measure():
    rng = np.random.default_rng(9)
    values = rng.normal(size=(50, 5))
    combined, etas = baseline_independent(values, 2.0, 0.99)
    assert combined <= min(etas) + 1e-12


def test_baseline_frequentist_sentinels():
    region_all = solve_box_precise(np.array([[0.0], [1.0]]), 2.0)[0]
    region_all.lower[:] = -np.inf
    region_all.upper[:] = np.inf
    fresh = np.random.default_rng(0).normal(size=(100, 1))
    assert baseline_frequentist(fresh, region_all) == 1.0
    region_all.lower[:] = 2.0
    region_all.upper[:] = 1.0
    assert baseline_frequentist(fresh, region_all) == 0.0


def test_rank_stats_precise_counts():
    values = np.array([[1.0], [2.0], [2.0], [5.0]])
    stats = rank_stats(values)
    assert stats.num_upper_ge[:, 0].tolist() == [4, 3, 3, 1]
    assert stats.num_lower_le[:, 0].tolist() == [1, 3, 3, 4]
