import math
import re

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
    chain_reference,
    dense_generator,
    interval_reach_oracle,
    plain_series_reference,
    poisson_terms_loop,
    reach_oracle,
    random_ctmc,
    transient_oracle,
    uniformized_sparse,
)
from scipy import sparse
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
    for epsilon, message in ((1e-13, "below float accumulation limit"),
                             (0.0, "must be positive"), (-1.0, "must be positive"),
                             (float("nan"), "must be positive")):
        with pytest.raises(CheckerError, match=message):
            transient_distribution(two_state(), 1.0, epsilon=epsilon)


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


def _oracle_values(c, measures):
    """Dense-expm values of reach, interval and instant-reward measures."""
    out = []
    for meas in measures:
        if isinstance(meas, InstantReward):
            out.append(float(transient_oracle(c, meas.time) @ c.reward_vector(meas.reward)))
        elif isinstance(meas, TimeBoundedReach):
            out.append(reach_oracle(c, c.label_mask(meas.target), meas.horizon))
        else:
            out.append(interval_reach_oracle(c, c.label_mask(meas.target), meas.t_lo,
                                             meas.t_hi))
    return np.array(out)


def _with_reward(c, name, reward):
    return ConcreteCtmc(c.states, c.initial, (c.data, c.indices, c.indptr), c.labels,
                        {**c.rewards, name: reward})


def _sink_chain(m, u, size):
    """The first ``size`` states of m's chain at u in BFS order, with every
    edge that leaves them sent to one last absorbing sink (no label, reward 0)."""
    retained = build_full(m, u).states[:size]  # compiles m for the reference
    rates, initial, labels, rewards = chain_reference(m, u, retained)
    return ConcreteCtmc.from_dense(rates.toarray(), initial, labels, rewards)


def _death_measures():
    return MeasureSet((
        TimeBoundedReach("reach", "extinct", 30.0),
        IntervalReach("window", "extinct", 10.0, 40.0),
        InstantReward("level", "level", 0.5),
        InstantReward("late", "level", 20.0),
    ))


def _with_level(c):
    return _with_reward(c, "level", np.arange(c.num_states, dtype=float))


@pytest.mark.parametrize("eps", [1e-3, 1e-6, 1e-12])
def test_adaptive_pass_matches_expm_oracle(eps, sir2, sir20, mean_valuation):
    # full chains are checked by adaptive uniformization: reach, interval and
    # reward measures are within epsilon of dense expm, on chains whose mass
    # settles (sir2, a sir20 full chain) and on one that drains through
    # rates 40x apart
    sir_measures = MeasureSet((
        TimeBoundedReach("reach", "extinct", 40.0),
        IntervalReach("window", "extinct", 60.0, 90.0),
        IntervalReach("from_zero", "extinct", 0.0, 70.0),
        InstantReward("infected", "infected", 25.0),
        InstantReward("late", "infected", 120.0),
    ))
    for c, measures in ((build_full(sir2, mean_valuation), sir_measures),
                        (build_full(sir20, mean_valuation), sir_measures),
                        (_with_level(draining_death_chain()), _death_measures())):
        ours = evaluate_measures(c, measures, epsilon=eps)
        assert np.all(np.abs(ours - _oracle_values(c, measures)) <= eps), (eps, ours)
        pi = transient_distribution(c, 30.0, epsilon=eps)
        assert np.abs(pi - transient_oracle(c, 30.0)).sum() <= eps


def test_adaptive_reward_share_scales_with_largest_reward(sir20, mean_valuation):
    # a reward pass drops at most epsilon / 8 of mass over the chain's largest
    # reward: with rewards of 10^6 the values stay within epsilon although
    # dropping removes mass
    from uctmc.checker import _DROP_SHARE, _Adaptive

    eps, big = 1e-3, 1e6
    full = build_full(sir20, mean_valuation)
    c = _with_reward(full, "big", big * full.reward_vector("infected") / 20.0)
    measures = MeasureSet((InstantReward("big", "big", 25.0),
                           InstantReward("late", "big", 120.0)))
    errors = evaluate_measures(c, measures, epsilon=eps) - _oracle_values(c, measures)
    assert np.all(np.abs(errors) <= eps), errors

    def dropped(scale):
        # mass dropped in the first 200 steps of the reward pass
        steps = _Adaptive([c], [None], eps, scale, eps * _DROP_SHARE)._steps(c.initial[None])
        for _, (_, _, mass) in zip(range(200), steps):
            pass
        return mass[0]

    # the pass the measures ran drops mass within the scaled share; an
    # unscaled share would let it drop more
    share = eps * _DROP_SHARE / big
    assert 0.0 < dropped(np.array([big])) <= share
    assert dropped(np.ones(1)) > share


def test_birth_chain_with_constant_rate_gives_poisson_weights():
    # levels 0 .. 38 at rate 3.7 and an absorbing last level (then padding):
    # the chain's distribution at t is Poisson(3.7 t) on the first levels and
    # its tail on the last
    from uctmc.checker import _Births, _poisson_windows

    lam, levels = 3.7, 40
    rates = np.full((2, levels + 5), lam)
    rates[:, levels - 1:] = 0.0
    births = _Births(rates, np.full(2, lam), np.zeros(2), np.zeros(2))
    for t in (0.3, 2.0, 6.5):
        start = np.zeros((levels + 5, 2))
        start[0] = 1.0
        pi = births.transient(start, np.full((1, 2), lam * t))[0]
        (k_lo,), _, weights = _poisson_windows([lam * t])
        expected = np.zeros(k_lo + weights.size + levels + 5)
        expected[k_lo:k_lo + weights.size] = weights
        expected[levels - 1] = expected[levels - 1:].sum()
        expected = expected[:levels + 5]
        expected[levels:] = 0.0
        assert t < 6.5 or expected[levels - 1] > 1e-3  # the tail level is reached
        for column in pi.T:
            assert np.allclose(column, expected, rtol=1e-12, atol=1e-300), t


def test_segmented_birth_weights_match_expm_of_a_stiff_birth_chain(caplog):
    # rates rise from 30 to 230 over 60 levels, then fall geometrically to
    # 0.04: one segment at the largest rate would take 23,000 expected steps,
    # the segments at the rates of their live levels take fewer than 2,000
    from uctmc.checker import _LEVEL_SHARE, _birth_rows, _birth_weights, _segments

    rise = np.linspace(30.0, 230.0, 60)
    fall = 230.0 * (0.04 / 230.0) ** (np.arange(1, 441) / 440)
    rates = np.concatenate((rise, fall))[None]
    levels, t, eps = rates.shape[1], 100.0, 1e-6
    cut = np.array([levels - 1])
    assert _segments(_birth_rows(rates, cut), t)[0] >= 4
    share = eps * _LEVEL_SHARE
    with caplog.at_level("DEBUG", logger="uctmc.checker"):
        weights = _birth_weights(rates, cut, t, np.array([share]))[0]
    steps = re.search(r"(\d+) expected uniformized steps \(one segment: (\d+)\), mean band "
                      r"(\S+) of (\d+) levels, largest zeroed mass (\S+) \((\S+) by the band "
                      r"advance\)", caplog.text)
    assert int(steps[1]) < 2000 and int(steps[2]) == 23000
    # the band is far narrower than the levels, and the segment starts and
    # the band advance zero within the share together
    assert float(steps[3]) < int(steps[4]) * 2 / 3 and int(steps[4]) == levels + 1
    assert 0.0 < float(steps[6]) <= float(steps[5]) <= share * 1.001  # logged to 3 digits
    generator = np.zeros((levels + 1, levels + 1))
    generator[np.arange(levels), np.arange(levels)] = -rates[0]
    generator[np.arange(levels), np.arange(1, levels + 1)] = rates[0]
    exact = expm(generator * t)[0]
    # zeroing low levels only lowers weights, by at most the share
    assert np.all(weights <= exact + 1e-15)
    assert np.abs(weights - exact).sum() <= share


def test_steps_resumed_from_the_saved_iterate_repeat_the_first_run(sir20):
    # phase one of a batch saves one iterate, x_j at its smallest j; stepping
    # on from it, with its step index and dropped mass, gives the first run's
    # iterates, rates and dropped masses bit for bit, across a flush
    from uctmc.checker import _DROP_SHARE, _FLUSH_EVERY, _Adaptive
    from uctmc.sampling import sample_valuations

    chains = [build_full(sir20, u) for u in sample_valuations(sir20, 4, 3).valuations]
    absorbing = [c.label_mask("extinct") for c in chains]
    initial = np.array([c.initial for c in chains])
    adaptive = _Adaptive(chains, absorbing, 1e-6, np.ones(len(chains)), 1e-6 * _DROP_SHARE)
    _, cuts, _, (x, first, dropped, heads) = adaptive._pass(initial, np.array([100.0]),
                                                           save=True)
    assert first == heads.min() and 0 < first <= cuts.min()
    assert dropped.max() > 0.0 and first + 40 > 2 * _FLUSH_EVERY > first
    fresh = adaptive._steps(initial)
    for _ in range(first):
        next(fresh)
    for _, (a, b) in zip(range(40), zip(fresh, adaptive._steps(x, first, dropped))):
        for one, other in zip(a, b):
            assert np.array_equal(one, other)


def fast_then_slow_chain(top=60):
    """Pure death chain top -> ... -> 0 whose rates fall from 240 at the top
    to 0.05 at the bottom: phase one of a late window is stiff at first and
    slow at the end."""
    rates = np.zeros((top + 1, top + 1))
    for i in range(1, top + 1):
        rates[i, i - 1] = 0.05 * (240.0 / 0.05) ** ((i - 1) / (top - 1))
    initial = np.zeros(top + 1)
    initial[top] = 1.0
    extinct = np.zeros(top + 1, dtype=bool)
    extinct[0] = True
    return ConcreteCtmc.from_dense(rates, initial, labels={"extinct": extinct})


def _pass_case(case, sir20, sir140, sir_measures):
    """The chains, absorbing sets, reward vectors (None: the targets' pass),
    times and whether the pass saves an iterate, for one windowed-pass
    case."""
    from uctmc.sampling import sample_valuations

    four = [build_full(sir20, u) for u in sample_valuations(sir20, 4, 3).valuations]
    windows = [m.t_hi - m.t_lo for m in sir_measures]
    if case == "sir20 target":
        return four, "extinct", None, [100.0], True
    if case == "sir20 reward":
        return four, None, "infected", windows, False
    if case == "sir140":
        chains = [build_full(sir140, u) for u in sample_valuations(sir140, 2, 1).valuations]
        return chains, "extinct", None, [100.0], True
    if case == "fast then slow":
        return [fast_then_slow_chain()], "extinct", None, [40.0], True
    if case == "t = 0":
        return four[:2], "extinct", None, [0.0, 3.0], False
    if case == "first window":
        return four[:2], "extinct", None, [0.05], True
    return [fast_then_slow_chain(), four[0]], "extinct", None, [40.0], True


@pytest.mark.parametrize("case", ["sir20 target", "sir20 reward", "sir140", "fast then slow",
                                  "t = 0", "first window", "different windows"])
def test_windowed_pass_matches_the_per_step_pass_bit_for_bit(case, sir20, sir140, sir_measures):
    # the pass evaluates its bookkeeping once per window of steps and steps
    # on past its last cut, then trims; its rates, cuts, series, saved
    # iterate and dropped masses, and the second run over the band, are the
    # bits of a pass that tests every step as it is taken
    from uctmc.checker import _DROP_SHARE, _WINDOW, _Adaptive, _padded, _reader
    from oracles import adaptive_pass_reference, adaptive_transient_reference

    chains, target, reward, times, save = _pass_case(case, sir20, sir140, sir_measures)
    absorbing = [None if target is None else c.label_mask(target) for c in chains]
    size = max(c.num_states for c in chains)
    start = _padded([c.initial for c in chains], size)
    name = target if reward is None else reward
    vectors = _padded([[c.reward_vector(name) if reward else c.label_mask(name).astype(float)]
                       for c in chains], size)
    scale = vectors.max(axis=(1, 2)).clip(1.0)
    adaptive = _Adaptive(chains, absorbing, 1e-6, scale, 1e-6 * _DROP_SHARE)
    times = np.array(times)
    # state-major, as _Adaptive.series numbers it
    reader = _reader(vectors, np.arange(start.size).reshape(size, len(chains)).T)
    for read in ((reader, None) if not save else (None,)):
        ours = adaptive._pass(start, times, read, save)
        ours += (adaptive.dropped,)
        theirs = adaptive_pass_reference(adaptive, start, times, read, save)
        for one, other in zip(ours[:3] + ours[4:], theirs[:3] + theirs[4:]):
            assert one.shape == other.shape and np.array_equal(one, other)
        assert (ours[3] is None) == (theirs[3] is None)
        if save:
            for one, other in zip(ours[3], theirs[3]):
                assert np.array_equal(one, other)
    cuts = ours[1]
    if case == "first window":
        assert cuts.max() < _WINDOW
    if case == "different windows":
        assert len(set((cuts.max(axis=1) // _WINDOW).tolist())) > 1
    if case == "t = 0":
        assert cuts[:, 0].max() == 0 and cuts[:, 1].min() > 0
    if save:
        assert np.array_equal(adaptive.transient(start, times[0]),
                              adaptive_transient_reference(adaptive, start, times[0]))


@pytest.mark.parametrize("eps", [1e-3, 1e-6, 1e-12])
def test_interval_measures_on_a_fast_then_slow_chain_match_expm_oracle(eps):
    # phase one runs its birth weights in several segments and weighs only
    # the levels from its saved iterate on; both losses stay within epsilon
    from uctmc.checker import _DROP_SHARE, _Adaptive, _birth_rows, _segments

    c = fast_then_slow_chain()
    mask = c.label_mask("extinct")
    t_lo = 40.0
    rates, cuts, _, (_, first, _, _) = _Adaptive([c], [mask], eps, np.ones(1),
                                                 eps * _DROP_SHARE)._pass(
        c.initial[None], np.array([t_lo]), save=True)
    assert _segments(_birth_rows(rates, cuts[:, 0]), t_lo)[0] > 0 and first > 0
    t_his = [45.0, 60.0, 100.0]
    ours = interval_reaches(c, "extinct", t_lo, t_his, epsilon=eps)
    for value, t_hi in zip(ours, t_his):
        assert abs(value - interval_reach_oracle(c, mask, t_lo, t_hi)) <= eps, (eps, t_hi)
    pi = transient_distribution(c, t_lo, epsilon=eps)
    assert np.abs(pi - transient_oracle(c, t_lo)).sum() <= eps


@pytest.mark.parametrize("model, n, target, steps", [("sir20", 4, "extinct", 300),
                                                     ("sir20", 4, None, 300),
                                                     ("sir140", 2, "extinct", 600)])
def test_band_steps_match_the_full_width_steps_bit_for_bit(model, n, target, steps, request):
    # the adaptive step reads and writes only the rows around the states that
    # hold mass; the iterates, rates and dropped masses are those of a step
    # over every padded state of every block, over the whole pass (sir20: up
    # to 150 steps, sir140: 540) and across flushes
    from uctmc.checker import _DROP_SHARE, _Adaptive, _padded
    from oracles import adaptive_steps_reference

    m = request.getfixturevalue(model)
    chains = [build_full(m, u) for u in uctmc.sample_valuations(m, n, seed=3).valuations]
    absorbing = [None if target is None else c.label_mask(target) for c in chains]
    start = _padded([c.initial for c in chains], max(c.num_states for c in chains))
    args = (chains, absorbing, 1e-6, np.ones(n), 1e-6 * _DROP_SHARE)
    adaptive = _Adaptive(*args)
    for k, (ours, full) in zip(range(steps), zip(adaptive._steps(start),
                                                 adaptive_steps_reference(*args, start))):
        for one, other in zip(ours, full):
            assert np.array_equal(one, other), k
    assert ours[2].min() > 0.0  # every block dropped mass
    if model == "sir140":
        assert adaptive.rows / adaptive.steps < start.shape[1] / 2


def test_block_max_reads_each_blocks_largest_entry():
    from uctmc.checker import _WIDE_BATCH, _block_max
    rng = np.random.default_rng(0)
    for blocks in (1, 2, _WIDE_BATCH - 1, _WIDE_BATCH, 100):
        rows = rng.random((37, blocks))
        assert np.array_equal(_block_max(rows.reshape(-1), blocks), rows.max(axis=0)), blocks


def test_a_batch_with_mass_flowing_down_gives_each_chain_its_own_bits(sir20, mean_valuation):
    # the death chain's mass moves to lower states, so its band widens
    # downward, while sir20's moves up; batched, each chain gets the bits it
    # gets alone, within epsilon of dense expm
    from uctmc.checker import _DROP_SHARE, _Adaptive, _evaluate, _padded

    eps = 1e-6
    chains = [fast_then_slow_chain(), build_full(sir20, mean_valuation)]
    measures = MeasureSet((TimeBoundedReach("reach", "extinct", 60.0),
                           IntervalReach("window", "extinct", 40.0, 100.0)))
    together = _evaluate(chains, measures, eps)[0]
    for c, values in zip(chains, together):
        assert np.array_equal(values, _evaluate([c], measures, eps)[0][0])
        assert np.all(np.abs(values - _oracle_values(c, measures)) <= eps), values

    def adaptive(cs):
        return _Adaptive(cs, [None] * len(cs), eps, np.ones(len(cs)), eps * _DROP_SHARE)

    size = max(c.num_states for c in chains)
    pis = adaptive(chains).transient(_padded([c.initial for c in chains], size), 30.0)
    for c, pi in zip(chains, pis):
        alone = adaptive([c]).transient(c.initial[None], 30.0)[0]
        assert np.array_equal(pi[:c.num_states], alone) and not pi[c.num_states:].any()
        assert np.abs(alone - transient_oracle(c, 30.0)).sum() <= eps


def _chain_arrays(c):
    """Every array a chain holds, by attribute (and key)."""
    for name, value in vars(c).items():
        if isinstance(value, np.ndarray):
            yield name, value
        elif isinstance(value, dict):
            yield from ((f"{name}[{key}]", a) for key, a in value.items())


def test_checking_leaves_every_array_of_the_chain_unchanged(sir20, mean_valuation):
    # the adaptive kernel steps a copy of its start, even when the start is a
    # view of the chain's own initial vector, as for one chain
    from uctmc.checker import _DROP_SHARE, _Adaptive

    measures = MeasureSet((TimeBoundedReach("reach", "extinct", 60.0),
                           IntervalReach("window", "extinct", 40.0, 100.0)))
    for c in (fast_then_slow_chain(), build_full(sir20, mean_valuation)):
        before = {name: a.copy() for name, a in _chain_arrays(c)}
        transient_distribution(c, 30.0)
        evaluate_measures(c, measures)
        _Adaptive([c], [None], 1e-6, np.ones(1), 1e-6 * _DROP_SHARE).transient(c.initial[None],
                                                                              30.0)
        for name, a in _chain_arrays(c):
            if name in before:
                assert np.array_equal(a, before[name]), name


def test_adaptive_pass_logs_its_mean_band(caplog):
    # the death chain's mass moves down one state per step in phase one and
    # sits in a few states in phase two, so each pass steps a band far
    # narrower than the chain; a pass steps past its last cut at most to the
    # end of its window, and phase one steps again to its saved level from
    # the start of that level's window
    from uctmc.checker import _WINDOW

    c = fast_then_slow_chain()
    with caplog.at_level("DEBUG", logger="uctmc.checker"):
        interval_reaches(c, "extinct", 40.0, [45.0, 60.0, 100.0])
    bands = re.findall(r"adaptive pass to t=\S+: 1 blocks, \d+-\d+ steps, mean band (\S+) of "
                       r"(\d+) states, .*, (\d+) steps past the last cut", caplog.text)
    assert len(bands) == 2
    for band, states, past in bands:
        assert int(states) == c.num_states and 1.0 <= float(band) < c.num_states / 2
        assert 0 <= int(past) < 2 * _WINDOW


def test_iterates_match_public_matmul_with_flush():
    from uctmc.checker import _FLUSH_BELOW, _FLUSH_EVERY, _Blocks, _iterates

    c = draining_death_chain()
    pt = _Blocks.uniformized([c], [None]).pt
    matrix = sparse.csr_matrix(pt[::-1], shape=(c.num_states,) * 2)
    steps = 4000
    ours = [x[0].copy() for x in _iterates(pt, c.initial[None], 0, steps + 1,
                                           [1] * (steps + 1))]
    v = c.initial.copy()
    flushed = 0
    for k in range(steps + 1):
        if k:
            v = matrix @ v
            if not k % _FLUSH_EVERY:
                tiny = v < _FLUSH_BELOW
                flushed += int(np.count_nonzero(v[tiny]))
                v[tiny] = 0.0
        assert np.array_equal(ours[k], v), k
    assert flushed > 0
    tail = [x[0].copy() for x in _iterates(pt, c.initial[None], 3000, 5, [1] * 3005)]
    assert all(np.array_equal(a, b) for a, b in zip(tail, ours[3000:3005]))


def _cut_slack(blocks, vectors, steps):
    """The rounding slack of a plain series pass's steady-state cut (module
    docstring), per block: (2K + N) (2r + 8) u max|v| for a pass of N steps
    cut at K <= N, r the longest row of P and u = 2^-53, and the flush's
    1e-280 per ``_FLUSH_EVERY`` steps."""
    from uctmc.checker import _FLUSH_EVERY

    r = int(np.diff(blocks.p[0]).max(initial=0))
    top = np.abs(vectors).max(axis=(1, 2))
    return 3 * steps * (2 * r + 8) * 2.0**-53 * top + (steps // _FLUSH_EVERY + 1) * 1e-280


_PLAIN_SERIES_LINE = (r"plain series pass to t=(\S+): (\d+) blocks, (\d+) of (\d+) steps, "
                      r"(\d+) blocks cut(?: at steps (\d+)-(\d+), largest span at a cut (\S+))?")


def _plain_series_case(case, tandem):
    """Chains that go plain, their absorbing sets (None: rewards), vectors
    and columns: buffer rewards as a two-reward group at t = 2, 25 and 200,
    tandem reach, and random chains of several sizes, which mix."""
    if case == "buffer":
        m = uctmc.load_model(uctmc.example_model_path("buffer"))
        chains = [build_full(m, u) for u in uctmc.sample_valuations(m, 3, seed=4).valuations]
        names = ["buffered", "delivered"]
        columns = [(j, t) for t in (2.0, 25.0, 200.0) for j in range(len(names))]
        return chains, [None] * len(chains), names, columns
    if case == "tandem":
        chains = [build_full(tandem, u)
                  for u in uctmc.sample_valuations(tandem, 4, seed=2).valuations]
        return chains, [c.label_mask("full") for c in chains], None, [(0, 5.0), (0, 10.0)]
    rng = np.random.default_rng(12)
    chains = [random_ctmc(rng, max_states=size) for size in (6, 12, 20, 30, 9)]
    return chains, [None] * len(chains), ["r"], [(0, 1.0), (0, 5.0), (0, 30.0)]


@pytest.mark.parametrize("case", ["buffer", "tandem", "random"])
def test_plain_series_is_the_uncut_forward_pass_within_the_cut_share(case, tandem, caplog):
    # the backward pass with its steady-state cut lies within the cut's share
    # plus the stated rounding slack of the forward pass without it, on the
    # kernel's own P, and within epsilon of dense expm; buffer and the random
    # chains mix, so every block is cut, and tandem's reach never certifies
    from uctmc.checker import _SPAN_SHARE, _Blocks, _padded, _plain, _poisson_span

    eps = 1e-6
    chains, absorbing, names, columns = _plain_series_case(case, tandem)
    # the random chains run through the plain kernel whatever its rule says
    assert case == "random" or all(_plain(c, a) for c, a in zip(chains, absorbing))
    size = max(c.num_states for c in chains)
    start = _padded([c.initial for c in chains], size)
    vectors = (_padded(absorbing, size, bool)[:, None].astype(float) if names is None else
               _padded([[c.reward_vector(name) for name in names] for c in chains], size))
    blocks = _Blocks.uniformized(chains, absorbing, eps)
    with caplog.at_level("DEBUG", logger="uctmc.checker"):
        ours = blocks.series(start, vectors, columns)
    ref = plain_series_reference(blocks, start, vectors, columns)
    lam_t = blocks._unsorted(blocks.lam) * max(t for _, t in columns)
    steps = lam_t.astype(int) + np.array([_poisson_span(x) for x in lam_t]) + 1
    bound = eps * _SPAN_SHARE + _cut_slack(blocks, vectors, steps)
    assert np.all(np.abs(ours - ref) <= bound[:, None]), np.abs(ours - ref).max()
    for b, c in enumerate(chains):
        for i, (j, t) in enumerate(columns):
            if names is None:
                expected = reach_oracle(c, absorbing[b], t)
            else:
                expected = float(transient_oracle(c, t) @ c.reward_vector(names[j]))
            assert abs(ours[b, i] - expected) <= eps, (b, j, t)
    (line,) = re.findall(_PLAIN_SERIES_LINE, caplog.text)
    assert int(line[1]) == len(chains) and int(line[2]) <= int(line[3])
    assert int(line[4]) == (0 if case == "tandem" else len(chains))
    if case == "tandem":
        assert line[2] == line[3]
    else:
        # the pass ends at its last cut, far before its last window end
        assert int(line[2]) == int(line[6]) + 1 < int(line[3]) / 4
        assert float(line[7]) <= eps * _SPAN_SHARE


def test_buffer_measures_match_dense_oracles():
    # the bundled buffer measures, a reward and an interval measure whose
    # second phase is a plain series pass, within epsilon of dense expm
    m = uctmc.load_model(uctmc.example_model_path("buffer"))
    measures = uctmc.io.read_measures(uctmc.example_model_path("buffer_measures"))
    eps = 1e-6
    for u in uctmc.sample_valuations(m, 3, seed=1).valuations:
        c = build_full(m, u)
        expected = [float(transient_oracle(c, 25.0) @ c.reward_vector("buffered")),
                    interval_reach_oracle(c, c.label_mask("both_busy"), 0.5, 2.0)]
        assert np.all(np.abs(evaluate_measures(c, measures, eps) - expected) <= eps)


def test_plain_series_pass_logs_its_cut(caplog):
    # one line per plain series pass: its blocks, the steps it took against
    # its last window end, and its cuts, tested every _SPAN_EVERY steps
    from uctmc.checker import _SPAN_EVERY, _SPAN_SHARE

    m = uctmc.load_model(uctmc.example_model_path("buffer"))
    u = uctmc.Valuation.from_floats(BUFFER_VALUATION)
    c = build_full(m, u)
    with caplog.at_level("DEBUG", logger="uctmc.checker"):
        instant_reward(c, "buffered", 25.0)
        reach_probability(c, "both_busy", 0.01)
    lines = re.findall(_PLAIN_SERIES_LINE, caplog.text)
    assert len(lines) == 2
    (t, blocks, taken, end, cut, first, last, span), short = lines
    assert (t, blocks, cut) == ("25", "1", "1") and first == last
    assert int(last) % _SPAN_EVERY == 0 and int(taken) == int(last) + 1 < int(end)
    assert 0.0 <= float(span) <= 1e-6 * _SPAN_SHARE
    # a pass too short to mix runs to its window end, uncut
    assert short[:2] == ("0.01", "1") and short[2] == short[3] and short[4:] == ("0", "", "", "")


def _two_class_chain():
    """Two closed classes, {0, 1} and {2, 3, 4}, with different rewards, and
    a target (state 1) that the second class cannot reach: neither its
    reward pass nor its reach pass ever mixes, so neither is ever cut."""
    rates = np.zeros((5, 5))
    rates[0, 1], rates[1, 0] = 3.0, 2.5
    rates[2, 3], rates[3, 4], rates[4, 2], rates[3, 2] = 3.0, 2.0, 2.8, 1.0
    return ConcreteCtmc.from_dense(
        rates, [0.5, 0.0, 0.5, 0.0, 0.0],
        labels={"both_busy": [False, True, False, False, False]},
        rewards={"buffered": [1.0, 2.0, 5.0, 6.0, 7.0], "delivered": [0.0, 1.0, 0.0, 2.0, 3.0]})


def test_plain_cut_gives_each_chain_its_own_bits(monkeypatch, caplog):
    # one batch mixes buffer blocks, which are cut early, with a smaller
    # two-class chain, which never is: each chain's values are the same bits
    # alone, in reversed order, across a _batches split and in approximate
    # mode; each measure (one reward of a two-reward group included) is the
    # same bits alone; and every value is within epsilon of dense expm
    from uctmc import checker
    from uctmc.checker import _evaluate, _plain

    m = uctmc.load_model(uctmc.example_model_path("buffer"))
    buffers = [build_full(m, u) for u in uctmc.sample_valuations(m, 3, seed=6).valuations]
    chains = buffers[:2] + [_two_class_chain()] + buffers[2:]
    measures = MeasureSet((InstantReward("tok", "buffered", 25.0),
                           InstantReward("delivered", "delivered", 25.0),
                           InstantReward("late", "buffered", 40.0),
                           TimeBoundedReach("busy", "both_busy", 30.0)))
    assert all(_plain(c, a) for c in chains for a in (None, c.label_mask("both_busy")))
    eps = 1e-6
    with caplog.at_level("DEBUG", logger="uctmc.checker"):
        full = _evaluate(chains, measures, eps)[0]
    cuts = [int(x) for x in re.findall(r"plain series pass to t=\S+: 4 blocks, \d+ of \d+ "
                                       r"steps, (\d+) blocks cut", caplog.text)]
    assert cuts == [3, 3]
    # approximate mode drops nothing on plain chains: the same bits, gap 0
    approx, gaps = _evaluate(chains, measures, eps, 1e-2)
    assert np.array_equal(approx, full) and not gaps.any()
    backwards = _evaluate(chains[::-1], measures, eps)[0][::-1]
    for i, c in enumerate(chains):
        alone = _evaluate([c], measures, eps)[0][0]
        assert np.array_equal(alone, full[i]) and np.array_equal(backwards[i], full[i]), i
        for pos, meas in enumerate(measures):
            one = _evaluate([c], MeasureSet((meas,)), eps)[0][0]
            assert np.array_equal(one, full[i, [pos]]), (i, meas.id)
        mask = c.label_mask("both_busy")
        expected = [float(transient_oracle(c, 25.0) @ c.reward_vector("buffered")),
                    float(transient_oracle(c, 25.0) @ c.reward_vector("delivered")),
                    float(transient_oracle(c, 40.0) @ c.reward_vector("buffered")),
                    reach_oracle(c, mask, 30.0)]
        assert np.all(np.abs(full[i] - expected) <= eps), i
    # the reward group keeps two vectors and two times per step
    floats = [4 * checker._series_steps(c, 40.0) for c in chains]
    monkeypatch.setattr(checker, "DEFAULT_STATE_CAP", floats[0] + floats[1] + floats[2])
    batches = list(checker._batches(chains, measures))
    assert [len(b) for b in batches] == [3, 1]
    split = np.concatenate([_evaluate(b, measures, eps)[0] for b in batches])
    assert np.array_equal(split, full)


def test_plain_steps_bracket_the_later_terms():
    # on the kernel's own rounded P: min(P^k v) never falls and max(P^k v)
    # never rises, within the stated slack per step; and for j > K, x_j . v
    # lies within span(u_K) of x_K . v = start . u_K, within the slack of
    # the j + 2K steps that the argument reads
    from uctmc.checker import _Blocks, _iterates

    rng = np.random.default_rng(31)
    cases = 0
    for _ in range(40):
        c = random_ctmc(rng, max_states=25)
        absorbing = c.label_mask("goal") if rng.random() < 0.5 else None
        blocks = _Blocks.uniformized([c], [absorbing])
        v = rng.uniform(0.0, 3.0, (1, c.num_states, 1))
        steps = 300
        ups = [u[0, :, 0].copy() for u in _iterates(blocks.p, v, 0, steps, [1] * steps)]
        xs = [x[0].copy() for x in _iterates(blocks.pt, c.initial[None], 0, steps, [1] * steps)]
        r = int(np.diff(blocks.p[0]).max(initial=0))
        step_slack = (2 * r + 8) * 2.0**-53 * np.abs(v).max() + 1e-280
        for k in range(1, steps):
            assert ups[k].min() >= ups[k - 1].min() - step_slack, k
            assert ups[k].max() <= ups[k - 1].max() + step_slack, k
        for cut in (0, 3, 20, 100):
            span = ups[cut].max() - ups[cut].min()
            at_cut = c.initial @ ups[cut]
            for j in range(cut + 1, steps):
                slack = (j + 2 * cut) * step_slack
                assert abs(xs[j] @ v[0, :, 0] - at_cut) <= span + slack, (cut, j)
            cases += span < 1e-3
    assert cases > 20  # most cuts are where the span has nearly closed


def test_poisson_terms_match_loop_reference():
    from uctmc.checker import _poisson_span, _poisson_windows

    lam_ts = np.concatenate([np.geomspace(0.3, 6e4, 208),
                             [1e-9, 0.999, 1.0, 2.0, 510.0, 49999.99, 5e4, 50000.5]])
    for lam_t in lam_ts:
        (k_lo,), _, weights = _poisson_windows([float(lam_t)])
        ref_lo, ref = poisson_terms_loop(float(lam_t))
        assert k_lo == ref_lo, lam_t
        assert np.array_equal(weights, ref), lam_t
        # the kept-series bound of a batch covers the window
        assert k_lo + weights.size <= int(lam_t) + _poisson_span(lam_t) + 1, lam_t
    assert _poisson_windows([0.0])[2].tolist() == [1.0]
    # every window of one vectorized call, zero rates and a (2, n) shape
    # included, is the same bits
    grid = np.concatenate([lam_ts, [0.0, 7.5]])[::-1].reshape(2, -1)
    k_lo, offsets, weights = _poisson_windows(grid)
    assert k_lo.shape == grid.shape
    for i, lam_t in enumerate(grid.ravel()):
        ref_lo, ref = poisson_terms_loop(float(lam_t)) if lam_t > 0 else (0, np.array([1.0]))
        assert k_lo.ravel()[i] == ref_lo, lam_t
        assert np.array_equal(weights[offsets[i]:offsets[i + 1]], ref), lam_t


def test_uniformized_matches_sparse_reference(sir20, mean_valuation):
    # one batch of chains of different sizes, with self-loops, absorbing sets
    # and a chain without rate: each block's P^T is within a few ulps of the
    # sparse expression (compared dense, as a diagonal entry may round to 0
    # on one side only), blocks come in descending Lambda order and padding
    # rows are empty
    from uctmc.checker import _Blocks

    full = build_full(sir20, mean_valuation)
    buffer = uctmc.load_model(uctmc.example_model_path("buffer"))
    u = uctmc.Valuation.from_floats([35.0, 30.0, 30.0, 0.05, 10.0, 10.0])
    partial = _sink_chain(buffer, u, 60)
    assert (partial.indices == partial.num_states - 1).any()  # the sink is reachable
    still = ConcreteCtmc.from_dense(np.zeros((3, 3)), [1.0, 0.0, 0.0])
    chains = [full, full, partial, partial, still]
    absorbing = [None, full.label_mask("extinct"), None, partial.label_mask("both_busy"), None]
    # self-loops, and rows long enough for the summation order to matter
    rng = np.random.default_rng(8)
    for _ in range(12):
        c = random_ctmc(rng, max_states=30)
        rates = c.rates.toarray()
        np.fill_diagonal(rates, rng.uniform(0.0, 2.0, len(rates)))
        looped = ConcreteCtmc.from_dense(rates, c.initial, labels=c.labels)
        chains += [looped, looped]
        absorbing += [None, looped.label_mask("goal")]
    blocks = _Blocks.uniformized(chains, absorbing)
    size = blocks.size
    pt = sparse.csr_matrix(blocks.pt[::-1], shape=(len(chains) * size,) * 2)
    assert size == full.num_states
    assert np.all(np.diff(blocks.lam) <= 0.0)
    counts = np.diff(pt.indptr)
    for pos, b in enumerate(blocks.order):
        ref, ref_lam = uniformized_sparse(chains[b], absorbing[b])
        n, lam = chains[b].num_states, blocks.lam[pos]
        rows = slice(pos * size, pos * size + n)
        assert not counts[pos * size + n:(pos + 1) * size].any(), b
        entries = pt[rows]
        assert np.all(entries.indices // size == pos), b
        if ref is None:
            assert lam == 0.0 and entries.nnz == 0, b
            continue
        assert abs(lam - ref_lam) <= 1e-14 * ref_lam, b
        ours = entries[:, pos * size:pos * size + n].toarray()
        assert np.abs(ours - ref.toarray()).max() <= 2e-15, b


def test_birth_chain_entries_keep_their_bits():
    # the birth kernel steps with up = r_k * (1 / Lambda) and stay = 1 - up,
    # level-major: the entries of (I + Q / Lambda)^T.  Without zeroing, its
    # Poisson-weighted iterates are the bits of scipy's CSR mat-vec of that
    # P^T, flushed every 64 steps: the weights of adaptive passes, and so
    # the SIR outputs, rest on these bits
    from uctmc.checker import _FLUSH_BELOW, _FLUSH_EVERY, _Births, _poisson_windows
    from scipy import sparse

    rng = np.random.default_rng(4)
    levels = np.array([12, 7, 9, 4])
    rates = rng.uniform(0.01, 300.0, (4, 12))
    rates[np.arange(12) >= levels[:, None] - 1] = 0.0
    rates[2, :3] = 0.0  # zeroed lowest levels
    rates[3] = 0.0  # no rate: the chain keeps its mass
    lam = rates.max(axis=1)
    births = _Births(rates, lam, np.zeros(4), np.zeros(4))
    assert births.up.shape == (12, 4) and births.up.flags.c_contiguous
    for b in range(4):
        inv = 1 / lam[b] if lam[b] > 0.0 else 0.0
        assert np.array_equal(births.up[:, b], rates[b] * inv), b
        assert np.array_equal(births.stay[:, b], 1.0 - rates[b] * inv), b
    start = rng.uniform(0.0, 1.0, (12, 4))
    start[np.arange(12)[:, None] >= levels - 1] = 0.0
    start[:3, 2] = 0.0
    lam_ts = np.array([[150.0, 40.0, 90.0, 0.0]])
    pi = births.transient(start.copy(), lam_ts)[0]
    for b in range(4):
        pt = sparse.csr_matrix(np.diag(births.stay[:, b]) + np.diag(births.up[:-1, b], -1))
        (k_lo,), _, weights = _poisson_windows(lam_ts[:, b])
        assert lam_ts[0, b] == 0.0 or k_lo + weights.size > 2 * _FLUSH_EVERY
        v, expected = start[:, b].copy(), np.zeros(12)
        for k in range(k_lo + weights.size):
            if k:
                v = pt @ v
                if not k % _FLUSH_EVERY:
                    v[v < _FLUSH_BELOW] = 0.0
            if k >= k_lo:
                expected += weights[k - k_lo] * v
        assert np.array_equal(pi[:, b], expected), b


def _birth_matrix_weights(rates, cut, t):
    """Dense-expm reference of one block's birth weights: levels 0 .. cut at
    their rates, then an absorbing level."""
    generator = np.zeros((cut + 2, cut + 2))
    live = np.arange(cut + 1)
    generator[live, live] = -rates[:cut + 1]
    generator[live, live + 1] = rates[:cut + 1]
    return expm(generator * t)[0]


@pytest.mark.parametrize("eps", [1e-3, 1e-6, 1e-12])
def test_banded_birth_weights_of_a_fast_and_a_slow_block(eps, caplog):
    # a fast block runs through 100 levels at rate 300, then waits at 0.5; a
    # slow one climbs at rates from 6 down to 3: the union band spans both,
    # each block's own band is narrow.  Each block's weights are within its share of dense
    # expm, only lower, and the same bits alone as in the batch
    from uctmc.checker import _LEVEL_SHARE, _birth_rows, _birth_weights, _segments

    rates = np.zeros((2, 140))
    rates[0, :100], rates[0, 100:] = 300.0, 0.5
    rates[1] = np.linspace(6.0, 3.0, 140)
    cuts, t = np.array([139, 129]), 10.0
    share = eps * _LEVEL_SHARE * np.ones(2)
    assert _segments(_birth_rows(rates, cuts), t).tolist() == [2, 0]
    with caplog.at_level("DEBUG", logger="uctmc.checker"):
        weights = _birth_weights(rates, cuts, t, share)
    logged = re.search(r"mean band (\S+) of (\d+) levels, largest zeroed mass (\S+) \((\S+) "
                       r"by the band advance\)", caplog.text)
    assert float(logged[1]) < int(logged[2]) / 2
    assert 0.0 < float(logged[4]) <= float(logged[3]) <= share[0] * 1.001  # logged to 3 digits
    for b, cut in enumerate(cuts):
        exact = _birth_matrix_weights(rates[b], cut, t)
        ours = weights[b, :cut + 2]
        assert not weights[b, cut + 2:].any()
        # zeroing only lowers weights; the L1 loss is the zeroed mass, within
        # the share, plus the rounding of some 1,000 steps (which is all of
        # it at the smallest epsilon)
        assert np.all(ours <= exact + 1e-15), b
        assert np.abs(ours - exact).sum() <= share[b] + 1e-13, b
        alone = _birth_weights(rates[b:b + 1, :cut + 1], cuts[b:b + 1], t, share[b:b + 1])
        assert np.array_equal(alone[0], ours), b


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


def test_interval_reach_initial_target_mass_matches_oracle():
    # mass that starts in the target is a visit at time 0: it counts for a
    # window from 0 and is dropped for a window that starts later
    c = ConcreteCtmc.from_dense(
        [[0.0, 1.0], [0.0, 0.0]], [0.3, 0.7], labels={"goal": [False, True]})
    mask = c.label_mask("goal")
    for t_lo, t_hi, exact in ((0.0, 0.5, 0.7 + 0.3 * (1 - math.exp(-0.5))),
                              (0.2, 0.5, 0.3 * (math.exp(-0.2) - math.exp(-0.5)))):
        ours = interval_reach(c, "goal", t_lo, t_hi, epsilon=1e-8)
        assert ours == pytest.approx(interval_reach_oracle(c, mask, t_lo, t_hi), abs=1e-8)
        assert ours == pytest.approx(exact, abs=1e-8)
    assert interval_reach(c, "goal", 0.0, 0.5) == pytest.approx(0.818, abs=1e-3)


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
    # table fills in another order), in a slice, or in the full list; in
    # approx mode, bound_measures on the valuation alone gives them too
    valuations = uctmc.sample_valuations(sir20, 5, seed=11).valuations
    for mode in ("exact", "approx"):
        full = solve_measure_set(sir20, valuations, sir_measures, mode=mode)
        sliced = dict(zip(range(1, 4), solve_measure_set(sir20, valuations[1:4],
                                                         sir_measures, mode=mode)))
        fresh = uctmc.load_model(uctmc.example_model_path("sir20"))
        for i in reversed(range(len(valuations))):
            alone = solve_measure_set(fresh, [valuations[i]], sir_measures, mode=mode)[0]
            others = [alone] + ([sliced[i]] if i in sliced else [])
            if mode == "approx":
                others.append(bound_measures(fresh, valuations[i], sir_measures, index=i))
                assert others[-1].valuation_index == i
            for other in others:
                if mode == "exact":
                    assert np.array_equal(other.values, full[i].values)
                    continue
                assert np.array_equal(other.lower, full[i].lower)
                assert np.array_equal(other.upper, full[i].upper)
                assert (other.delta, other.gap_met) == (full[i].delta, full[i].gap_met)


def _mixed_measures(target="extinct", reward="infected", scale=1.0):
    return MeasureSet((
        TimeBoundedReach("reach_a", target, 40.0 * scale),
        TimeBoundedReach("reach_b", target, 150.0 * scale),
        IntervalReach("window_a", target, 60.0 * scale, 90.0 * scale),
        IntervalReach("window_b", target, 60.0 * scale, 200.0 * scale),
        IntervalReach("from_zero", target, 0.0, 70.0 * scale),
        InstantReward(f"{reward}_a", reward, 25.0 * scale),
        InstantReward(f"{reward}_b", reward, 120.0 * scale),
    ))


def test_measure_layout_invariance(sir20, mean_valuation):
    # measures sharing a pass (reach and windows from 0 on one target, the
    # windows from 60 on it, rewards at two times) give each measure the same
    # value and gap bits alone, in the full set and in the reversed set, on an
    # adaptive chain (sir20) and a plain one (buffer)
    from uctmc.checker import _evaluate

    buffer = uctmc.load_model(uctmc.example_model_path("buffer"))
    u = uctmc.Valuation.from_floats(BUFFER_VALUATION)
    cases = [(build_full(sir20, mean_valuation), _mixed_measures()),
             (build_full(buffer, u), _mixed_measures("both_busy", "buffered", 0.01))]
    gaps = []
    for chain, measures in cases:
        full = _evaluate([chain], measures, 1e-6)
        backwards = _evaluate([chain], MeasureSet(measures.measures[::-1]), 1e-6)
        for pos, meas in enumerate(measures):
            alone = _evaluate([chain], MeasureSet((meas,)), 1e-6)
            for side in (0, 1):
                assert np.array_equal(alone[side][0], full[side][0, [pos]]), meas.id
                assert np.array_equal(backwards[side][0, [-1 - pos]],
                                      full[side][0, [pos]]), meas.id
        gaps.append(full[1][0])
    # the adaptive passes drop mass, the plain ones none
    assert np.all(gaps[0] > 0.0) and np.all(gaps[1] == 0.0)


def test_kernel_rule_sends_buffer_and_tandem_plain_and_sir_adaptive(sir20, sir140, tandem):
    # every pass of every valuation: the target passes and the reward pass
    from uctmc.checker import _groups, _plain

    buffer = uctmc.load_model(uctmc.example_model_path("buffer"))
    for m, measure_file, n, plain in ((buffer, "buffer_measures", 10, True),
                                      (tandem, "tandem_measures", 10, True),
                                      (sir20, "sir_horizons", 10, False),
                                      (sir140, "sir_horizons", 1, False)):
        measures = uctmc.io.read_measures(uctmc.example_model_path(measure_file))
        targets = {target for target, _ in _groups(measures)}
        for u in uctmc.sample_valuations(m, n, seed=1).valuations:
            c = build_full(m, u)
            for target in targets:
                absorbing = None if target is None else c.label_mask(target)
                assert _plain(c, absorbing) == plain, (measure_file, target)


def _rule_model():
    """z climbs from 0 to 10 at rate a and falls at rate b z^2.  Where a is far
    above b z^2 the exit rates barely change, and every pass goes plain; where
    b z^2 is far above a they grow with z, and every pass goes adaptive."""
    return uctmc.parse_model({
        "parameters": [
            {"name": "a", "distribution": {"type": "uniform", "low": 0.5, "high": 50.0}},
            {"name": "b", "distribution": {"type": "uniform", "low": 0.001, "high": 1.0}}],
        "variables": [{"name": "z", "init": 0, "min": 0, "max": 10}],
        "commands": [{"guard": "z < 10", "rate": "a", "updates": {"z": "z+1"}},
                     {"guard": "z > 0", "rate": "b*z*z", "updates": {"z": "z-1"}}],
        "labels": {"top": "z=10", "low": "z<=1"},
        "rewards": {"level": {"states": "z"}}})


RULE_VALUATIONS = [(1.0, 1.0), (40.0, 0.01), (2.0, 0.5), (10.0, 0.1), (1.5, 0.8),
                   (30.0, 0.02)]
RULE_MEASURES = MeasureSet((
    TimeBoundedReach("top", "top", 2.0),
    IntervalReach("top_window", "top", 1.0, 3.0),
    IntervalReach("low_window", "low", 0.5, 4.0),
    InstantReward("level", "level", 0.5),
    InstantReward("level_late", "level", 2.0),
))


def test_mixed_kernel_batch_layout_invariance():
    # one batch whose valuations fall on both sides of the kernel rule and
    # whose gaps close after different numbers of approximate rounds: each
    # valuation's values, bounds, final budget and gap_met are the same bits
    # alone, in reversed order, in a slice and in the full batch, and its
    # values are within epsilon of dense expm
    from uctmc.checker import _plain

    m = _rule_model()
    valuations = [uctmc.Valuation.from_floats(v) for v in RULE_VALUATIONS]
    chains = [build_full(m, u) for u in valuations]
    for target in ("top", "low", None):
        kinds = [_plain(c, None if target is None else c.label_mask(target)) for c in chains]
        assert kinds == [False, True, False, True, False, True], target
    eps = 1e-6
    for mode in ("exact", "approx"):
        full = solve_measure_set(m, valuations, RULE_MEASURES, mode=mode, epsilon=eps)
        if mode == "approx":
            # the adaptive valuations whose values are tiny rerun with smaller
            # drop budgets, the others stop after one pass
            assert len({s.delta for s in full}) > 1
        backwards = solve_measure_set(m, valuations[::-1], RULE_MEASURES, mode=mode,
                                      epsilon=eps)[::-1]
        sliced = dict(zip(range(1, 4), solve_measure_set(m, valuations[1:4], RULE_MEASURES,
                                                         mode=mode, epsilon=eps)))
        for i, u in enumerate(valuations):
            alone = solve_measure_set(m, [u], RULE_MEASURES, mode=mode, epsilon=eps)[0]
            for other in [alone, backwards[i]] + ([sliced[i]] if i in sliced else []):
                if mode == "exact":
                    assert np.array_equal(other.values, full[i].values), i
                    continue
                assert np.array_equal(other.lower, full[i].lower), i
                assert np.array_equal(other.upper, full[i].upper), i
                assert (other.delta, other.gap_met) == (full[i].delta, full[i].gap_met)
            if mode == "exact":
                expected = _oracle_values(chains[i], RULE_MEASURES)
                assert np.all(np.abs(full[i].values - expected) <= eps), i


def test_batched_check_layout_invariance(sir20):
    # one batch mixes reach, interval and reward measures over valuations
    # whose uniformization rates all differ, so blocks leave the stepped
    # prefix at different steps; each valuation's values are the same bits
    # alone, in reversed order, in a slice and in the full batch
    from uctmc.checker import _Blocks

    measures = _mixed_measures()
    valuations = uctmc.sample_valuations(sir20, 7, seed=3).valuations
    lams = [_Blocks.uniformized([build_full(sir20, u)], [None]).lam[0] for u in valuations]
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


def test_debug_log_counts_kernels_and_reports_drop_budget(caplog):
    # one line per batch with its plain and adaptive blocks (three absorbing
    # sets: two targets and the rewards), one line per approximate round
    m = _rule_model()
    valuations = [uctmc.Valuation.from_floats(v) for v in RULE_VALUATIONS]
    with caplog.at_level("DEBUG", logger="uctmc.checker"):
        solve_measure_set(m, valuations, RULE_MEASURES, mode="approx")
    assert "batch of 6 chains: 9 plain and 9 adaptive blocks over 3 absorbing sets" in caplog.text
    first = re.search(r"approximate round 1 \(drop budget 1.25e-07\): 6 open valuations, "
                      r"largest relative gap (\S+)", caplog.text)
    assert first and float(first[1]) > 1e-2
    assert re.search(r"approximate round 2 \(drop budget 1.25e-08\): 1 open valuations",
                     caplog.text)


# ---------------------------------------------------------------------------
# Interval solutions from the dropped mass (approximate mode)
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


def test_approx_lower_is_exact_mode_value(sir20):
    # with delta at or above epsilon / 8 (the default 1e-2, or 1) the drop
    # budget is exact mode's, so lower is exact mode's value bit for bit; the
    # plain buffer chains drop nothing and the sir20 gaps are met in one pass
    from uctmc.checker import _DROP_SHARE

    buffer = uctmc.load_model(uctmc.example_model_path("buffer"))
    for m, measure_file, zero_gap in ((sir20, "sir_horizons", False),
                                      (buffer, "buffer_measures", True)):
        measures = uctmc.io.read_measures(uctmc.example_model_path(measure_file))
        valuations = uctmc.sample_valuations(m, 4, seed=7).valuations
        exact = solve_measure_set(m, valuations, measures)
        for eps in (1e-6, 1e-3):
            for delta in (1e-2, 1.0):
                bounds = solve_measure_set(m, valuations, measures, mode="approx",
                                           epsilon=eps, delta=delta)
                if eps == 1e-6:
                    for a, b in zip(exact, bounds):
                        assert np.array_equal(a.values, b.lower)
                for b in bounds:
                    assert b.gap_met and b.delta == eps * _DROP_SHARE
                    assert np.all(b.upper >= b.lower)
                    assert np.all(b.upper == b.lower) == zero_gap


BUFFER_VALUATION = [35.0, 30.0, 30.0, 0.05, 10.0, 10.0]


def _buffer_bound_measures():
    return MeasureSet((
        TimeBoundedReach("reach1", "both_busy", 0.3),
        TimeBoundedReach("reach2", "both_busy", 1.5),
        IntervalReach("window", "both_busy", 0.5, 2.0),
        InstantReward("tokens", "buffered", 2.0),
        # a second reward time shares the reward pass; a window from 0 shares
        # the reach measures' pass
        InstantReward("tokens_early", "buffered", 0.7),
        IntervalReach("from_zero", "both_busy", 0.0, 1.0),
    ))


@pytest.mark.parametrize("eps", [1e-3, 1e-6, 1e-12])
def test_approx_bounds_match_dense_oracle(eps, sir20, mean_valuation):
    # lower <= dense expm <= upper, within epsilon, for every measure kind on
    # a plain chain (buffer) and two adaptive ones (sir20, a draining death
    # chain), at exact mode's budget and at budgets that bind; the losses
    # other than dropped mass stay far inside epsilon, so upper misses the
    # oracle by less than epsilon * 2^-13 and the rounding
    from uctmc.checker import _evaluate, _plain

    buffer = uctmc.load_model(uctmc.example_model_path("buffer"))
    cases = [(build_full(buffer, uctmc.Valuation.from_floats(BUFFER_VALUATION)),
              _buffer_bound_measures()),
             (build_full(sir20, mean_valuation), _mixed_measures()),
             (_with_level(draining_death_chain()), _death_measures())]
    assert [_plain(c, None) for c, _ in cases] == [True, False, False]
    for c, measures in cases:
        expected = _oracle_values(c, measures)
        for delta in (math.inf, eps * 1e-3, 0.0):
            (lower,), (gap,) = _evaluate([c], measures, eps, delta)
            upper = lower + gap
            assert np.all(lower - eps <= expected), (eps, delta, lower - expected)
            assert np.all(expected <= upper + eps * 2.0**-13 + 1e-13), (eps, delta,
                                                                        upper - expected)
            assert np.all(gap >= 0.0) and (delta > 0.0 or np.all(gap == 0.0))


def test_gap_counts_the_mass_dropped_up_to_the_chains_own_cut(sir20):
    # the slower chain's passes end first but keep stepping, and dropping,
    # while the other's go on; its gaps count only what it dropped up to its
    # own last cut, so they are the same bits alone and in either order
    from uctmc.checker import _evaluate

    chains = [build_full(sir20, uctmc.Valuation.from_floats(u))
              for u in ((0.01, 0.02), (0.05, 0.04))]
    measures = _mixed_measures()
    together = _evaluate(chains, measures, 1e-6)
    backwards = _evaluate(chains[::-1], measures, 1e-6)
    for b, c in enumerate(chains):
        alone = _evaluate([c], measures, 1e-6)
        for side in (0, 1):
            assert np.array_equal(alone[side][0], together[side][b]), (b, side)
            assert np.array_equal(alone[side][0], backwards[side][1 - b]), (b, side)
    assert np.all(together[1] > 0.0)


def test_padded_blocks_match_dense_oracle():
    # chains of different sizes share one padded batch, on both kernels; each
    # chain's values and gaps are within epsilon of the dense oracle and the
    # same bits as in a batch of one
    from uctmc.checker import _evaluate, _plain

    chains = [_with_level(c) for c in (draining_death_chain(top=12, rate=1.0, slow=1.0),
                                       fast_then_slow_chain(),
                                       draining_death_chain(top=30, rate=1.0, slow=1.0),
                                       fast_then_slow_chain(top=20))]
    sizes = [c.num_states for c in chains]
    assert len(set(sizes)) == len(sizes) and max(sizes) != sizes[-1]
    assert [_plain(c, c.label_mask("extinct")) for c in chains] == [True, False, True, False]
    measures, eps = _death_measures(), 1e-8
    values, gaps = _evaluate(chains, measures, eps)
    for b, c in enumerate(chains):
        expected = _oracle_values(c, measures)
        assert np.all(values[b] - eps <= expected), b
        assert np.all(expected <= values[b] + gaps[b] + eps), b
        alone = _evaluate([c], measures, eps)
        assert np.array_equal(alone[0][0], values[b]), b
        assert np.array_equal(alone[1][0], gaps[b]), b


def test_reward_scale_is_the_largest_reachable_value():
    # z + 3 over the box z in [-3, 10] reaches 13, but the guard z < 3 keeps
    # every reachable z below 4: the full chain's reward scale s is 6, and
    # the bounds sandwich the dense oracle
    from uctmc.checker import _reward_scale

    m = uctmc.parse_model({
        "parameters": [{"name": "k", "distribution": {"type": "uniform",
                                                       "low": 1.0, "high": 2.0}}],
        "variables": [{"name": "z", "init": 0, "min": -3, "max": 10}],
        "commands": [{"guard": "z < 3", "rate": "k", "updates": {"z": "z+1"}},
                     {"guard": "z > -3", "rate": "k", "updates": {"z": "z-1"}}],
        "labels": {"top": "z=3"},
        "rewards": {"shifted": {"states": "z+3"}}})
    u = uctmc.Valuation.from_floats([1.5])
    full = build_full(m, u)
    assert _reward_scale(full) == 6.0
    eps = 1e-8
    measures = MeasureSet((InstantReward("r1", "shifted", 1.0),
                           InstantReward("r4", "shifted", 4.0)))
    iv = bound_measures(m, u, measures, epsilon=eps)
    exact = [transient_oracle(full, t) @ full.reward_vector("shifted") for t in (1.0, 4.0)]
    assert np.all(iv.lower - eps <= exact) and np.all(exact <= iv.upper + eps)


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


def test_batches_bound_kept_series(monkeypatch):
    # a batch splits once its kept series would pass the cap, and the split
    # changes no bits
    from uctmc import checker

    m = uctmc.load_model(uctmc.example_model_path("buffer"))
    measures = uctmc.io.read_measures(uctmc.example_model_path("buffer_measures"))
    valuations = uctmc.sample_valuations(m, 6, seed=3).valuations
    chains = [build_full(m, u) for u in valuations]
    whole = solve_measure_set(m, valuations, measures, mode="approx")
    assert len(list(checker._batches(chains, measures))) == 1
    # room for the states of every chain, but for the series of about half;
    # each pass counts as adaptive: one vector and the birth weights of one
    # time
    floats = [2 * checker._series_steps(c, 25.0) for c in chains]
    cap = sum(floats) // 2
    monkeypatch.setattr(checker, "DEFAULT_STATE_CAP", cap)
    assert len(chains) * max(c.num_states for c in chains) <= cap
    batches = list(checker._batches(chains, measures))
    assert len(batches) > 1
    assert [c for b in batches for c in b] == chains
    pos = 0
    for batch in batches:
        kept = sum(floats[pos:pos + len(batch)])
        pos += len(batch)
        assert kept <= cap
        assert pos == len(chains) or kept + floats[pos] > cap
    split = solve_measure_set(m, valuations, measures, mode="approx")
    for a, b in zip(split, whole):
        assert np.array_equal(a.lower, b.lower) and np.array_equal(a.upper, b.upper)
        assert (a.delta, a.gap_met) == (b.delta, b.gap_met)


@pytest.mark.parametrize("model, measure_file, delta", [
    ("sir20", "sir_horizons", None),
    ("buffer", "buffer_measures", 1e-2),
])
def test_series_steps_cover_the_poisson_window(model, measure_file, delta):
    # the kept-series bound of a batch reaches the right end of the Poisson
    # window at the chain's uniformization rate and the largest measure time;
    # a case with a delta checks a chain with a sink (a BFS prefix of states)
    from uctmc.checker import _Blocks, _poisson_windows, _series_steps

    m = uctmc.load_model(uctmc.example_model_path(model))
    measures = uctmc.io.read_measures(uctmc.example_model_path(measure_file))
    u = uctmc.sample_valuations(m, 1, seed=1).valuations[0]
    chain = uctmc.build_full(m, u) if delta is None else _sink_chain(m, u, 30)
    horizon = max(x.t_hi if isinstance(x, IntervalReach) else x.time for x in measures)
    lam = _Blocks.uniformized([chain], [None]).lam[0]
    (k_lo,), _, weights = _poisson_windows([lam * horizon])
    assert _series_steps(chain, horizon) >= k_lo + weights.size


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
    nan, inf = math.nan, math.inf
    for horizon in (-1.0, nan, inf, -inf):
        with pytest.raises(CheckerError, match="measure m:"):
            TimeBoundedReach("m", "goal", horizon)
    for t_lo, t_hi in ((2.0, 1.0), (nan, 1.0), (0.0, nan), (0.0, inf), (inf, inf)):
        with pytest.raises(CheckerError, match="measure m:"):
            IntervalReach("m", "goal", t_lo, t_hi)
    for time in (-0.5, nan, inf, -inf):
        with pytest.raises(CheckerError, match="measure m:"):
            InstantReward("m", "r", time)
    for t in (-1.0, nan, inf):
        with pytest.raises(CheckerError, match="t must be finite"):
            transient_distribution(two_state(), t)
