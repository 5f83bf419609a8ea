import json
import math

import numpy as np
import pytest

import uctmc
from uctmc import (
    GraphPreservationError,
    ModelError,
    Valuation,
    build_full,
    build_partial,
    check_graph_preserving,
    graph_preservation_violation,
    parse_model,
)
from uctmc import expr as ex
from oracles import chain_reference


def _mini_model(**overrides):
    doc = {
        "name": "mini",
        "parameters": [
            {"name": "k", "distribution": {"type": "uniform", "low": 1.0, "high": 2.0}},
        ],
        "variables": [{"name": "x", "init": 0, "min": 0, "max": 3}],
        "commands": [
            {"guard": "x<3", "rate": "k", "updates": {"x": "x+1"}},
        ],
        "labels": {"top": "x=3"},
        "rewards": {"level": {"states": "x"}},
    }
    doc.update(overrides)
    return doc


def test_parse_sir_model(sir20):
    assert len(sir20.parameters) == 2
    assert sir20.parameter_names == ("ki", "kr")
    assert sir20.variable_names == ("S", "I", "R")
    assert len(sir20.commands) == 3


def test_parse_rejects_undeclared_identifier():
    doc = _mini_model(commands=[{"guard": "x<3", "rate": "kx", "updates": {"x": "x+1"}}])
    with pytest.raises(ModelError, match="undeclared identifier"):
        parse_model(doc)


def test_parse_rejects_duplicate_names():
    doc = _mini_model()
    doc["variables"].append({"name": "k", "init": 0, "min": 0, "max": 1})
    with pytest.raises(ModelError, match="duplicate"):
        parse_model(doc)


def test_parse_rejects_non_integer_bounds():
    doc = _mini_model(variables=[{"name": "x", "init": 0, "min": 0, "max": 2.5}])
    with pytest.raises(ModelError, match="integer"):
        parse_model(json.dumps(doc))


def test_parse_rejects_parameter_in_guard():
    doc = _mini_model(commands=[{"guard": "k<3", "rate": "k", "updates": {}}])
    with pytest.raises(ModelError, match="undeclared identifier"):
        parse_model(doc)


def test_empty_commands_single_absorbing_state():
    doc = _mini_model(commands=[])
    m = parse_model(doc)
    c = build_full(m, Valuation.from_floats([1.5]))
    assert c.num_states == 1
    assert c.num_transitions == 0
    assert c.exit_rates[0] == 0.0


def test_init_distribution_support():
    doc = _mini_model()
    doc["init_distribution"] = [
        {"state": {"x": 0}, "prob": 0.25},
        {"state": {"x": 2}, "prob": 0.75},
    ]
    m = parse_model(json.dumps(doc))
    c = build_full(m, Valuation.from_floats([1.5]))
    assert c.initial[0] == 0.25
    idx2 = c.states.index((2,))
    assert c.initial[idx2] == 0.75


def test_init_distribution_must_sum_to_one():
    doc = _mini_model()
    doc["init_distribution"] = [{"state": {"x": 0}, "prob": 0.5}]
    with pytest.raises(ModelError, match="sum"):
        parse_model(json.dumps(doc))


def test_graph_preservation_examples(sir20):
    assert check_graph_preserving(sir20, Valuation.from_floats([0.05, 0.04]))
    assert not check_graph_preserving(sir20, Valuation.from_floats([0.05, -0.01]))
    # a zero rate where the symbolic rate is nonzero also violates preservation
    assert not check_graph_preserving(sir20, Valuation.from_floats([0.05, 0.0]))
    reason = graph_preservation_violation(sir20, Valuation.from_floats([0.05, 0.0]))
    assert "kr" in reason


def test_build_full_sir2_topology(sir2, mean_valuation):
    c = build_full(sir2, mean_valuation)
    assert c.num_states == 5
    assert c.num_transitions == 4
    by_state = {s: i for i, s in enumerate(c.states)}
    si, sr = by_state[(1, 1, 0)], by_state[(1, 0, 1)]
    ii, ri, rr = by_state[(0, 2, 0)], by_state[(0, 1, 1)], by_state[(0, 0, 2)]
    edges = {(a, b): r for a, b, r in c.edges()}
    assert set(edges) == {(si, sr), (si, ii), (ii, ri), (ri, rr)}
    assert edges[(si, ii)] == pytest.approx(0.05)   # infection at S=I=1
    assert edges[(ii, ri)] == pytest.approx(0.08)   # recovery at I=2


def test_build_full_sir20_size(sir20, mean_valuation):
    c = build_full(sir20, mean_valuation)
    assert (c.num_states, c.num_transitions) == (216, 396)


def test_build_full_raises_on_violation(sir20):
    with pytest.raises(GraphPreservationError):
        build_full(sir20, Valuation.from_floats([0.05, 0.0]))


def test_build_is_instantiation_order_independent(sir20, mean_valuation):
    # same model object (cached structure) vs a freshly parsed model
    fresh = uctmc.load_model(uctmc.example_model_path("sir20"))
    a = build_full(sir20, mean_valuation)
    b = build_full(fresh, mean_valuation)
    assert a.states == b.states
    assert (a.rates != b.rates).nnz == 0
    assert np.array_equal(a.initial, b.initial)


def test_row_sums_equal_exit_rates(sir20, mean_valuation):
    c = build_full(sir20, mean_valuation)
    rows = np.asarray(c.rates.sum(axis=1)).ravel()
    assert np.max(np.abs(rows - c.exit_rates)) <= 1e-12


def test_update_out_of_bounds_is_an_error():
    doc = _mini_model(commands=[{"guard": "x<3", "rate": "k", "updates": {"x": "x+7"}}])
    m = parse_model(doc)
    with pytest.raises(ModelError, match="bounds"):
        build_full(m, Valuation.from_floats([1.5]))


def test_state_cap():
    doc = _mini_model()
    m = parse_model(doc)
    with pytest.raises(uctmc.StateCapExceeded):
        build_full(m, Valuation.from_floats([1.5]), state_cap=2)


# ---------------------------------------------------------------------------
# Compiled table
# ---------------------------------------------------------------------------

def _kernel_model():
    # (k-1)*x + 1 does not factor into a state part times a parameter part, so
    # its kernel differs per state: 1 at x=0, k at x=1 and 2k - 1 at x=2.  The
    # second command has the same update and rate (x+1) * k, so parallel edges
    # with different kernels merge at x=0 and x=2, and at x=1 two edges with
    # kernel k and coefficients 1 and 2 merge.
    return parse_model(_mini_model(commands=[
        {"guard": "x<3", "rate": "k*x - x + 1", "updates": {"x": "x+1"}},
        {"guard": "x<3", "rate": "x*k + k", "updates": {"x": "x+1"}},
    ]))


def test_compiled_graph_check_is_exact_on_kernels():
    m = _kernel_model()
    assert not check_graph_preserving(m, Valuation.from_floats([0.5]))
    assert check_graph_preserving(m, Valuation.from_floats([math.nextafter(0.5, 1.0)]))
    reason = graph_preservation_violation(m, Valuation.from_floats([0.5]))
    assert "(2,) -> (3,)" in reason
    assert "evaluates to 0 " in reason
    with pytest.raises(GraphPreservationError, match=r"\(2,\) -> \(3,\)"):
        build_full(m, Valuation.from_floats([0.5]))


@pytest.mark.parametrize("k", [math.nextafter(0.5, 1.0), 0.7, 1.3, 1.9])
def test_compiled_rates_match_per_edge_fractions(k):
    m = _kernel_model()
    u = Valuation.from_floats([k])
    c = build_full(m, u)
    assert c.states == [(0,), (1,), (2,), (3,)]
    assert c.num_transitions == 3
    rates = c.rates.toarray()
    for x in range(3):
        env = {"k": u.values[0], "x": x}
        exact = sum(ex.evaluate(command.rate, env) for command in m.commands)
        assert abs(rates[x, x + 1] - float(exact)) <= 4e-16 * float(exact)


def test_partial_validates_the_states_it_expands():
    m = _kernel_model()
    u = Valuation.from_floats([0.5])
    with pytest.raises(GraphPreservationError, match=r"\(2,\) -> \(3,\)"):
        build_partial(m, u, 1e-3)
    # at delta 1 only the initial state is expanded: state (2,) is not
    # retained, so its zero rate is never instantiated
    partial = build_partial(m, u, 1.0)
    assert partial.retained_states == ((0,),)
    assert partial.rates[0, partial.sink] == pytest.approx(1.5)


def test_compiled_chains_match_per_state_reference():
    kernel_model = _kernel_model()
    cases = [(kernel_model, [Valuation.from_floats([k])
                             for k in (math.nextafter(0.5, 1.0), 0.7, 1.3, 1.9)])]
    for name in ("sir20", "tandem", "buffer"):
        m = uctmc.load_model(uctmc.example_model_path(name))
        cases.append((m, uctmc.sample_valuations(m, 4, seed=7).valuations))
    for m, valuations in cases:
        for u in valuations:
            full = build_full(m, u)
            rates, initial, labels, rewards = chain_reference(m, u)
            for attr in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(full.rates, attr), getattr(rates, attr)), attr
            assert np.array_equal(full.initial, initial)
            assert full.labels.keys() == labels.keys()
            assert all(np.array_equal(full.labels[k], labels[k]) for k in labels)
            assert full.rewards.keys() == rewards.keys()
            assert all(np.array_equal(full.rewards[k], rewards[k]) for k in rewards)
            for delta in (1e-2, 1e-4):
                partial = build_partial(m, u, delta)
                rates, initial, labels, rewards = chain_reference(
                    m, u, partial.retained_states)
                got, want = partial.rates.toarray(), rates.toarray()
                assert np.array_equal(got != 0, want != 0)
                assert np.all(np.abs(got - want) <= 1e-14 * want)
                assert np.array_equal(partial.initial, initial)
                assert all(np.array_equal(partial.labels[k], labels[k]) for k in labels)
                assert all(np.array_equal(partial.rewards[k], rewards[k]) for k in rewards)
    # full chains share the model's arrays, so those are read-only
    with pytest.raises(ValueError):
        build_full(m, u).initial[0] = 1.0


# ---------------------------------------------------------------------------
# Partial models
# ---------------------------------------------------------------------------

def test_partial_tiny_delta_equals_full(sir20, mean_valuation):
    full = build_full(sir20, mean_valuation)
    partial = build_partial(sir20, mean_valuation, 1e-100)
    assert len(partial.retained_states) == full.num_states
    assert not partial.sink_reachable


def test_partial_delta_one_keeps_initial_support_only(sir20, mean_valuation):
    partial = build_partial(sir20, mean_valuation, 1.0)
    assert partial.retained_states == ((15, 5, 0),)
    # all outgoing mass is redirected, exit rate is preserved
    full = build_full(sir20, mean_valuation)
    assert partial.exit_rates[0] == pytest.approx(full.exit_rates[0])
    assert partial.rates[0, partial.sink] == pytest.approx(full.exit_rates[0])


def test_partial_sink_is_absorbing(sir20, mean_valuation):
    partial = build_partial(sir20, mean_valuation, 1e-3)
    assert partial.exit_rates[partial.sink] == 0.0
    assert partial.rates[partial.sink].nnz == 0


def test_partial_exit_rates_match_full(sir20, mean_valuation):
    full = build_full(sir20, mean_valuation)
    partial = build_partial(sir20, mean_valuation, 1e-3)
    full_index = {s: i for i, s in enumerate(full.states)}
    for i, state in enumerate(partial.retained_states):
        assert partial.exit_rates[i] == pytest.approx(full.exit_rates[full_index[state]])


def test_partial_retained_monotone_in_delta(sir20, mean_valuation):
    small = set(build_partial(sir20, mean_valuation, 1e-6).retained_states)
    large = set(build_partial(sir20, mean_valuation, 1e-2).retained_states)
    assert large <= small


def test_partial_sir140_truncates(sir140):
    u = Valuation.from_floats([0.05, 0.04])
    partial = build_partial(sir140, u, 1e-4)
    assert len(partial.retained_states) < 9996
    assert partial.sink_reachable


def test_reward_must_be_nonnegative():
    doc = _mini_model(rewards={"bad": {"states": "x-5"}})
    with pytest.raises(ModelError, match="negative"):
        parse_model(doc)
