import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest

import uctmc
from uctmc import (
    GraphPreservationError,
    ModelError,
    Valuation,
    build_full,
    check_graph_preserving,
    graph_preservation_violation,
    parse_model,
)
from uctmc import expr as ex
from uctmc import model as um
from uctmc.cli import main
from oracles import chain_reference, random_ctmc, table_reference


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
    # the message writes the file's decimal out exactly, not rounded to a float
    doc = json.dumps(_mini_model(variables=[{"name": "x", "init": 0, "min": 0, "max": 1}]))
    for text, shown in (("2.5", "2.5"), ("2.0", "2.0"), ("-0.125", "-0.125"),
                        ("2.00000000000000000001", "2.00000000000000000001"),
                        ("1e-400", "1E-400")):
        with pytest.raises(ModelError, match=f"max must be an integer, not {re.escape(shown)}$"):
            parse_model(doc.replace('"max": 1', f'"max": {text}'))


def test_parse_rejects_malformed_distribution(tmp_path, capsys):
    # a distribution is normal or uniform, and each of its two fields is a
    # finite JSON number: a bool or numeric text is not one, and a missing
    # field, NaN or a number past the largest float names the parameter;
    # the sample stage names the file, exits 1 and writes no samples
    for name, fields, message in (
            ("bool_mean", '"type": "normal", "mean": true, "std": 0.1',
             ": mean must be a finite number, not True"),
            ("text_mean", '"type": "normal", "mean": "0.05", "std": 0.1',
             ": mean must be a finite number, not '0.05'"),
            ("missing_std", '"type": "normal", "mean": 0.05',
             " misses field 'std'"),
            ("nan_std", '"type": "normal", "mean": 0.05, "std": NaN',
             ": std must be a finite number, not nan"),
            ("infinite_high", '"type": "uniform", "low": 1.0, "high": Infinity',
             ": high must be a finite number, not inf"),
            ("huge_low", '"type": "uniform", "low": 1e400, "high": 2.0',
             ": low is too large for a float"),
            ("unknown_type", '"type": "gamma", "mean": 1.0, "std": 0.1',
             ": unknown distribution type: 'gamma'")):
        text = json.dumps(_mini_model()).replace(
            '"type": "uniform", "low": 1.0, "high": 2.0', fields)
        message = f"parameter k{message}"
        with pytest.raises(ModelError, match=re.escape(message)):
            parse_model(text)
        path, out = tmp_path / f"{name}.json", tmp_path / f"samples_{name}.json"
        path.write_text(text)
        assert main(["sample", "--model", str(path), "--n", "2", "--out", str(out)]) == 1
        assert f"error [sample] model file {path}: {message}" in capsys.readouterr().err
        assert not out.exists()


def _malformed_fields():
    """(name, model document, message) for models with one malformed field."""
    def edit(change):
        doc = _mini_model()
        change(doc)
        return doc

    def init(state, prob):
        return _mini_model(init_distribution=[{"state": state, "prob": prob}])

    return (
        ("distribution_int", edit(lambda d: d["parameters"][0].update(distribution=5)),
         "parameter k: distribution must be an object, not 5"),
        ("parameter_unnamed", edit(lambda d: d["parameters"][0].pop("name")),
         "parameter 0 misses field 'name'"),
        ("variable_unnamed", edit(lambda d: d["variables"][0].pop("name")),
         "variable 0 misses field 'name'"),
        ("parameter_name_int", edit(lambda d: d["parameters"][0].update(name=5)),
         "parameter 0: name must be a string, not 5"),
        ("variable_no_max", edit(lambda d: d["variables"][0].pop("max")),
         "variable x misses field 'max'"),
        ("variables_object", _mini_model(variables={"x": {"init": 0, "min": 0, "max": 3}}),
         "model: variables must be a list, not {'x'"),
        ("guard_int", edit(lambda d: d["commands"][0].update(guard=5)),
         "command 0: guard must be a string, not 5"),
        ("guard_syntax", edit(lambda d: d["commands"][0].update(guard="x <")),
         "command 0: guard: unexpected token 'end of input' at offset 3"),
        ("updates_list", edit(lambda d: d["commands"][0].update(updates=["x+1"])),
         "command 0: updates must be an object, not ['x+1']"),
        ("labels_list", _mini_model(labels=["x=3"]),
         "model: labels must be an object, not ['x=3']"),
        ("reward_text", _mini_model(rewards={"level": "x"}),
         "rewards: level must be an object, not 'x'"),
        ("state_bool", init({"x": True}, 1),
         "init_distribution entry 0 state: x must be an integer, not True"),
        ("prob_bool", init({"x": 0}, True),
         "init_distribution entry 0: prob must be a number or fraction text, not True"))


def test_parse_rejects_malformed_fields(tmp_path, capsys):
    # every field is read through one typed-field check: a malformed one is a
    # ModelError that names the entry and the field, and the file when read
    # from one; the sample stage exits 1 and writes no samples
    for name, doc, message in _malformed_fields():
        text = json.dumps(doc)
        with pytest.raises(ModelError, match=re.escape(message)):
            parse_model(text)
        path, out = tmp_path / f"{name}.json", tmp_path / f"samples_{name}.json"
        path.write_text(text)
        with pytest.raises(ModelError, match=re.escape(f"model file {path}: {message}")):
            uctmc.load_model(path)
        assert main(["sample", "--model", str(path), "--n", "2", "--out", str(out)]) == 1
        assert f"error [sample] model file {path}: {message}" in capsys.readouterr().err
        assert not out.exists()
    # a probability may be exact fraction text
    m = parse_model(json.dumps(_mini_model(init_distribution=[
        {"state": {"x": x}, "prob": "1/3"} for x in range(3)])))
    assert m.init_distribution == (((0,), Fraction(1, 3)), ((1,), Fraction(1, 3)),
                                   ((2,), Fraction(1, 3)))


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


def _looped_chain():
    rng = np.random.default_rng(3)
    rates = random_ctmc(rng, max_states=30).rates.toarray()
    np.fill_diagonal(rates, rng.uniform(0.0, 2.0, len(rates)))
    rates[0, 0] = 0.0  # a state without a self-loop, too
    return uctmc.ConcreteCtmc.from_dense(rates, np.eye(len(rates))[0])


@pytest.mark.parametrize("name", ["sir2", "sir20", "sir140", "tandem", "buffer", "looped"])
def test_chain_arrays_match_scipy_bit_for_bit(name):
    # exit rates, self-loops, transition counts and edges are read from the
    # CSR arrays without scipy; each has the bits of scipy's own reading
    if name == "looped":
        c = _looped_chain()
    else:
        m = uctmc.load_model(uctmc.example_model_path(name))
        c = build_full(m, uctmc.sample_valuations(m, 1, seed=4).valuations[0])
    rates = c.rates
    sums = np.asarray(rates.sum(axis=1)).ravel()
    assert np.array_equal(c.exit_rates.view(np.int64), sums.view(np.int64))
    assert np.array_equal(c.diagonal().view(np.int64), rates.diagonal().view(np.int64))
    assert c.num_transitions == rates.nnz
    coo = rates.tocoo()
    assert list(c.edges()) == list(zip(coo.row.tolist(), coo.col.tolist(), coo.data.tolist()))
    if name == "looped":
        assert np.count_nonzero(c.diagonal()) == c.num_states - 1


def test_update_out_of_bounds_is_an_error():
    doc = _mini_model(commands=[{"guard": "x<3", "rate": "k", "updates": {"x": "x+7"}}])
    m = parse_model(doc)
    with pytest.raises(ModelError, match="bounds"):
        build_full(m, Valuation.from_floats([1.5]))


def test_state_cap(monkeypatch):
    monkeypatch.setattr(um, "DEFAULT_STATE_CAP", 2)
    m = parse_model(_mini_model())
    with pytest.raises(uctmc.StateCapExceeded):
        build_full(m, Valuation.from_floats([1.5]))


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


def _two_variable_model(commands, **overrides):
    doc = _mini_model(
        variables=[{"name": "x", "init": 0, "min": 0, "max": 4},
                   {"name": "y", "init": 0, "min": 0, "max": 3}],
        commands=commands, labels={"corner": "x=4 & y=3"}, rewards={})
    doc.update(overrides)
    return parse_model(doc)


def _synthetic_models():
    """Small models that reach every branch of the compile."""
    return {
        # decimal literals in guards, updates, rates and rewards
        "decimals": _two_variable_model(
            [{"guard": "0.5*x < 1.75 & y >= 0.25*x", "rate": "0.3*k*x + 0.7",
              "updates": {"x": "0.5*(x+x) + 1"}},
             {"guard": "y < 2.5", "rate": "1.25*k*k - 0.125*k*y + 0.1",
              "updates": {"y": "y + 0.5*2"}}],
            rewards={"mix": {"states": "0.1*x + 0.25*y"}}),
        # | guards and a parenthesized arithmetic left side
        "disjunctions": _two_variable_model(
            [{"guard": "y < 3 & ((x + 1)*2 > 5 | y = 0)", "rate": "k", "updates": {"y": "y+1"}},
             {"guard": "(x < 2 | y > 2) & x < 4", "rate": "k*y + 2",
              "updates": {"x": "x+1"}}]),
        # k*x is guard-true but zero at x = 0: an edge with an empty kernel
        "zero_rate": parse_model(_mini_model(commands=[
            {"guard": "x<3", "rate": "k*x", "updates": {"x": "x+1"}},
            {"guard": "x<2", "rate": "k", "updates": {"x": "x+2"}}])),
        # several roots, one of them repeated by no one
        "roots": parse_model(_mini_model(init_distribution=[
            {"state": {"x": 2}, "prob": 0.5}, {"state": {"x": 0}, "prob": 0.25},
            {"state": {"x": 3}, "prob": 0.25}])),
        # simultaneous updates read the old state
        "swap": _two_variable_model(
            [{"guard": "x < 3", "rate": "k*(x+1)", "updates": {"x": "y", "y": "x"}},
             {"guard": "y < 3", "rate": "k + x", "updates": {"y": "y+1"}}]),
        # negative bounds: signs of guards, scales and kernels
        "negative": parse_model(_mini_model(
            variables=[{"name": "z", "init": 0, "min": -3, "max": 3}],
            commands=[{"guard": "z > -3", "rate": "k*(z+4) - 2*z", "updates": {"z": "z-1"}},
                      {"guard": "z*z < 5", "rate": "0.5*k*z + 0.25*z*z",
                       "updates": {"z": "z+1"}}],
            labels={"low": "z < -1"}, rewards={"shifted": {"states": "z + 3"}})),
        # integers past 2**53 take the compile into Python ints
        "wide": parse_model(_mini_model(commands=[
            {"guard": "x<3", "rate": "1000000000000000000000000000000*k*x + 3*k",
             "updates": {"x": "x+1"}},
            {"guard": "x>0", "rate": "0.1*k*x*x", "updates": {"x": "x-1"}}])),
        # below 2**63 but past 2**53, where an int64 / 10.0 would round twice
        "wide_reward": parse_model(_mini_model(
            rewards={"big": {"states": "100000000000000007*x + 0.1"}})),
        # a reset from deep levels back to the initial state, numbered levels before
        "reset": _two_variable_model(
            [{"guard": "x < 4", "rate": "k", "updates": {"x": "x+1"}},
             {"guard": "y < 3 & x > 1", "rate": "k*x", "updates": {"y": "y+1"}},
             {"guard": "x + y >= 5", "rate": "2", "updates": {"x": "0", "y": "0"}}]),
        # two commands of one state, and two states of one level, reach the
        # same new state in that level: (1, 1) from (1, 0) twice and from (0, 1)
        "merge": _two_variable_model(
            [{"guard": "x < 4", "rate": "k", "updates": {"x": "x+1"}},
             {"guard": "y < 3", "rate": "k*k + x", "updates": {"y": "y+1"}},
             {"guard": "x > 0 & y < 3", "rate": "x", "updates": {"y": "y+1"}}]),
    }


def _assert_tables_equal(got, want):
    assert got.states == want.states
    assert got.roots == want.roots
    for name in ("source", "target", "coefficient", "kernel", "command", "initial"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert got.kernels == want.kernels
    for name in ("labels", "rewards"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.keys() == b.keys()
        assert all(a[k].dtype == b[k].dtype and np.array_equal(a[k], b[k]) for k in b), name


@pytest.mark.parametrize("name", ["sir2", "sir20", "sir140", "tandem", "buffer", "kernel",
                                  *_synthetic_models()])
def test_compiled_table_matches_per_state_reference(name):
    if name in _synthetic_models():
        m = _synthetic_models()[name]
    elif name == "kernel":
        m = _kernel_model()
    else:
        m = uctmc.load_model(uctmc.example_model_path(name))
    _assert_tables_equal(um._Table(m, um.DEFAULT_STATE_CAP),
                         table_reference(m, um.DEFAULT_STATE_CAP))


def test_compiled_table_edge_cases():
    models = _synthetic_models()
    table = um._Table(models["zero_rate"], 10)
    assert () in table.kernels  # k*x at x = 0
    assert table.coefficient[table.kernel == table.kernels.index(())].tolist() == [1.0]
    assert um._Table(models["roots"], 10).states[:3] == [(2,), (0,), (3,)]
    assert (1, 0) in um._Table(models["swap"], 100).states
    # a rate past int64 keeps its exact coefficient, rounded once
    wide = um._Table(models["wide"], 10)
    assert float(2 * 10**30 + 3) in wide.coefficient.tolist()


def _outcome(compile_, m, cap):
    try:
        compile_(m, cap)
    except (ModelError, uctmc.StateCapExceeded) as exc:
        return type(exc), str(exc)
    return None


def _line_model(commands, roots=(0,)):
    return parse_model(_mini_model(
        variables=[{"name": "x", "init": roots[0], "min": 0, "max": 9}],
        commands=commands,
        init_distribution=[{"state": {"x": r}, "prob": f"1/{len(roots)}"} for r in roots]
        if len(roots) > 1 else None))


_STEP = {"guard": "x<9", "rate": "k", "updates": {"x": "x+1"}}
# a new state from x = 5, a fault at x = 0
_SPLIT = [{"guard": "x=5", "rate": "k", "updates": {"x": "x+1"}},
          {"guard": "x=0", "rate": "k", "updates": {"x": "x-0.5"}}]

_FAULTS = {
    "non_integer": (_line_model([{"guard": "x<3", "rate": "k", "updates": {"x": "x+0.5"}}]),
                    100),
    "out_of_bounds": (_line_model([_STEP, {"guard": "x=4", "rate": "k",
                                           "updates": {"x": "x+7"}}]), 100),
    # faults in one level: the first state's wins, though a later command's
    "two_faults": (_line_model([{"guard": "x>1", "rate": "k", "updates": {"x": "x+0.5"}},
                                {"guard": "x>0", "rate": "k", "updates": {"x": "x+9"}}],
                               roots=(1, 3, 2)), 100),
    # then the first command's at that state
    "two_faults_one_state": (_line_model([{"guard": "x>0", "rate": "k", "updates": {"x": "x*9"}},
                                          {"guard": "x>0", "rate": "k",
                                           "updates": {"x": "x-0.5"}}],
                                         roots=(0, 2)), 100),
    # a cap crossing before, at and after a fault of the same level
    "cap_before_fault": (_line_model([_STEP, {"guard": "x=0", "rate": "k",
                                              "updates": {"x": "x+0.5"}}]), 1),
    "fault_before_cap": (_line_model([{"guard": "x=0", "rate": "k", "updates": {"x": "x+0.5"}},
                                      _STEP]), 1),
    "fault_on_crossing": (_line_model([{"guard": "x<9", "rate": "k",
                                        "updates": {"x": "x+0.5"}}]), 1),
    "cap_at_earlier_state": (_line_model(_SPLIT, roots=(5, 0)), 2),
    "fault_at_earlier_state": (_line_model(_SPLIT, roots=(0, 5)), 2),
    "roots_over_cap": (_line_model([_STEP], roots=(0, 4, 8)), 2),
    "cap_exceeded": (_line_model([_STEP]), 9),
    # the first state with a negative reward, then the first such reward
    "negative_reward": (parse_model(_mini_model(rewards={
        "level": {"states": "x"}, "short": {"states": "1 - x"},
        "shorter": {"states": "2 - 2*x"}})), 100),
    # update faults and the state cap come before reward signs
    "fault_before_negative_reward": (parse_model(_mini_model(
        commands=[{"guard": "x<3", "rate": "k", "updates": {"x": "x+0.5"}}],
        rewards={"below": {"states": "x - 1"}})), 100),
    "cap_before_negative_reward": (parse_model(_mini_model(
        rewards={"below": {"states": "x - 1"}})), 2),
}


@pytest.mark.parametrize("name", list(_FAULTS))
def test_compile_errors_match_per_state_reference(name):
    m, cap = _FAULTS[name]
    want = _outcome(table_reference, m, cap)
    assert want is not None
    assert _outcome(um._Table, m, cap) == want


@pytest.mark.parametrize("name", ["reset", "merge"])
def test_state_cap_outcomes_match_per_state_reference(name):
    # every cap up to the reachable count, where the numbering revisits and merges
    m = _synthetic_models()[name]
    n = len(table_reference(m, um.DEFAULT_STATE_CAP).states)
    for cap in range(1, n + 1):
        assert _outcome(um._Table, m, cap) == _outcome(table_reference, m, cap), cap


def test_state_cap_equal_to_reachable_count_compiles():
    sir20 = uctmc.load_model(uctmc.example_model_path("sir20"))
    assert len(um._Table(sir20, 216).states) == 216
    want = _outcome(table_reference, sir20, 215)
    assert want == (uctmc.StateCapExceeded, "state cap of 215 exceeded")
    assert _outcome(um._Table, sir20, 215) == want
    line = _line_model([_STEP])
    assert len(um._Table(line, 10).states) == 10


def test_state_cap_bounds_every_entry_point_that_compiles(monkeypatch, mean_valuation):
    # sir20 has 216 reachable states; the cap is read when the model compiles,
    # and a compile that fails caches nothing, so each call compiles afresh
    monkeypatch.setattr(um, "DEFAULT_STATE_CAP", 100)
    m = uctmc.load_model(uctmc.example_model_path("sir20"))
    for call in (lambda: build_full(m, mean_valuation),
                 lambda: graph_preservation_violation(m, mean_valuation),
                 lambda: uctmc.sample_valuations(m, 3, 1)):
        with pytest.raises(uctmc.StateCapExceeded, match="^state cap of 100 exceeded$"):
            call()
        assert m not in um._tables


def test_state_cap_message_does_not_depend_on_call_history(monkeypatch, mean_valuation):
    # a compile that fails caches nothing, so a repeated call fails the same way
    monkeypatch.setattr(um, "DEFAULT_STATE_CAP", 100)
    m = uctmc.load_model(uctmc.example_model_path("sir20"))
    with pytest.raises(uctmc.StateCapExceeded) as cold:
        build_full(m, mean_valuation)
    assert m not in um._tables
    with pytest.raises(uctmc.StateCapExceeded) as again:
        build_full(m, mean_valuation)
    assert str(cold.value) == str(again.value) == "state cap of 100 exceeded"


def test_graph_check_leaves_rates_unmerged(sir20, mean_valuation):
    inst = um._Instance(sir20, mean_valuation)
    assert inst.violation() is None
    assert "rates" not in vars(inst)
    assert inst.rates.size == inst.table.indices.size


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
    # full chains share the model's arrays, so those are read-only
    with pytest.raises(ValueError):
        build_full(m, u).initial[0] = 1.0


def test_reward_must_be_nonnegative():
    m = parse_model(_mini_model(rewards={"bad": {"states": "x-5"}}))
    with pytest.raises(ModelError, match="negative"):
        um._Table(m, um.DEFAULT_STATE_CAP)


def _walk_model(low, high, reward):
    """A walk over z in [low, high] that reaches only -3 .. 3."""
    return parse_model(_mini_model(
        variables=[{"name": "z", "init": 0, "min": low, "max": high}],
        commands=[{"guard": "z < 3", "rate": "k", "updates": {"z": "z+1"}},
                  {"guard": "z > -3", "rate": "2*k", "updates": {"z": "z-1"}}],
        labels={"top": "z=3"}, rewards={"r": {"states": reward}}))


def test_reward_signs_are_checked_on_the_reachable_states():
    measures = uctmc.MeasureSet((uctmc.InstantReward("r", "r", 1.0),
                                 uctmc.TimeBoundedReach("top", "top", 1.0)))
    # z*z, which interval arithmetic over the box would call negative, and
    # z + 3, negative only at the declared but unreachable z = -5 and -4
    for m in (_walk_model(-3, 3, "z*z"), _walk_model(-5, 3, "z+3")):
        samples = uctmc.sample_valuations(m, 3, seed=1)
        assert samples.rejected_count == 0
        chain = build_full(m, samples.valuations[0])
        z = np.array([state[0] for state in chain.states])
        assert sorted(z.tolist()) == list(range(-3, 4))
        want = z * z if m.variables[0].minimum == -3 else z + 3
        assert np.array_equal(chain.reward_vector("r"), want.astype(float))
        for mode in ("exact", "approx"):
            solutions = uctmc.solve_measure_set(m, samples, measures, mode=mode)
            assert len(solutions) == 3
    # negative at the reachable z = -3: refused, naming the reward and the state
    bad = _walk_model(-3, 3, "z+2")
    with pytest.raises(ModelError, match=r"reward r is negative at reachable state \(-3,\)"):
        check_graph_preserving(bad, Valuation.from_floats([1.5]))
