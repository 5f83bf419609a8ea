"""Parametric CTMCs as guarded-command programs over bounded integer variables.

A model consists of parameters (each with a sampling distribution), integer
state variables with bounds, and guarded commands ``guard -> rate : updates``.
Instantiating the parameters at a valuation and exploring the guarded commands
from the initial assignment yields an explicit-state CTMC; commands whose
guards hold contribute their rate, and parallel edges to the same successor
are rate-summed.

Guards, updates, labels and rewards range over state variables only, so the
reachable graph is valuation-independent.  Each model is compiled once, on its
first graph check or chain build, into flat arrays shared by all valuations:
the reachable states in BFS order, the enabled edges with rates coefficient *
kernel, their merged CSR pattern, and the initial, label and reward arrays.  A
coefficient is an exact positive rational; a kernel is one of the model's few
parameter polynomials up to positive scaling (ki, kr and 1 on SIR).  A
valuation evaluates only the kernels, exactly over rationals, so graph
preservation (no symbolically nonzero rate may become <= 0) is decided without
float round-off as "every kernel on a reachable edge is > 0"; each merged rate
sums its edges' coefficient * kernel value in command order.  A full chain is
the pattern with these rates, a partial chain its best-first search over them.

Partial models keep only states whose estimated reachability stays above a
threshold; all truncated transitions are redirected into one absorbing sink,
which downstream analyses treat as best case / worst case to obtain sound
two-sided measure bounds.
"""

from __future__ import annotations

import functools
import heapq
import json
import math
import weakref
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, Optional, Sequence, Union

import numpy as np
from scipy import sparse

from . import expr as ex

DEFAULT_STATE_CAP = 10_000_000


class ModelError(ValueError):
    """Schema violation, undeclared identifier, duplicate name, bad bounds."""


class GraphPreservationError(RuntimeError):
    """A symbolically nonzero rate evaluated to <= 0 at the given valuation."""


class StateCapExceeded(RuntimeError):
    """State-space exploration hit the configured cap."""


# ---------------------------------------------------------------------------
# Model data types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Normal:
    mean: float
    std: float


@dataclass(frozen=True)
class Uniform:
    low: float
    high: float


Distribution = Union[Normal, Uniform]


@dataclass(frozen=True)
class Parameter:
    name: str
    distribution: Distribution


@dataclass(frozen=True)
class StateVariable:
    name: str
    init: int
    minimum: int
    maximum: int


@dataclass(frozen=True)
class Command:
    guard: ex.GuardExpr
    rate: ex.Expr
    updates: tuple[tuple[str, ex.Expr], ...]


@dataclass(frozen=True, eq=False)
class ParametricCtmc:
    name: str
    parameters: tuple[Parameter, ...]
    variables: tuple[StateVariable, ...]
    commands: tuple[Command, ...]
    labels: Mapping[str, ex.GuardExpr]
    rewards: Mapping[str, ex.Expr]
    init_distribution: Optional[tuple[tuple[tuple[int, ...], Fraction], ...]] = None

    @property
    def parameter_names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.parameters)

    @property
    def variable_names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.variables)

    def initial_states(self) -> tuple[tuple[tuple[int, ...], Fraction], ...]:
        if self.init_distribution is not None:
            return self.init_distribution
        point = tuple(v.init for v in self.variables)
        return ((point, Fraction(1)),)


@dataclass(frozen=True)
class Valuation:
    """One sampled assignment of parameter values, kept as exact rationals."""

    values: tuple[Fraction, ...]

    @classmethod
    def from_floats(cls, values: Sequence[float]) -> "Valuation":
        return cls(tuple(Fraction(float(v)) for v in values))

    def to_floats(self) -> tuple[float, ...]:
        return tuple(float(v) for v in self.values)

    @property
    def dimension(self) -> int:
        return len(self.values)


# ---------------------------------------------------------------------------
# JSON front-end
# ---------------------------------------------------------------------------

def _parse_distribution(payload: dict) -> Distribution:
    kind = payload.get("type")
    if kind == "normal":
        mean, std = float(payload["mean"]), float(payload["std"])
        if std <= 0:
            raise ModelError("normal distribution needs std > 0")
        return Normal(mean, std)
    if kind == "uniform":
        low, high = float(payload["low"]), float(payload["high"])
        if not low < high:
            raise ModelError("uniform distribution needs low < high")
        return Uniform(low, high)
    raise ModelError(f"unknown distribution type: {kind!r}")


def parse_model(document: Union[str, dict]) -> ParametricCtmc:
    """Parse and fully validate a model document (JSON text or dict)."""
    if isinstance(document, str):
        try:
            raw = json.loads(document, parse_float=Fraction)
        except json.JSONDecodeError as exc:
            raise ModelError(f"invalid JSON: {exc}") from None
    else:
        raw = document
    if not isinstance(raw, dict):
        raise ModelError("model document must be a JSON object")

    name = raw.get("name", "model")

    parameters = []
    for p in raw.get("parameters", []):
        parameters.append(Parameter(str(p["name"]), _parse_distribution(
            {k: (float(v) if isinstance(v, Fraction) else v)
             for k, v in p["distribution"].items()})))

    variables = []
    for v in raw.get("variables", []):
        init, lo, hi = v["init"], v["min"], v["max"]
        for b in (init, lo, hi):
            if isinstance(b, Fraction) or not isinstance(b, int) or isinstance(b, bool):
                raise ModelError(f"variable {v['name']}: bounds and init must be integers")
        if not lo <= init <= hi:
            raise ModelError(f"variable {v['name']}: init {init} outside [{lo}, {hi}]")
        variables.append(StateVariable(str(v["name"]), init, lo, hi))

    param_names = [p.name for p in parameters]
    var_names = [v.name for v in variables]
    all_names = param_names + var_names
    if len(set(all_names)) != len(all_names):
        raise ModelError("duplicate parameter/variable names")
    param_set, var_set = set(param_names), set(var_names)

    def check_idents(node, allowed: set, what: str):
        unknown = ex.free_identifiers(node) - allowed
        if unknown:
            raise ModelError(f"undeclared identifier in {what}: {sorted(unknown)[0]}")

    commands = []
    for k, c in enumerate(raw.get("commands", [])):
        guard = ex.parse_guard(c["guard"])
        check_idents(guard, var_set, f"command {k} guard")
        rate = ex.parse_expression(c["rate"])
        check_idents(rate, var_set | param_set, f"command {k} rate")
        updates = []
        for var, update_text in c.get("updates", {}).items():
            if var not in var_set:
                raise ModelError(f"command {k} updates undeclared variable {var}")
            update = ex.parse_expression(update_text)
            check_idents(update, var_set, f"command {k} update of {var}")
            updates.append((var, update))
        commands.append(Command(guard, rate, tuple(updates)))

    labels = {}
    for label, guard_text in raw.get("labels", {}).items():
        guard = ex.parse_guard(guard_text)
        check_idents(guard, var_set, f"label {label}")
        labels[str(label)] = guard

    rewards = {}
    var_box = {v.name: (v.minimum, v.maximum) for v in variables}
    for rname, payload in raw.get("rewards", {}).items():
        reward = ex.parse_expression(payload["states"])
        check_idents(reward, var_set, f"reward {rname}")
        # truncation bounds treat the sink's reward as 0 (worst case), which
        # is only sound when no state can carry a negative reward
        lo, _ = ex.bounds(reward, var_box)
        if lo < 0:
            raise ModelError(
                f"reward {rname} may be negative over the variable bounds; "
                "rewards must be nonnegative")
        rewards[str(rname)] = reward

    init_distribution = None
    if raw.get("init_distribution") is not None:
        entries = []
        total = Fraction(0)
        for entry in raw["init_distribution"]:
            assignment = entry["state"]
            point = []
            for v in variables:
                if v.name not in assignment:
                    raise ModelError(f"init_distribution entry misses variable {v.name}")
                value = assignment[v.name]
                if not isinstance(value, int) or not v.minimum <= value <= v.maximum:
                    raise ModelError(f"init_distribution value for {v.name} out of bounds")
                point.append(value)
            prob = Fraction(entry["prob"])
            if prob <= 0:
                raise ModelError("init_distribution probabilities must be positive")
            total += prob
            entries.append((tuple(point), prob))
        if total != 1:
            raise ModelError(f"init_distribution probabilities sum to {total}, not 1")
        init_distribution = tuple(entries)

    return ParametricCtmc(
        name=name,
        parameters=tuple(parameters),
        variables=tuple(variables),
        commands=tuple(commands),
        labels=labels,
        rewards=rewards,
        init_distribution=init_distribution,
    )


def load_model(path) -> ParametricCtmc:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_model(handle.read())


# ---------------------------------------------------------------------------
# Compiled model: one rate pattern shared by all valuations
# ---------------------------------------------------------------------------

def _state_env(m: ParametricCtmc, state: tuple[int, ...]) -> dict:
    return dict(zip(m.variable_names, state))


def _successor(m: ParametricCtmc, positions: Mapping[str, int], state: tuple[int, ...],
               command: Command, env: dict) -> tuple[int, ...]:
    new = list(state)
    for var, update in command.updates:
        value = ex.evaluate(update, env)
        if value.denominator != 1:
            raise ModelError(f"update of {var} is not integer at state {state}")
        value = int(value)
        i = positions[var]
        vmin, vmax = m.variables[i].minimum, m.variables[i].maximum
        if not vmin <= value <= vmax:
            raise ModelError(
                f"update of {var} to {value} leaves bounds [{vmin}, {vmax}] at state {state}")
        new[i] = value
    return tuple(new)


class _Table:
    """A model compiled into flat arrays over its reachable states.

    ``states`` is in BFS order from the initial support (the first ``roots``).
    Each enabled edge, in (state, command) order, has a ``source``, ``target``,
    ``coefficient``, ``kernel`` and ``command``: at a fixed state a rate is a
    parameter polynomial, stored as coefficient * kernel (the polynomial over
    its first monomial's |coefficient|).  ``indptr``/``indices`` is the merged
    CSR pattern, columns ascending; ``entry`` maps each edge onto it and
    ``visit`` lists each row's entries in the order of their first edge.
    """

    def __init__(self, m: ParametricCtmc, state_cap: int):
        positions = {v: i for i, v in enumerate(m.variable_names)}
        kernels: dict = {}  # sorted (monomial, coefficient) pairs -> index
        states = list(dict.fromkeys(point for point, _ in m.initial_states()))
        index = {s: i for i, s in enumerate(states)}
        self.roots = len(states)
        edges, labels, rewards = [], [], []
        for source, state in enumerate(states):  # extended while iterating
            env = _state_env(m, state)
            for c, command in enumerate(m.commands):
                if ex.evaluate_guard(command.guard, env):
                    poly = ex.polynomial(command.rate, env)
                    scale = abs(poly[min(poly)]) if poly else Fraction(1)
                    kernel = tuple(sorted((mono, v / scale) for mono, v in poly.items()))
                    target = _successor(m, positions, state, command, env)
                    if target not in index:
                        if len(states) >= state_cap:
                            raise StateCapExceeded(f"state cap of {state_cap} exceeded")
                        index[target] = len(states)
                        states.append(target)
                    edges.append((source, index[target], float(scale),
                                  kernels.setdefault(kernel, len(kernels)), c))
            labels.append([ex.evaluate_guard(g, env) for g in m.labels.values()])
            rewards.append([float(ex.evaluate(r, env)) for r in m.rewards.values()])
        self.states = states
        self.kernels = list(kernels)
        columns = list(zip(*edges)) or [()] * 5
        self.source, self.target, self.kernel, self.command = (
            np.array(columns[j], dtype=np.int64) for j in (0, 1, 3, 4))
        self.coefficient = np.array(columns[2], dtype=float)

        n = len(states)
        pattern, first, self.entry = np.unique(
            self.source * n + self.target, return_index=True, return_inverse=True)
        idx = np.int32 if max(n, pattern.size) < 2**31 else np.int64
        self.indptr = np.searchsorted(pattern // n, np.arange(n + 1)).astype(idx)
        self.indices = (pattern % n).astype(idx)
        self.visit = np.argsort(first)  # edges are grouped by source

        points, probs = zip(*m.initial_states())
        self.initial = np.bincount([index[p] for p in points], [float(q) for q in probs],
                                   minlength=n)
        # one contiguous row per label and per reward
        self.labels = dict(zip(m.labels, np.array(labels, dtype=bool).reshape(n, -1).T.copy()))
        self.rewards = dict(zip(m.rewards, np.array(rewards).reshape(n, -1).T.copy()))
        for shared in (self.indptr, self.indices, self.initial, *self.labels.values(),
                       *self.rewards.values()):  # every full chain holds these
            shared.flags.writeable = False

    @functools.cached_property
    def rows(self) -> tuple[list, list]:
        """``indptr`` and the targets in ``visit`` order, as lists."""
        return self.indptr.tolist(), self.indices[self.visit].tolist()


_tables: "weakref.WeakKeyDictionary[ParametricCtmc, _Table]" = weakref.WeakKeyDictionary()


class _Instance:
    """The compiled model at one valuation.  Each kernel is evaluated once,
    exactly: its sign decides graph preservation, its float value gives rates."""

    def __init__(self, m: ParametricCtmc, u: Valuation, state_cap: int):
        if u.dimension != len(m.parameters):
            raise ModelError(
                f"valuation has dimension {u.dimension}, model has {len(m.parameters)} parameters")
        self.m = m
        self.env = dict(zip(m.parameter_names, u.values))
        # compiled under the first call's cap
        self.table = t = _tables.get(m) or _tables.setdefault(m, _Table(m, state_cap))
        if len(t.states) > state_cap:
            raise StateCapExceeded(
                f"reachable state space has {len(t.states)} states, cap is {state_cap}")
        exact = [sum((c * math.prod(self.env[x] for x in mono) for mono, c in kernel),
                     Fraction(0)) for kernel in t.kernels]
        self.positive = np.array([value > 0 for value in exact], dtype=bool)
        values = np.array([float(value) for value in exact])
        # one merged rate per pattern entry; parallel edges add up in command order
        self.rates = np.bincount(t.entry, t.coefficient * values[t.kernel],
                                 minlength=t.indices.size)

    def violation(self, sources=None) -> Optional[str]:
        """The first edge, in BFS order, that leaves ``sources`` (by default
        any state) and whose rate is <= 0; None if there is none."""
        t = self.table
        bad = ~self.positive[t.kernel]
        if sources is not None and bad.any():
            bad &= np.isin(t.source, sources)
        if not bad.any():
            return None
        e = int(np.argmax(bad))
        state, target = t.states[t.source[e]], t.states[t.target[e]]
        command = self.m.commands[t.command[e]]
        value = ex.evaluate(command.rate, {**self.env, **_state_env(self.m, state)})
        return (f"rate {ex.to_source(command.rate)} evaluates to {value} on transition "
                f"{state} -> {target}")


# ---------------------------------------------------------------------------
# Graph preservation
# ---------------------------------------------------------------------------

def graph_preservation_violation(m: ParametricCtmc, u: Valuation,
                                 state_cap: int = DEFAULT_STATE_CAP) -> Optional[str]:
    """None if u is graph-preserving, else the first violation in BFS order."""
    return _Instance(m, u, state_cap).violation()


def check_graph_preserving(m: ParametricCtmc, u: Valuation,
                           state_cap: int = DEFAULT_STATE_CAP) -> bool:
    """True iff no reachable transition rate becomes <= 0 at u (exact check)."""
    return graph_preservation_violation(m, u, state_cap) is None


# ---------------------------------------------------------------------------
# Explicit-state CTMCs
# ---------------------------------------------------------------------------

class ConcreteCtmc:
    """Explicit CTMC: indexed states, sparse positive rate matrix, label sets.

    ``exit_rates[s]`` is the full row sum including self-loops; self-loops are
    semantically inert for CTMCs and are kept only so transition counts match
    the source model.
    """

    def __init__(self, states, initial, rates, labels=None, rewards=None):
        self.states = states
        self.initial = np.asarray(initial, dtype=float)
        self.rates = rates.tocsr()
        self.labels = {k: np.asarray(v, dtype=bool) for k, v in (labels or {}).items()}
        self.rewards = {k: np.asarray(v, dtype=float) for k, v in (rewards or {}).items()}

    @classmethod
    def from_dense(cls, rates, initial, labels=None, rewards=None) -> "ConcreteCtmc":
        rates = np.asarray(rates, dtype=float)
        n = rates.shape[0]
        states = [(i,) for i in range(n)]
        return cls(states, initial, sparse.csr_matrix(rates), labels, rewards)

    @functools.cached_property
    def exit_rates(self) -> np.ndarray:
        """Row sums of ``rates``, computed on first read."""
        return np.asarray(self.rates.sum(axis=1)).ravel()

    @property
    def num_states(self) -> int:
        return len(self.states)

    @property
    def num_transitions(self) -> int:
        return int(self.rates.nnz)

    def edges(self) -> Iterator[tuple[int, int, float]]:
        coo = self.rates.tocoo()
        yield from zip(coo.row.tolist(), coo.col.tolist(), coo.data.tolist())

    def label_mask(self, label: str) -> np.ndarray:
        try:
            return self.labels[label]
        except KeyError:
            raise ModelError(f"unknown label: {label}") from None

    def reward_vector(self, name: str) -> np.ndarray:
        try:
            return self.rewards[name]
        except KeyError:
            raise ModelError(f"unknown reward: {name}") from None


class PartialCtmc(ConcreteCtmc):
    """Truncated CTMC with one absorbing sink collecting all redirected mass.

    The sink is the last state index; labels and rewards never include it, so
    analyses choose explicitly how to treat truncated mass.
    """

    def __init__(self, states, initial, rates, labels, rewards,
                 retained_states, redirected_rate):
        super().__init__(states, initial, rates, labels, rewards)
        self.retained_states = retained_states
        self.redirected_rate = redirected_rate

    @property
    def sink(self) -> int:
        return self.num_states - 1

    @property
    def sink_reachable(self) -> bool:
        return self.redirected_rate > 0.0


def build_full(m: ParametricCtmc, u: Valuation,
               state_cap: int = DEFAULT_STATE_CAP) -> ConcreteCtmc:
    """Instantiate at u and build the full reachable CTMC (BFS order).

    Raises GraphPreservationError at the first transition, in BFS order,
    whose rate is <= 0 at u.  The chain shares the model's read-only arrays.
    """
    inst = _Instance(m, u, state_cap)
    reason = inst.violation()
    if reason is not None:
        raise GraphPreservationError(reason)
    t = inst.table
    n = len(t.states)
    rates = sparse.csr_matrix((inst.rates, t.indices, t.indptr), shape=(n, n))
    return ConcreteCtmc(t.states, t.initial, rates, t.labels, t.rewards)


def build_partial(m: ParametricCtmc, u: Valuation, delta: float,
                  state_cap: int = DEFAULT_STATE_CAP) -> PartialCtmc:
    """Build a truncated CTMC keeping states with estimated reach probability > delta.

    States are expanded in descending order of the product of embedded-DTMC
    branch probabilities along their discovery path (an upper estimate of the
    probability to reach them); a state with estimate <= delta is not expanded
    and all transitions into it are redirected to the sink.  The retained set
    always contains the initial support.  Only the rates of retained states are
    checked for graph preservation.  The search runs over the model's whole
    compiled table (compiled under DEFAULT_STATE_CAP on first use, as the
    graph check of sampling does); ``state_cap`` bounds the expanded states.
    """
    if not 0 < delta <= 1:
        raise ModelError("delta must lie in (0, 1]")
    inst = _Instance(m, u, DEFAULT_STATE_CAP)
    t = inst.table
    n = len(t.states)
    # each state's merged edges in the order of their first edge
    bounds, targets = t.rows
    merged = inst.rates[t.visit].tolist()

    # Best-first exploration by estimated reachability (max product of branch
    # probabilities; lazy-deletion heap keyed on the running best).
    best = [1.0] * t.roots + [0.0] * (n - t.roots)
    heap = [(-1.0, i, i) for i in range(t.roots)]
    seq = t.roots
    expanded = set()
    order = []
    while heap:
        neg_est, _, i = heapq.heappop(heap)
        est = -neg_est
        if i in expanded or est < best[i] or est <= delta:
            continue
        expanded.add(i)
        order.append(i)
        if len(order) > state_cap:
            raise StateCapExceeded(f"state cap of {state_cap} exceeded")
        row = merged[bounds[i]:bounds[i + 1]]
        exit_rate = sum(row)
        if exit_rate <= 0:
            continue
        for j, rate in zip(targets[bounds[i]:bounds[i + 1]], row):
            if j in expanded:
                continue
            estimate = est * rate / exit_rate
            if estimate > best[j]:
                best[j] = estimate
                heapq.heappush(heap, (-estimate, seq, j))
                seq += 1
    retained = list(range(t.roots)) + [i for i in order if i >= t.roots]
    reason = inst.violation(retained)
    if reason is not None:
        raise GraphPreservationError(reason)

    # the retained rows in search order, every column outside them mapped
    # onto the sink; each row keeps its entries in the order of their first edge
    size = len(retained)
    position = np.full(n, size)
    position[retained] = np.arange(size)
    sources = position[np.repeat(np.arange(n), np.diff(t.indptr))]
    entries = t.visit[sources < size]
    columns = position[t.indices[entries]]
    values = inst.rates[entries]
    rates = sparse.csr_matrix((values, (sources[sources < size], columns)),
                              shape=(size + 1, size + 1))
    # the sink has no initial mass, no label and reward 0
    initial = np.append(t.initial[retained], 0.0)
    labels = {name: np.append(bits[retained], False) for name, bits in t.labels.items()}
    rewards = {name: np.append(v[retained], 0.0) for name, v in t.rewards.items()}
    states = [t.states[i] for i in retained]
    return PartialCtmc(states + [None], initial, rates, labels, rewards,
                       tuple(states), float(values[columns == size].sum()))
