"""Parametric CTMCs as guarded-command programs over bounded integer variables.

A model consists of parameters (each with a sampling distribution), integer
state variables with bounds, and guarded commands ``guard -> rate : updates``.
Instantiating the parameters at a valuation and exploring the guarded commands
from the initial assignment yields an explicit-state CTMC; commands whose
guards hold contribute their rate, and parallel edges to the same successor
are rate-summed.

Guards, updates, labels and rewards range over state variables only, so the
reachable graph is valuation-independent.  Each model is compiled once, on
demand, into a per-state table shared by all valuations: a state's label bits
and reward values, and its enabled edges with rates coefficient * kernel.  A
coefficient is an exact positive rational; a kernel is one of the model's few
parameter polynomials up to positive scaling (ki, kr and 1 on SIR).  A
valuation evaluates only the kernels, exactly over rationals, so graph
preservation (no symbolically nonzero rate may become <= 0) is decided without
float round-off as "every kernel on a reachable edge is > 0"; a rate becomes a
float as coefficient * kernel value.  Full chains (BFS over the table) and
partial chains (best-first over it) are assembled by one routine.

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
from typing import Iterator, Mapping, NamedTuple, Optional, Sequence, Union

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
# Compiled model: one per-state table shared by all valuations
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


class _Row(NamedTuple):
    # (target, coefficient, kernel index, command) per enabled command; the
    # exact coefficient is > 0, so an edge's rate has the sign of its kernel
    edges: tuple
    labels: tuple[bool, ...]  # in m.labels order
    rewards: tuple[float, ...]  # in m.rewards order


class _Table:
    """A model compiled into a per-state table, filled on a state's first visit.

    At a fixed state a rate is a parameter polynomial, stored as coefficient *
    kernel: the polynomial divided by its first monomial's |coefficient|.  The
    table does not hold the model, which keys its cache weakly.
    """

    def __init__(self, m: ParametricCtmc):
        self.positions = {v: i for i, v in enumerate(m.variable_names)}
        self.kernels: dict = {}  # sorted (monomial, coefficient) pairs -> index
        self.rows: dict = {}
        self.reachable: Optional[list] = None  # BFS order, once explored
        self.reachable_kernels: frozenset = frozenset()

    def row(self, m: ParametricCtmc, state: tuple[int, ...]) -> _Row:
        row = self.rows.get(state)
        if row is None:
            env = _state_env(m, state)
            edges = []
            for command in m.commands:
                if ex.evaluate_guard(command.guard, env):
                    poly = ex.polynomial(command.rate, env)
                    scale = abs(poly[min(poly)]) if poly else Fraction(1)
                    kernel = tuple(sorted((mono, c / scale) for mono, c in poly.items()))
                    k = self.kernels.setdefault(kernel, len(self.kernels))
                    edges.append((_successor(m, self.positions, state, command, env),
                                  float(scale), k, command))
            row = self.rows[state] = _Row(
                tuple(edges),
                tuple(ex.evaluate_guard(g, env) for g in m.labels.values()),
                tuple(float(ex.evaluate(r, env)) for r in m.rewards.values()))
        return row

    def explore(self, m: ParametricCtmc, state_cap: int) -> list:
        """The reachable states in BFS order from the initial support."""
        if self.reachable is None:
            order = list(dict.fromkeys(point for point, _ in m.initial_states()))
            seen = set(order)
            for state in order:  # extended while iterating
                for target, _, _, _ in self.row(m, state).edges:
                    if target not in seen:
                        if len(order) >= state_cap:
                            raise StateCapExceeded(f"state cap of {state_cap} exceeded")
                        seen.add(target)
                        order.append(target)
            self.reachable_kernels = frozenset(
                k for state in order for _, _, k, _ in self.rows[state].edges)
            self.reachable = order
        elif len(self.reachable) > state_cap:
            raise StateCapExceeded(
                f"reachable state space has {len(self.reachable)} states, cap is {state_cap}")
        return self.reachable


_tables: "weakref.WeakKeyDictionary[ParametricCtmc, _Table]" = weakref.WeakKeyDictionary()


class _Instance:
    """The compiled model at one valuation.  Each kernel is evaluated once,
    exactly: its sign decides graph preservation, its float value gives rates."""

    def __init__(self, m: ParametricCtmc, u: Valuation):
        if u.dimension != len(m.parameters):
            raise ModelError(
                f"valuation has dimension {u.dimension}, model has {len(m.parameters)} parameters")
        self.m = m
        self.env = dict(zip(m.parameter_names, u.values))
        self.table = _tables.get(m) or _tables.setdefault(m, _Table(m))
        self.positive: list[bool] = []
        self.values: list[float] = []

    def sync(self) -> None:
        """Evaluate the kernels the table gained since the last call."""
        for kernel in list(self.table.kernels)[len(self.values):]:
            value = sum((c * math.prod(self.env[x] for x in mono) for mono, c in kernel),
                        Fraction(0))
            self.positive.append(value > 0)
            self.values.append(float(value))

    def outgoing(self, state) -> dict:
        """Merged {target: rate} of one state; raises GraphPreservationError
        at the first enabled command whose rate is <= 0 there."""
        row = self.table.row(self.m, state)
        if len(self.values) < len(self.table.kernels):
            self.sync()
        out: dict = {}
        for target, coefficient, k, command in row.edges:
            if not self.positive[k]:
                value = ex.evaluate(command.rate, {**self.env, **_state_env(self.m, state)})
                raise GraphPreservationError(
                    f"rate {ex.to_source(command.rate)} evaluates to {value} on transition "
                    f"{state} -> {target}")
            out[target] = out.get(target, 0.0) + coefficient * self.values[k]
        return out

    def chain(self, states: list, rows: Mapping = {}, sink: bool = False):
        """Rates, initial vector, labels, rewards and redirected rate of the
        chain over ``states`` (using the merged ``rows`` already computed); with
        ``sink``, one more last state takes every edge that leaves ``states``."""
        m, n = self.m, len(states)
        size = n + 1 if sink else n
        index = {s: i for i, s in enumerate(states)}
        sources, targets, values = [], [], []
        redirected = 0.0
        for i, state in enumerate(states):
            for target, rate in (rows.get(state) or self.outgoing(state)).items():
                j = index.get(target, n)
                if j == n:
                    redirected += rate
                sources.append(i)
                targets.append(j)
                values.append(rate)
        rates = sparse.csr_matrix((values, (sources, targets)), shape=(size, size))

        initial = np.zeros(size)
        for point, prob in m.initial_states():
            initial[index[point]] += float(prob)

        compiled = [self.table.rows[s] for s in states]
        pad = [0] * (size - n)  # the sink has no label and reward 0
        labels = {name: np.array([row.labels[j] for row in compiled] + pad, dtype=bool)
                  for j, name in enumerate(m.labels)}
        rewards = {name: np.array([row.rewards[j] for row in compiled] + pad, dtype=float)
                   for j, name in enumerate(m.rewards)}
        return rates, initial, labels, rewards, redirected


# ---------------------------------------------------------------------------
# Graph preservation
# ---------------------------------------------------------------------------

def graph_preservation_violation(m: ParametricCtmc, u: Valuation,
                                 state_cap: int = DEFAULT_STATE_CAP) -> Optional[str]:
    """None if u is graph-preserving, else the first violation in BFS order."""
    inst = _Instance(m, u)
    states = inst.table.explore(m, state_cap)
    inst.sync()
    if all(inst.positive[k] for k in inst.table.reachable_kernels):
        return None
    try:  # a reachable edge has a kernel <= 0: find the first one
        for state in states:
            inst.outgoing(state)
    except GraphPreservationError as exc:
        return str(exc)


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
    whose rate is <= 0 at u.
    """
    inst = _Instance(m, u)
    states = inst.table.explore(m, state_cap)
    rates, initial, labels, rewards, _ = inst.chain(states)
    return ConcreteCtmc(states, initial, rates, labels, rewards)


def build_partial(m: ParametricCtmc, u: Valuation, delta: float,
                  state_cap: int = DEFAULT_STATE_CAP) -> PartialCtmc:
    """Build a truncated CTMC keeping states with estimated reach probability > delta.

    States are expanded in descending order of the product of embedded-DTMC
    branch probabilities along their discovery path (an upper estimate of the
    probability to reach them); a state with estimate <= delta is not expanded
    and all transitions into it are redirected to the sink.  The retained set
    always contains the initial support.  Only the rates of retained states are
    checked for graph preservation.
    """
    if not 0 < delta <= 1:
        raise ModelError("delta must lie in (0, 1]")
    inst = _Instance(m, u)
    init_points = [point for point, _ in m.initial_states()]
    rows: dict = {}  # outgoing rows of the expanded states, kept for assembly

    # Best-first exploration by estimated reachability (max product of branch
    # probabilities; lazy-deletion heap keyed on the running best).
    best = {p: 1.0 for p in init_points}
    heap = [(-1.0, i, p) for i, p in enumerate(init_points)]
    heapq.heapify(heap)
    seq = len(init_points)
    expanded = set()
    order = []
    while heap:
        neg_est, _, state = heapq.heappop(heap)
        est = -neg_est
        if state in expanded or est < best[state]:
            continue
        if est <= delta:
            continue
        expanded.add(state)
        order.append(state)
        if len(order) > state_cap:
            raise StateCapExceeded(f"state cap of {state_cap} exceeded")
        row = rows[state] = inst.outgoing(state)
        exit_rate = sum(row.values())
        if exit_rate <= 0:
            continue
        for target, rate in row.items():
            if target in expanded:
                continue
            estimate = est * rate / exit_rate
            if estimate > best.get(target, 0.0):
                best[target] = estimate
                heapq.heappush(heap, (-estimate, seq, target))
                seq += 1
    retained = list(dict.fromkeys(init_points + order))

    rates, initial, labels, rewards, redirected = inst.chain(retained, rows, sink=True)
    return PartialCtmc(retained + [None], initial, rates, labels, rewards,
                       tuple(retained), redirected)
