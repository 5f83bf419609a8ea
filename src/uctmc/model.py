"""Parametric CTMCs as guarded-command programs over bounded integer variables.

A model consists of parameters (each with a sampling distribution), integer
state variables with bounds, and guarded commands ``guard -> rate : updates``.
Instantiating the parameters at a valuation and exploring the guarded commands
from the initial assignment yields an explicit-state CTMC; commands whose
guards hold contribute their rate, and parallel edges to the same successor
are rate-summed.

The model file is read as every pipeline file is (``io`` uses the same
functions): each field goes through ``_field``, which checks its JSON type
(``_KINDS``), so a malformed field raises a ModelError that names the entry
and the field, and ``load_model`` puts the file's name in front.

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
sums its edges' coefficient * kernel value in command order.  A chain is the
pattern with these rates.

The compile expands every guard comparison (as left - right), update, rate,
label and reward once per model into polynomials over the state variables,
each scaled by the LCM D of its coefficients' denominators to integer
coefficients (``_Program``).  The BFS then takes one level at a time: every
command's guard, updates and successor keys over the whole frontier at once
in exact integer numpy arithmetic, and a dict from key to state that numbers
new states in the order a state-by-state BFS would, so no level's work grows
with the states known.  Rates follow the BFS, once per command over all of
its edges.  The integers are int64 when a bound over the variable box keeps
every intermediate below 2**53, else Python ints, on one path; errors are
raised at the first offending (state, command) in BFS order, as a
state-by-state compile would raise them.

Rewards must be nonnegative at every reachable state; the compile checks
this exactly, on the same integer values, and raises ModelError otherwise.

One state cap, ``DEFAULT_STATE_CAP``, bounds the reachable states of every
model: the compile reads it when it runs and raises StateCapExceeded at the
first new state past it; a compiled model is not checked against it again.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import weakref
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, Optional, Sequence, Union

import numpy as np

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
# JSON front-end: every field of a file from outside is read through _field
# ---------------------------------------------------------------------------

class FormatError(ValueError):
    """A malformed input file; the message names the file and the entry."""


def _each(values, kind=(int, float, Fraction)) -> bool:
    """True iff every value is of ``kind``, by default a JSON number (a model
    file reads decimals as Fraction): bool is an int subclass, and float()
    and int() read strings."""
    return all(isinstance(v, kind) and not isinstance(v, bool) for v in values)


_KINDS = {"an integer": lambda v: _each([v], int),
          "a number": lambda v: _each([v]),
          "a finite number": lambda v: _each([v]) and -math.inf < v < math.inf,
          "a number or fraction text": lambda v: _each([v], (int, float, Fraction, str)),
          "a string": lambda v: _each([v], str),
          "a list": lambda v: isinstance(v, list),
          "a list of numbers": lambda v: isinstance(v, list) and _each(v),
          "a list of strings": lambda v: isinstance(v, list) and _each(v, str),
          "an object": lambda v: isinstance(v, dict),
          "true or false": lambda v: isinstance(v, bool)}

_REQUIRED = object()


def _field(entry, name: str, kind: str, where: str, default=_REQUIRED):
    """``entry[name]`` if it is of ``kind`` (a key of ``_KINDS``), else a
    FormatError that names ``where``; an optional field that is absent or
    null reads as its ``default``."""
    if not isinstance(entry, dict):
        raise FormatError(f"{where} is not an object")
    if entry.get(name) is None and default is not _REQUIRED:
        return default
    if name not in entry:
        raise FormatError(f"{where} misses field {name!r}")
    value = entry[name]
    if not _KINDS[kind](value):
        raise FormatError(f"{where}: {name} must be {kind}, not {_shown(value)}")
    return value


def _shown(value) -> str:
    """A field's value for a message; a model file's decimal, read as a
    Fraction, written out exactly (2.5, 2.0, 1E-400, not Fraction(5, 2))."""
    if not isinstance(value, Fraction):
        return repr(value)
    return str(ex.exact_decimal(value)) + (".0" if value.denominator == 1 else "")


def _float(entry, name: str, kind: str, where: str):
    """``_field`` as a float, or as a float array for a list of numbers."""
    try:
        value = np.asarray(_field(entry, name, kind, where), dtype=float)
    except OverflowError:  # a number past the largest float
        raise FormatError(f"{where}: {name} is too large for a float") from None
    return value if value.ndim else float(value)


def _finite(values: list, where: str) -> list:
    """``values`` (floats and float arrays) if every entry is finite."""
    if not all(np.isfinite(v).all() for v in values):
        raise FormatError(f"{where} holds a value that is not finite")
    return values


_DISTRIBUTIONS = {"normal": (Normal, "mean", "std", "std > 0"),
                  "uniform": (Uniform, "low", "high", "low < high")}


def _read_model(raw) -> ParametricCtmc:
    """The model a decoded document describes; a field of the wrong JSON type
    raises FormatError, any other fault ModelError."""
    parameters = []
    for position, p in enumerate(_field(raw, "parameters", "a list", "model", [])):
        name = _field(p, "name", "a string", f"parameter {position}")
        where = f"parameter {name}"
        payload = _field(p, "distribution", "an object", where)
        kind = _field(payload, "type", "a string", where)
        if kind not in _DISTRIBUTIONS:
            raise ModelError(f"{where}: unknown distribution type: {kind!r}")
        cls, *fields, rule = _DISTRIBUTIONS[kind]
        first, second = (_float(payload, f, "a finite number", where) for f in fields)
        if not (second > 0 if cls is Normal else first < second):
            raise ModelError(f"{where}: {kind} distribution needs {rule}")
        parameters.append(Parameter(name, cls(first, second)))

    variables = []
    for position, v in enumerate(_field(raw, "variables", "a list", "model", [])):
        name = _field(v, "name", "a string", f"variable {position}")
        where = f"variable {name}"
        init, lo, hi = (_field(v, f, "an integer", where) for f in ("init", "min", "max"))
        if not lo <= init <= hi:
            raise ModelError(f"{where}: init {init} outside [{lo}, {hi}]")
        variables.append(StateVariable(name, init, lo, hi))

    param_set, var_set = {p.name for p in parameters}, {v.name for v in variables}
    if len(param_set | var_set) != len(parameters) + len(variables):
        raise ModelError("duplicate parameter/variable names")

    def read(parse, entry, field: str, where: str, allowed: set):
        """String ``field`` of ``entry`` parsed, over ``allowed`` identifiers only."""
        try:
            node = parse(_field(entry, field, "a string", where))
        except ex.ParseError as exc:
            raise ModelError(f"{where}: {field}: {exc}") from None
        unknown = ex.free_identifiers(node) - allowed
        if unknown:
            raise ModelError(f"{where}: {field} holds undeclared identifier "
                             f"{sorted(unknown)[0]}")
        return node

    commands = []
    for k, c in enumerate(_field(raw, "commands", "a list", "model", [])):
        where = f"command {k}"
        guard = read(ex.parse_guard, c, "guard", where, var_set)
        rate = read(ex.parse_expression, c, "rate", where, var_set | param_set)
        updates = _field(c, "updates", "an object", where, {})
        for var in updates:
            if var not in var_set:
                raise ModelError(f"{where} updates undeclared variable {var}")
        commands.append(Command(guard, rate, tuple(
            (var, read(ex.parse_expression, updates, var, f"{where} updates", var_set))
            for var in updates)))

    raw_labels = _field(raw, "labels", "an object", "model", {})
    labels = {label: read(ex.parse_guard, raw_labels, label, "labels", var_set)
              for label in raw_labels}
    raw_rewards = _field(raw, "rewards", "an object", "model", {})
    rewards = {reward: read(ex.parse_expression,
                            _field(raw_rewards, reward, "an object", "rewards"),
                            "states", f"reward {reward}", var_set)
               for reward in raw_rewards}

    init_distribution = _field(raw, "init_distribution", "a list", "model", None)
    if init_distribution is not None:
        entries = []
        for position, entry in enumerate(init_distribution):
            where = f"init_distribution entry {position}"
            state = _field(entry, "state", "an object", where)
            point = tuple(_field(state, v.name, "an integer", f"{where} state")
                          for v in variables)
            for v, value in zip(variables, point):
                if not v.minimum <= value <= v.maximum:
                    raise ModelError(f"{where}: state value {value} of {v.name} "
                                     f"outside [{v.minimum}, {v.maximum}]")
            text = _field(entry, "prob", "a number or fraction text", where)
            try:
                prob = Fraction(text)
            except (ValueError, OverflowError, ZeroDivisionError):  # NaN, infinite, not a fraction
                raise ModelError(f"{where}: prob {text!r} is not a fraction") from None
            if prob <= 0:
                raise ModelError(f"{where}: prob must be positive, not {prob}")
            entries.append((point, prob))
        total = sum(prob for _, prob in entries)
        if total != 1:
            raise ModelError(f"init_distribution probabilities sum to {total}, not 1")
        init_distribution = tuple(entries)

    return ParametricCtmc(_field(raw, "name", "a string", "model", "model"), tuple(parameters),
                          tuple(variables), tuple(commands), labels, rewards, init_distribution)


def parse_model(document: Union[str, dict]) -> ParametricCtmc:
    """Parse and validate a model document (JSON text or dict).

    Every field is read through ``_field``, so a malformed one raises a
    ModelError that names its entry and the field.  Checks that need the
    reachable states (update faults, the state cap and the signs of rewards)
    are made when the model compiles, on its first graph check or chain build.
    """
    if isinstance(document, str):
        try:
            document = json.loads(document, parse_float=Fraction)
        except json.JSONDecodeError as exc:
            raise ModelError(f"invalid JSON: {exc}") from None
    try:
        return _read_model(document)
    except FormatError as exc:
        raise ModelError(str(exc)) from None


def load_model(path) -> ParametricCtmc:
    """``parse_model`` on the file at ``path``; a ModelError names the file."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    try:
        return parse_model(text)
    except ModelError as exc:
        raise ModelError(f"model file {path}: {exc}") from None


# ---------------------------------------------------------------------------
# Compiled model: one rate pattern shared by all valuations
# ---------------------------------------------------------------------------

_TESTS = {"<": np.less, "<=": np.less_equal, "=": np.equal, ">=": np.greater_equal,
          ">": np.greater}


def _state_env(m: ParametricCtmc, state: tuple[int, ...]) -> dict:
    return dict(zip(m.variable_names, state))


class _Program:
    """A model's guards, updates, rates, labels and rewards as integer
    polynomials over its state variables, evaluated over many states at once.

    Each expression is expanded once and scaled by the LCM D of its
    coefficients' denominators, so D * p has integer coefficients; a rate is
    split into one such polynomial per parameter monomial (``monomials``,
    sorted), all under one D.  A polynomial is a list of (coefficient,
    variable positions) terms, and states are passed as one column per
    variable.  ``dtype`` is int64 when every intermediate is below 2**53 over
    the variable box (sum |c| * prod max(|min|, |max|, 1) ** k per polynomial,
    every D and the mixed-radix state keys), else object (Python ints).
    """

    def __init__(self, m: ParametricCtmc):
        self.variables = variables = m.variables
        positions = {v: i for i, v in enumerate(m.variable_names)}
        params = set(m.parameter_names)
        magnitude = [max(abs(v.minimum), abs(v.maximum), 1) for v in variables]
        ranges = [v.maximum - v.minimum + 1 for v in variables]
        self.radix = [math.prod(ranges[i + 1:]) for i in range(len(variables))]
        widest = [math.prod(ranges), *magnitude]

        def integer(e: ex.Expr) -> tuple[int, dict]:
            """(D, {parameter monomial: terms of its state polynomial in D * e})."""
            scale, poly = ex.scaled(ex.polynomial(e, {}))
            groups: dict = {}
            for mono, c in poly.items():
                groups.setdefault(tuple(x for x in mono if x in params), []).append(
                    (c, tuple(positions[x] for x in mono if x not in params)))
            widest.append(scale)
            widest.extend(sum(abs(c) * math.prod(magnitude[i] for i in mono) for c, mono in terms)
                          for terms in groups.values())
            return scale, groups

        def state(e: ex.Expr) -> tuple[int, list]:
            scale, groups = integer(e)
            return scale, groups.get((), [])

        def guard(g: ex.GuardExpr) -> tuple:
            if isinstance(g, ex.Cmp):
                return _TESTS[g.op], state(ex.BinOp("-", g.left, g.right))[1]
            combine = np.logical_and if isinstance(g, ex.And) else np.logical_or
            return combine, guard(g.left), guard(g.right)

        rates = [integer(command.rate) for command in m.commands]
        self.monomials = sorted(set().union(*(groups for _, groups in rates)))
        self.commands = [
            (guard(command.guard),
             [(positions[var], *state(update)) for var, update in command.updates],
             scale, [(self.monomials.index(mono), groups[mono]) for mono in sorted(groups)])
            for command, (scale, groups) in zip(m.commands, rates)]
        self.labels = [guard(g) for g in m.labels.values()]
        self.rewards = [state(r) for r in m.rewards.values()]
        self.dtype = np.int64 if max(widest) < 2**53 else object

    def value(self, terms: list, columns: list, n: int) -> np.ndarray:
        """D * p at the n states of ``columns``, read-only: a term that is
        one variable is that variable's column."""
        total = None
        for c, mono in terms:
            term = c if not mono else columns[mono[0]] if c == 1 else c * columns[mono[0]]
            for i in mono[1:]:
                term = term * columns[i]
            total = term if total is None else total + term
        return total if isinstance(total, np.ndarray) else np.full(n, total or 0, self.dtype)

    def holds(self, guard: tuple, columns: list, n: int) -> np.ndarray:
        if len(guard) == 2:
            test, terms = guard
            return test(self.value(terms, columns, n), 0)
        combine, left, right = guard
        return combine(self.holds(left, columns, n), self.holds(right, columns, n))

    def keys(self, columns: list, n: int) -> np.ndarray:
        """Each state's mixed-radix key, in the order of the state tuples."""
        key = np.zeros(n, self.dtype)
        for column, v, r in zip(columns, self.variables, self.radix):
            key += (column - v.minimum) * r
        return key

    def columns(self, keys: np.ndarray) -> list:
        """The states of mixed-radix ``keys``, one column per variable."""
        return [keys // r % (v.maximum - v.minimum + 1) + v.minimum
                for v, r in zip(self.variables, self.radix)]

    def updates(self, c: int, columns: list, n: int) -> Iterator[tuple]:
        """Command c's updates at the n states of ``columns``, each as
        (variable position, new value, not integer, out of bounds); every
        update reads the old state."""
        for i, d, terms in self.commands[c][1]:
            value = self.value(terms, columns, n)
            fraction = value % d != 0 if d > 1 else np.zeros(n, dtype=bool)
            value = value // d if d > 1 else value
            var = self.variables[i]
            yield i, value, fraction, (value < var.minimum) | (value > var.maximum)

    def successors(self, c: int, columns: list, key: np.ndarray, n: int):
        """Command c at the n states of ``columns`` with keys ``key``: where
        its guard holds, its successors' keys and where an update is faulty."""
        bad = np.zeros(n, dtype=bool)
        for i, value, fraction, outside in self.updates(c, columns, n):
            key = key + (value - columns[i]) * self.radix[i]
            bad |= fraction | outside
        return self.holds(self.commands[c][0], columns, n), key, bad

    def fault(self, c: int, state: tuple) -> str:
        """The message of command c's first faulty update at ``state``."""
        columns = [np.array([x], self.dtype) for x in state]
        i, value, fraction, _ = next(update for update in self.updates(c, columns, 1)
                                     if update[2][0] or update[3][0])
        var = self.variables[i]
        if fraction[0]:
            return f"update of {var.name} is not integer at state {state}"
        return (f"update of {var.name} to {int(value[0])} leaves bounds "
                f"[{var.minimum}, {var.maximum}] at state {state}")

    def rate(self, c: int, columns: list, n: int):
        """Command c's rate at the n states of ``columns``: each edge's
        coefficient and kernel row.  A kernel row is every monomial's
        (numerator, denominator), in lowest terms, of the rate over |its lowest
        nonzero monomial|, which divided by D is the coefficient."""
        _, _, scale, rate = self.commands[c]
        values = [self.value(terms, columns, n) for _, terms in rate]
        lead = np.zeros(n, self.dtype)
        for value in reversed(values):
            lead = np.where(value != 0, value, lead)
        lead = np.where(lead == 0, scale, np.abs(lead))  # a zero rate keeps coefficient 1
        width = len(self.monomials)
        kernel = np.zeros((n, 2 * width), self.dtype)
        kernel[:, width:] = 1
        for (j, _), value in zip(rate, values):
            common = np.gcd(value, lead)
            kernel[:, j] = value // common
            kernel[:, width + j] = lead // common
        return np.asarray(lead / scale, dtype=float), kernel


class _Table:
    """A model compiled into flat arrays over its reachable states.

    ``states`` is in BFS order from the initial support (the first ``roots``).
    Each enabled edge, in (state, command) order, has a ``source``, ``target``,
    ``coefficient``, ``kernel`` and ``command``: at a fixed state a rate is a
    parameter polynomial, stored as coefficient * kernel (the polynomial over
    its first monomial's |coefficient|).  ``indptr``/``indices`` is the merged
    CSR pattern, columns ascending; ``entry`` maps each edge onto it.

    The BFS runs one level at a time, each command over the whole frontier
    in the exact integer arithmetic of ``_Program``, on a (state, command)
    grid of guards, update faults and successor keys.  Its enabled cells,
    row-major, are the level's edges in (source, command) order; a dict from
    key to state numbers new targets by first occurrence, which is the order
    of a state-by-state BFS.  An update fault (ModelError) or a new state
    past ``state_cap`` (StateCapExceeded) is raised at the first offending
    (state, command) in that order; on one edge the fault wins.  After the
    BFS each command's coefficients and kernel rows are evaluated over all of
    its edges at once, and one stable lexsort numbers equal kernel rows by
    their first edge.  ``coefficient`` and ``rewards`` are int / int
    divisions, so each is the exact rational correctly rounded.

    After the BFS, a reward that is negative at a reachable state raises
    ModelError at the first such state, in BFS and then declaration order.
    """

    def __init__(self, m: ParametricCtmc, state_cap: int):
        program = _Program(m)
        dtype, nc, width = program.dtype, len(m.commands), len(program.monomials)
        roots = list(dict.fromkeys(point for point, _ in m.initial_states()))
        frontier = [np.array(column, dtype) for column in zip(*roots)]
        keys = program.keys(frontier, len(roots))
        index = dict(zip(keys.tolist(), range(len(roots))))  # key -> state, in BFS order
        edges = [(np.zeros(0, np.int64),) * 3]
        while keys.size and nc:
            # a (frontier state, command) grid, row-major in (state, command) order
            enabled, key, bad = (np.stack(part, axis=1).ravel() for part in zip(
                *(program.successors(c, frontier, keys, keys.size) for c in range(nc))))
            edge = np.flatnonzero(enabled)
            bad &= enabled
            fault = int(np.argmax(bad)) if bad.any() else None
            if fault is not None:  # keep the edges before the first faulty one
                edge = edge[:np.searchsorted(edge, fault)]
            count = len(index)
            target = [index.setdefault(k, len(index)) for k in key[edge].tolist()]
            if len(index) > count and len(index) > state_cap:
                raise StateCapExceeded(f"state cap of {state_cap} exceeded")
            if fault is not None:
                state = tuple(int(column[fault // nc]) for column in frontier)
                raise ModelError(program.fault(fault % nc, state))
            edges.append((count - keys.size + edge // nc, np.array(target, np.int64),
                          edge % nc))
            # the level's new states are the keys numbered last
            keys = np.array([*itertools.islice(reversed(index), len(index) - count)][::-1], dtype)
            frontier = program.columns(keys)

        n = len(index)
        columns = program.columns(np.array(list(index), dtype))
        self.states = [*zip(*(column.tolist() for column in columns))] or [()]  # no variables: ()
        self.roots = len(roots)
        self.source, self.target, self.command = (np.concatenate(c) for c in zip(*edges))
        self.coefficient = np.zeros(self.source.size)
        kernel = np.zeros((self.source.size, 2 * width), dtype)
        for c in range(nc):  # each command's rate over all of its edges
            on = np.flatnonzero(self.command == c)
            self.coefficient[on], kernel[on] = program.rate(
                c, [column[self.source[on]] for column in columns], on.size)
        # kernel rows numbered by first edge; the sort is stable, so each run of
        # equal rows starts at its first edge (the zero key serves width 0)
        order = np.lexsort([np.zeros(len(kernel)), *kernel.T])
        ordered = kernel[order]
        start = np.ones(len(kernel), dtype=bool)
        start[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
        first = np.empty(len(kernel), np.int64)
        first[order] = order[start][np.cumsum(start) - 1]
        first, self.kernel = np.unique(first, return_inverse=True)
        self.kernels = [tuple((mono, Fraction(row[j], row[width + j]))
                              for j, mono in enumerate(program.monomials) if row[j])
                        for row in kernel[first].tolist()]

        pattern, self.entry = np.unique(self.source * n + self.target, return_inverse=True)
        idx = np.int32 if max(n, pattern.size) < 2**31 else np.int64
        self.indptr = np.searchsorted(pattern // n, np.arange(n + 1)).astype(idx)
        self.indices = (pattern % n).astype(idx)

        position = {p: i for i, p in enumerate(roots)}
        points, probs = zip(*m.initial_states())
        self.initial = np.bincount([position[p] for p in points], [float(q) for q in probs],
                                   minlength=n)
        self.labels = {name: program.holds(g, columns, n)
                       for name, g in zip(m.labels, program.labels)}
        values = [program.value(terms, columns, n) for _, terms in program.rewards]
        negative = np.array([v < 0 for v in values], dtype=bool).reshape(-1, n)
        if negative.any():
            first = int(np.argmax(negative.any(axis=0)))
            name = list(m.rewards)[int(np.argmax(negative[:, first]))]
            raise ModelError(f"reward {name} is negative at reachable state "
                             f"{self.states[first]}; rewards must be nonnegative")
        self.rewards = {name: np.asarray(v / d, dtype=float)
                        for name, (d, _), v in zip(m.rewards, program.rewards, values)}
        for shared in (self.indptr, self.indices, self.initial, *self.labels.values(),
                       *self.rewards.values()):  # every full chain holds these
            shared.flags.writeable = False


_tables: "weakref.WeakKeyDictionary[ParametricCtmc, _Table]" = weakref.WeakKeyDictionary()


class _Instance:
    """The compiled model at one valuation.  Each kernel is evaluated once,
    exactly: its sign decides graph preservation, its float value gives rates,
    which are merged only when a chain build reads them."""

    def __init__(self, m: ParametricCtmc, u: Valuation):
        if u.dimension != len(m.parameters):
            raise ModelError(
                f"valuation has dimension {u.dimension}, model has {len(m.parameters)} parameters")
        self.m = m
        self.env = dict(zip(m.parameter_names, u.values))
        # compiled once per model, under the state cap of that moment
        self.table = t = _tables.get(m) or _tables.setdefault(m, _Table(m, DEFAULT_STATE_CAP))
        exact = [sum((c * math.prod(self.env[x] for x in mono) for mono, c in kernel),
                     Fraction(0)) for kernel in t.kernels]
        self.positive = np.array([value > 0 for value in exact], dtype=bool)
        self.values = np.array([float(value) for value in exact])

    @functools.cached_property
    def rates(self) -> np.ndarray:
        """One merged rate per pattern entry, computed on first read; parallel
        edges add up in command order."""
        t = self.table
        return np.bincount(t.entry, t.coefficient * self.values[t.kernel],
                           minlength=t.indices.size)

    def violation(self) -> Optional[str]:
        """The first edge, in BFS order, whose rate is <= 0; None if there
        is none."""
        t = self.table
        bad = ~self.positive[t.kernel]
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

def graph_preservation_violation(m: ParametricCtmc, u: Valuation) -> Optional[str]:
    """None if u is graph-preserving, else the first violation in BFS order."""
    return _Instance(m, u).violation()


def check_graph_preserving(m: ParametricCtmc, u: Valuation) -> bool:
    """True iff no reachable transition rate becomes <= 0 at u (exact check)."""
    return graph_preservation_violation(m, u) is None


# ---------------------------------------------------------------------------
# Explicit-state CTMCs
# ---------------------------------------------------------------------------

class ConcreteCtmc:
    """Explicit CTMC: indexed states, positive rates in CSR arrays, label sets.

    ``data``, ``indices`` and ``indptr`` hold the rate matrix row by row in
    scipy's CSR layout; ``rates`` is that matrix as a scipy ``csr_matrix``,
    built on first read.  ``exit_rates[s]`` is the full row sum including
    self-loops; self-loops are semantically inert for CTMCs and are kept only
    so transition counts match the source model.
    """

    def __init__(self, states, initial, rates, labels=None, rewards=None):
        """``rates`` is the triple (data, indices, indptr)."""
        self.states = states
        self.initial = np.asarray(initial, dtype=float)
        data, self.indices, self.indptr = rates
        self.data = np.asarray(data, dtype=float)
        self.labels = {k: np.asarray(v, dtype=bool) for k, v in (labels or {}).items()}
        self.rewards = {k: np.asarray(v, dtype=float) for k, v in (rewards or {}).items()}

    @classmethod
    def from_dense(cls, rates, initial, labels=None, rewards=None) -> "ConcreteCtmc":
        rates = np.asarray(rates, dtype=float)
        n = rates.shape[0]
        rows, cols = np.nonzero(rates)
        indptr = np.searchsorted(rows, np.arange(n + 1))
        states = [(i,) for i in range(n)]
        return cls(states, initial, (rates[rows, cols], cols, indptr), labels, rewards)

    @functools.cached_property
    def rates(self):
        """The rate matrix as a scipy ``csr_matrix`` on the chain's arrays,
        built on first read."""
        from scipy import sparse

        n = len(self.indptr) - 1
        return sparse.csr_matrix((self.data, self.indices, self.indptr), shape=(n, n))

    @functools.cached_property
    def exit_rates(self) -> np.ndarray:
        """Row sums, computed on first read: one ``np.add.reduceat`` over the
        nonempty rows, which is how scipy's ``rates.sum(axis=1)`` adds them."""
        sums = np.zeros(len(self.indptr) - 1)
        rows = np.flatnonzero(np.diff(self.indptr))
        sums[rows] = np.add.reduceat(self.data, self.indptr[rows])
        return sums

    @functools.cached_property
    def leaving_rates(self) -> np.ndarray:
        """``exit_rates - diagonal()``, each state's rate of leaving it,
        computed on first read: the checker's kernel rule reads it once per
        absorbing set."""
        return self.exit_rates - self.diagonal()

    def diagonal(self) -> np.ndarray:
        """Each state's self-loop rate, 0.0 without one."""
        rows = self._rows()
        loop = self.indices == rows
        return np.bincount(rows[loop], self.data[loop],
                           minlength=len(self.indptr) - 1).astype(float)

    def _rows(self) -> np.ndarray:
        """The row of each stored entry."""
        return np.repeat(np.arange(len(self.indptr) - 1), np.diff(self.indptr))

    @property
    def num_states(self) -> int:
        return len(self.states)

    @property
    def num_transitions(self) -> int:
        return int(self.indptr[-1])

    def edges(self) -> Iterator[tuple[int, int, float]]:
        yield from zip(self._rows().tolist(), self.indices.tolist(), self.data.tolist())

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


def build_full(m: ParametricCtmc, u: Valuation) -> ConcreteCtmc:
    """Instantiate at u and build the full reachable CTMC (BFS order).

    Raises GraphPreservationError at the first transition, in BFS order,
    whose rate is <= 0 at u.  The chain shares the model's read-only arrays.
    """
    inst = _Instance(m, u)
    reason = inst.violation()
    if reason is not None:
        raise GraphPreservationError(reason)
    t = inst.table
    return ConcreteCtmc(t.states, t.initial, (inst.rates, t.indices, t.indptr),
                        t.labels, t.rewards)


# Partial chains were removed.  The name stays only because perfbench/tracer.py
# looks it up; ROADMAP item 10 drops that row, and this stub with it.
def build_partial(*args, **kwargs):
    raise ModelError("partial chains were removed")
