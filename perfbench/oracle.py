"""Independent reference computations for the benchmark.

Nothing here imports ``uctmc``.  The chains are rebuilt from hand-written
Python versions of the bundled models (the model file is only checked to
still declare the commands this module assumes), and transient measures are
computed with matrix exponentials instead of uniformization:

* dense ``scipy.linalg.expm`` (Pade scaling and squaring) for the small
  chains, evaluated on every run;
* sparse ``scipy.sparse.linalg.expm_multiply`` (Al-Mohy & Higham 2011) for
  sir140, stored once by ``make_reference.py`` because one valuation takes
  about a minute.

Interval reachability uses the two-phase definition of the measure: run to
t1 with the target absorbing, drop the mass that already sits in the target,
then the first-passage probability into the target within t2 - t1.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy import sparse
from scipy.linalg import expm
from scipy.optimize import linprog
from scipy.sparse.linalg import expm_multiply


class OracleError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Hand-written models
# ---------------------------------------------------------------------------

# (guard, rate, update) over a state tuple and a parameter dict.
_Cmd = tuple[Callable, Callable, Callable]

_SIR_COMMANDS: list[_Cmd] = [
    (lambda s, i, r: s > 0 and i > 0, lambda st, p: p["ki"] * st[0] * st[1],
     lambda s, i, r: (s - 1, i + 1, r)),
    (lambda s, i, r: i > 0, lambda st, p: p["kr"] * st[1],
     lambda s, i, r: (s, i - 1, r + 1)),
    (lambda s, i, r: i == 0, lambda st, p: 1.0,
     lambda s, i, r: (s, i, r)),
]
_SIR_SOURCE = [
    ("S>0 & I>0", "ki*S*I", {"S": "S-1", "I": "I+1"}),
    ("I>0", "kr*I", {"I": "I-1", "R": "R+1"}),
    ("I=0", "1", {}),
]

_BUFFER_COMMANDS: list[_Cmd] = [
    (lambda p, s, f, d: p < 4, lambda st, q: q["lg"],
     lambda p, s, f, d: (p + 1, s, f, d)),
    (lambda p, s, f, d: p > 0 and s < 2, lambda st, q: 0.6 * q["lt"],
     lambda p, s, f, d: (p - 1, s + 1, f, d)),
    (lambda p, s, f, d: p > 0 and f < 1, lambda st, q: 0.4 * q["lt"] * (1.0 - q["closs"]),
     lambda p, s, f, d: (p - 1, s, f + 1, d)),
    (lambda p, s, f, d: p > 0 and f < 1, lambda st, q: 0.4 * q["lt"] * q["closs"],
     lambda p, s, f, d: (p - 1, s, f, d)),
    (lambda p, s, f, d: s > 0 and d < 3, lambda st, q: q["lslow"],
     lambda p, s, f, d: (p, s - 1, f, d + 1)),
    (lambda p, s, f, d: f > 0 and d < 3, lambda st, q: q["lslow"] + q["ldelta"],
     lambda p, s, f, d: (p, s, f - 1, d + 1)),
    (lambda p, s, f, d: d > 0, lambda st, q: q["lc"],
     lambda p, s, f, d: (p, s, f, d - 1)),
]
_BUFFER_SOURCE = [
    ("p<4", "lg", {"p": "p+1"}),
    ("p>0 & s<2", "0.6*lt", {"p": "p-1", "s": "s+1"}),
    ("p>0 & f<1", "0.4*lt*(1-closs)", {"p": "p-1", "f": "f+1"}),
    ("p>0 & f<1", "0.4*lt*closs", {"p": "p-1"}),
    ("s>0 & d<3", "lslow", {"s": "s-1", "d": "d+1"}),
    ("f>0 & d<3", "lslow+ldelta", {"f": "f-1", "d": "d+1"}),
    ("d>0", "lc", {"d": "d-1"}),
]

_MODELS = {
    "sir": (_SIR_COMMANDS, _SIR_SOURCE,
            {"extinct": lambda s, i, r: i == 0},
            {"infected": lambda s, i, r: i}),
    "buffer": (_BUFFER_COMMANDS, _BUFFER_SOURCE,
               {"both_busy": lambda p, s, f, d: s > 1 and f > 0},
               {"buffered": lambda p, s, f, d: s + f,
                "delivered": lambda p, s, f, d: d}),
}


@dataclass
class Chain:
    """Explicit CTMC: off-diagonal rates (self-loops dropped), labels, rewards."""

    rates: sparse.csr_matrix
    initial: np.ndarray
    labels: dict
    rewards: dict

    def generator(self, absorbing: np.ndarray | None = None) -> sparse.csr_matrix:
        rates = self.rates
        if absorbing is not None:
            rates = sparse.diags((~absorbing).astype(float)) @ rates
        exit_rates = np.asarray(rates.sum(axis=1)).ravel()
        return (rates - sparse.diags(exit_rates)).tocsr()


def _kind(doc: dict) -> str:
    names = [v["name"] for v in doc["variables"]]
    if names == ["S", "I", "R"]:
        return "sir"
    if names == ["p", "s", "f", "d"]:
        return "buffer"
    raise OracleError(f"no hand-written version of model {doc.get('name')!r}")


def build_chain(model_doc: dict, valuation: Sequence[float]) -> Chain:
    """Reachable CTMC of a bundled model at a valuation (floats, model order)."""
    kind = _kind(model_doc)
    commands, source, labels, rewards = _MODELS[kind]
    declared = [(c["guard"], c["rate"], c.get("updates", {})) for c in model_doc["commands"]]
    if declared != source:
        raise OracleError(f"model {model_doc['name']} no longer matches the oracle's copy")
    params = dict(zip([p["name"] for p in model_doc["parameters"]], valuation))
    init = tuple(v["init"] for v in model_doc["variables"])
    bounds = [(v["min"], v["max"]) for v in model_doc["variables"]]

    index = {init: 0}
    states = [init]
    edges: dict = {}
    cursor = 0
    while cursor < len(states):
        state = states[cursor]
        for guard, rate, update in commands:
            if not guard(*state):
                continue
            target = update(*state)
            if any(not lo <= x <= hi for x, (lo, hi) in zip(target, bounds)):
                raise OracleError(f"update leaves the variable bounds at {state}")
            value = rate(state, params)
            if value <= 0.0:
                raise OracleError(f"rate {value} <= 0 at {state}")
            if target not in index:
                index[target] = len(states)
                states.append(target)
            key = (cursor, index[target])
            edges[key] = edges.get(key, 0.0) + value
        cursor += 1

    n = len(states)
    off = [(a, b, v) for (a, b), v in edges.items() if a != b]
    rows, cols, vals = (list(x) for x in zip(*off)) if off else ([], [], [])
    rates = sparse.csr_matrix((vals, (rows, cols)), shape=(n, n))
    initial = np.zeros(n)
    initial[0] = 1.0
    return Chain(
        rates, initial,
        {k: np.array([bool(f(*s)) for s in states]) for k, f in labels.items()},
        {k: np.array([float(f(*s)) for s in states]) for k, f in rewards.items()})


# ---------------------------------------------------------------------------
# Transient measures
# ---------------------------------------------------------------------------

class _DenseFlow:
    """v -> v expm(Q t) with dense Pade exponentials, cached per step length.

    Step lengths are keyed to 1e-12: on the sir horizon family consecutive
    window ends differ by 100/26 up to float rounding, so one exponential
    serves all 26 steps at a total time error below 2e-11, far inside epsilon.
    """

    def __init__(self, q: sparse.csr_matrix):
        self.q = q.toarray()
        self.cache: dict = {}

    def __call__(self, v: np.ndarray, t: float) -> np.ndarray:
        key = round(t, 12)
        if key not in self.cache:
            self.cache[key] = expm(self.q * key)
        return v @ self.cache[key]


class _SparseFlow:
    """v -> v expm(Q t) through expm_multiply on Q^T (exact step lengths)."""

    def __init__(self, q: sparse.csr_matrix):
        self.qt = q.transpose().tocsr()

    def __call__(self, v: np.ndarray, t: float) -> np.ndarray:
        return expm_multiply(self.qt * t, v)


def measure_values(chain: Chain, measures_doc: dict, dense: bool = True) -> np.ndarray:
    """Values of interval-reach and instant-reward measures, in file order."""
    flow_cls = _DenseFlow if dense else _SparseFlow
    entries = measures_doc["measures"]
    out = np.full(len(entries), np.nan)

    windows: dict = {}
    for pos, m in enumerate(entries):
        if m["type"] == "reach_interval":
            windows.setdefault((m["target"], float(m["t1"])), []).append(pos)
        elif m["type"] == "instant_reward":
            flow = flow_cls(chain.generator())
            pi = flow(chain.initial, float(m["t"]))
            out[pos] = float(pi @ chain.rewards[m["reward"]])
        else:
            raise OracleError(f"measure type {m['type']!r} has no oracle")

    for (target, t1), positions in windows.items():
        mask = chain.labels[target]
        flow = flow_cls(chain.generator(absorbing=mask))
        v = chain.initial.copy()
        if t1 > 0.0:
            v = flow(v, t1)
            v[mask] = 0.0
        clock = t1
        for pos in sorted(positions, key=lambda p: float(entries[p]["t2"])):
            t2 = float(entries[pos]["t2"])
            if t2 > clock:
                v = flow(v, t2 - clock)
                clock = t2
            out[pos] = float(v[mask].sum())
    return out


# ---------------------------------------------------------------------------
# Scenario stage: LP and the eta equation
# ---------------------------------------------------------------------------

def lp_faces(lower: np.ndarray, upper: np.ndarray, rho: float) -> tuple[np.ndarray, np.ndarray]:
    """Box faces from the region LP, one HiGHS solve per dimension.

    minimize (xbar - xlow) + rho * sum_i (xi+_i + xi-_i)
    s.t.     upper_i - xbar <= xi+_i,  xlow - lower_i <= xi-_i,  xi >= 0.
    With lower == upper this is the precise box LP (a sample cannot violate
    both faces of a nonempty box); otherwise it is the imprecise variant that
    bounds the upper face by upper bounds and the lower face by lower bounds.
    """
    n, m = lower.shape
    xlow, xbar = np.empty(m), np.empty(m)
    # variables: xbar, xlow, xi+ (n), xi- (n)
    cost = np.concatenate([[1.0, -1.0], np.full(2 * n, rho)])
    eye = sparse.identity(n, format="csr")
    a_ub = sparse.vstack([
        sparse.hstack([sparse.csr_matrix(np.full((n, 1), -1.0)),
                       sparse.csr_matrix((n, 1)), -eye, sparse.csr_matrix((n, n))]),
        sparse.hstack([sparse.csr_matrix((n, 1)),
                       sparse.csr_matrix(np.full((n, 1), 1.0)),
                       sparse.csr_matrix((n, n)), -eye]),
    ]).tocsr()
    bounds = [(None, None), (None, None)] + [(0.0, None)] * (2 * n)
    for r in range(m):
        b_ub = np.concatenate([-upper[:, r], lower[:, r]])
        res = linprog(cost, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
        if res.status != 0:
            raise OracleError(f"LP for dimension {r} failed: {res.message}")
        xbar[r], xlow[r] = res.x[0], res.x[1]
    return xlow, xbar


def _log_binom(a: int, b: int) -> float:
    return math.lgamma(a + 1) - math.lgamma(b + 1) - math.lgamma(a - b + 1)


def eta_residual(n: int, d: int, beta: float, t: float) -> float:
    """log LHS - log RHS of C(n,d) t^(n-d) = (1-beta)/n sum_{i=d}^{n-1} C(i,d) t^(i-d).

    Negative below the root, positive above it.
    """
    log_t = math.log(t)
    lhs = _log_binom(n, d) + (n - d) * log_t
    terms = [_log_binom(i, d) + (i - d) * log_t for i in range(d, n)]
    top = max(terms)
    rhs = math.log((1.0 - beta) / n) + top + math.log(sum(math.exp(x - top) for x in terms))
    return lhs - rhs


def eta_solves_equation(n: int, d: int, beta: float, eta: float, tol: float = 1e-8) -> bool:
    """True iff eta lies in [0, 1) and brackets the root of its equation to tol."""
    if not 0.0 <= eta < 1.0:
        return False
    if d == n:
        return eta == 0.0
    below = max(eta - tol, 1e-300)
    above = min(eta + tol, 1.0)
    return eta_residual(n, d, beta, below) < 0.0 < eta_residual(n, d, beta, above)


def load_json(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def dump_json(obj, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(obj, handle, indent=1)
        handle.write("\n")
