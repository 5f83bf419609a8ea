"""Uniformization-based model checking of time-bounded measures.

Supported measures: time-bounded reachability of a label within a horizon,
interval reachability (first visit to the label inside a time window, staying
outside the label until then), and instantaneous expected reward at a time
point.  Transient distributions are computed by uniformization: with
Lambda >= max leaving rate, pi_t = sum_k Poi(Lambda*t; k) * pi_0 P^k where
P = I + Q/Lambda.  One stepping routine (``_iterates``) produces the power
sequence for every measure kind.  It steps in place: each step is one call of
scipy's CSR mat-vec kernel into one of two preallocated buffers that take
turns, so an iterate it yields is valid only until the next step.

Error budget of one uniformization pass of K steps over n states:

* Poisson truncation: weights are accumulated by a stable mode-outward
  recurrence and cut once terms fall below 1e-30 of the peak; the retained
  weights are renormalized.  The cut does not depend on ``epsilon``, and the
  discarded mass is far below any supported tolerance.
* Subnormal flush: draining mass leaves thousands of subnormal entries, which
  make every sparse mat-vec many times slower.  Every 64 steps the entries of
  the iterate below 1e-280 are set to zero.  The iterate is nonnegative
  (P = I + Q/Lambda is), so one flush removes at most n * 1e-280 of mass and
  the pass at most n * ceil(K/64) * 1e-280.  Under the 10^7-state cap and
  for any pass shorter than 10^20 steps that is below 1e-250, far below
  ``MIN_EPSILON``.

On partial models the truncated sink (the last state) bounds every measure
from both sides.  The lower bound treats the sink as a non-target with reward
zero; the upper bound counts it as a target with the worst-case reward.  The
sink's row is empty, so making it absorbing changes neither P, Lambda nor the
Poisson weights, and one pass yields both bounds: upper = lower + the sink's
share (its Poisson-weighted mass for reach and interval measures,
pi_t[sink] * worst-case reward for rewards).  Each bound is the same
Poisson-weighted sum a separate pass would compute, so both keep the
``epsilon`` contract, and upper >= lower holds by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np
from scipy import sparse
from scipy.sparse._sparsetools import csr_matvec

from .model import (
    ConcreteCtmc,
    ParametricCtmc,
    Valuation,
    build_full,
    build_partial,
    cluster_valuations,
)
from . import expr as ex

MIN_EPSILON = 1e-12
_POISSON_CUTOFF = 1e-30
_FLUSH_BELOW = 1e-280
_FLUSH_EVERY = 64
_DELTA_FLOOR = 1e-250


class CheckerError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Measures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TimeBoundedReach:
    id: str
    target: str
    horizon: float

    def __post_init__(self):
        if self.horizon < 0:
            raise CheckerError(f"measure {self.id}: horizon must be >= 0")


@dataclass(frozen=True)
class IntervalReach:
    id: str
    target: str
    t_lo: float
    t_hi: float

    def __post_init__(self):
        if not 0 <= self.t_lo <= self.t_hi:
            raise CheckerError(f"measure {self.id}: need 0 <= t1 <= t2")


@dataclass(frozen=True)
class InstantReward:
    id: str
    reward: str
    time: float

    def __post_init__(self):
        if self.time < 0:
            raise CheckerError(f"measure {self.id}: time must be >= 0")


Measure = Union[TimeBoundedReach, IntervalReach, InstantReward]


@dataclass(frozen=True)
class MeasureSet:
    """Ordered measures; solution vectors are indexed in this order."""

    measures: tuple[Measure, ...]

    def __post_init__(self):
        ids = [m.id for m in self.measures]
        if len(set(ids)) != len(ids):
            raise CheckerError("measure ids must be unique")

    def __len__(self) -> int:
        return len(self.measures)

    def __iter__(self):
        return iter(self.measures)

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(m.id for m in self.measures)


@dataclass(eq=False)
class SolutionVector:
    valuation_index: int
    values: np.ndarray


@dataclass(eq=False)
class IntervalSolution:
    valuation_index: int
    lower: np.ndarray
    upper: np.ndarray
    delta: float
    gap_met: bool = True

    @property
    def width(self) -> np.ndarray:
        return self.upper - self.lower


# ---------------------------------------------------------------------------
# Uniformization core
# ---------------------------------------------------------------------------

def _check_epsilon(epsilon: float):
    if epsilon < MIN_EPSILON:
        raise CheckerError(f"epsilon {epsilon} below float accumulation limit {MIN_EPSILON}")
    if epsilon <= 0:
        raise CheckerError("epsilon must be positive")


def _mask(c: ConcreteCtmc, target: Union[str, np.ndarray]) -> np.ndarray:
    if isinstance(target, str):
        return c.label_mask(target)
    return np.asarray(target, dtype=bool)


def _uniformized(c: ConcreteCtmc, absorbing: Optional[np.ndarray] = None):
    """Transposed uniformized DTMC matrix and the uniformization rate.

    Rows of absorbing states are frozen (their outflow removed); self-loops
    cancel in the generator, so they never affect the result.
    """
    rates = c.rates
    n = rates.shape[0]
    if absorbing is not None and absorbing.any():
        keep = sparse.diags((~absorbing).astype(float))
        rates = keep @ rates
    row_sums = np.asarray(rates.sum(axis=1)).ravel()
    diag = rates.diagonal()
    leaving = row_sums - diag
    lam = float(leaving.max()) if n else 0.0
    if lam <= 0.0:
        return None, 0.0
    q = rates - sparse.diags(row_sums)
    p = sparse.identity(n, format="csr") + q.tocsr() / lam
    return p.transpose().tocsr(), lam


def _poisson_terms(lam_t: float, epsilon: float) -> tuple[int, np.ndarray]:
    """Left truncation point and renormalized Poisson(lam_t) weights."""
    if lam_t <= 0.0:
        return 0, np.array([1.0])
    mode = int(lam_t)
    right = [1.0]
    w, k = 1.0, mode
    while w > _POISSON_CUTOFF:
        k += 1
        w *= lam_t / k
        right.append(w)
    left = []
    w, k = 1.0, mode
    while k > 0:
        w *= k / lam_t
        k -= 1
        if w <= _POISSON_CUTOFF:
            break
        left.append(w)
    weights = np.array(left[::-1] + right)
    weights /= weights.sum()
    return mode - len(left), weights


def _iterates(pt: sparse.csr_matrix, v: np.ndarray, skip: int, count: int):
    """Yield ``count`` successive iterates (P^T)^k v, from k = ``skip`` on.

    Each step calls scipy's CSR mat-vec kernel directly on two preallocated
    buffers that take turns, so a yielded array is valid only until the
    generator resumes: use or copy it before asking for the next one.  Every
    ``_FLUSH_EVERY`` steps the entries below ``_FLUSH_BELOW`` are set to zero
    (see the module docstring for the mass this may remove).
    """
    n = pt.shape[0]
    indptr, indices, data = pt.indptr, pt.indices, pt.data
    v = np.array(v, dtype=float)
    spare = np.empty_like(v)
    for k in range(skip + count):
        if k:
            # the kernel adds P^T v into its output buffer
            spare.fill(0.0)
            csr_matvec(n, n, indptr, indices, data, v, spare)
            v, spare = spare, v
            if not k % _FLUSH_EVERY:
                v[v < _FLUSH_BELOW] = 0.0
        if k >= skip:
            yield v


def _transient(uni, v: np.ndarray, t: float, epsilon: float) -> np.ndarray:
    """pi_t from pi_0 = v, on the uniformized chain ``uni`` = (P^T, Lambda)."""
    pt, lam = uni
    if t == 0.0 or lam == 0.0:
        return v
    k_lo, weights = _poisson_terms(lam * t, epsilon)
    out = np.zeros_like(v)
    for w, x in zip(weights, _iterates(pt, v, k_lo, len(weights))):
        out += w * x
    return out


def transient_distribution(c: ConcreteCtmc, t: float, epsilon: float = 1e-6,
                           initial: Optional[np.ndarray] = None,
                           absorbing: Optional[np.ndarray] = None) -> np.ndarray:
    """Transient distribution pi_t with L1 error below epsilon."""
    _check_epsilon(epsilon)
    if t < 0:
        raise CheckerError("t must be >= 0")
    v = np.array(c.initial if initial is None else initial, dtype=float)
    if t == 0.0:
        return v
    return _transient(_uniformized(c, absorbing), v, t, epsilon)


def _first_passage(uni, start: np.ndarray, targets: np.ndarray,
                   horizons: Sequence[float], epsilon: float,
                   sink: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """P(first visit to targets within each horizon); the targets must be
    absorbing in the uniformized chain ``uni``.

    One power-sequence pass serves every horizon: the target mass after k
    jumps is shared, only the Poisson weights differ per horizon.  Returns
    (probabilities, probabilities with the sink counted as a target).  With
    ``sink`` the last state is a partial chain's absorbing sink and the pass
    also tracks its mass; without, the two arrays are equal.
    """
    _check_epsilon(epsilon)
    horizons = np.asarray(horizons, dtype=float)
    if np.any(horizons < 0):
        raise CheckerError("horizons must be >= 0")
    pt, lam = uni
    base = float(start[targets].sum()) if targets.any() else 0.0
    sink_base = float(start[-1]) if sink else 0.0
    if lam == 0.0 or horizons.size == 0:
        return np.full(horizons.shape, base), np.full(horizons.shape, base + sink_base)

    terms = [_poisson_terms(lam * t, epsilon) for t in horizons]
    k_max = max(k_lo + len(w) - 1 for k_lo, w in terms)
    indicator = targets.astype(float)
    target_mass = np.empty(k_max + 1)
    sink_mass = np.zeros(k_max + 1)
    for k, x in enumerate(_iterates(pt, start, 0, k_max + 1)):
        target_mass[k] = indicator @ x
        if sink:
            sink_mass[k] = x[-1]

    lower = np.empty(horizons.shape)
    upper = np.empty(horizons.shape)
    for j, (k_lo, weights) in enumerate(terms):
        if horizons[j] == 0.0:
            lower[j], upper[j] = base, base + sink_base
        else:
            window = slice(k_lo, k_lo + len(weights))
            lower[j] = weights @ target_mass[window]
            upper[j] = lower[j] + weights @ sink_mass[window]
    return np.clip(lower, 0.0, None), np.clip(upper, 0.0, None)


def reach_probabilities(c: ConcreteCtmc, target: Union[str, np.ndarray],
                        horizons: Sequence[float], epsilon: float = 1e-6,
                        initial: Optional[np.ndarray] = None) -> np.ndarray:
    """Time-bounded reachability for a family of horizons (one shared pass)."""
    mask = _mask(c, target)
    start = c.initial if initial is None else initial
    values, _ = _first_passage(_uniformized(c, mask), start, mask, horizons, epsilon)
    return np.clip(values, 0.0, 1.0)


def reach_probability(c: ConcreteCtmc, target: Union[str, np.ndarray], tau: float,
                      epsilon: float = 1e-6) -> float:
    return float(reach_probabilities(c, target, [tau], epsilon)[0])


def _interval_core(c: ConcreteCtmc, uni, target_mask: np.ndarray, t_lo: float,
                   t_his: Sequence[float], epsilon: float,
                   sink: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Two-phase interval-until: stay outside the target until the window opens.

    ``uni`` is the uniformized chain with the target absorbing; both phases
    step through it.  Phase one runs to t_lo; mass sitting in the target at
    t_lo broke the left operand and is dropped (paths must avoid the target
    strictly before the window).  Phase two computes first passage into the
    target within t_hi - t_lo.  Returns the pair of ``_first_passage``: with
    ``sink`` the second array also counts the sink's mass, including what it
    held at t_lo.
    """
    t_his = np.asarray(t_his, dtype=float)
    if np.any(t_his < t_lo):
        raise CheckerError("interval windows need t1 <= t2")
    if t_lo == 0.0:
        start = np.array(c.initial, dtype=float)
    else:
        pi = _transient(uni, c.initial, t_lo, epsilon / 2.0)
        start = np.where(~target_mask, pi, 0.0)
    phase2_eps = epsilon if t_lo == 0.0 else epsilon / 2.0
    lower, upper = _first_passage(uni, start, target_mask, t_his - t_lo, phase2_eps, sink)
    return np.clip(lower, 0.0, 1.0), np.clip(upper, 0.0, 1.0)


def interval_reaches(c: ConcreteCtmc, target: Union[str, np.ndarray], t_lo: float,
                     t_his: Sequence[float], epsilon: float = 1e-6) -> np.ndarray:
    """P(first visit to target happens inside [t_lo, t_hi]) per t_hi."""
    mask = _mask(c, target)
    return _interval_core(c, _uniformized(c, mask), mask, t_lo, t_his, epsilon)[0]


def interval_reach(c: ConcreteCtmc, target: Union[str, np.ndarray], t_lo: float,
                   t_hi: float, epsilon: float = 1e-6) -> float:
    return float(interval_reaches(c, target, t_lo, [t_hi], epsilon)[0])


def instant_reward(c: ConcreteCtmc, reward: Union[str, np.ndarray], t: float,
                   epsilon: float = 1e-6) -> float:
    """Expected state reward at time t: dot(pi_t, reward vector)."""
    vec = c.reward_vector(reward) if isinstance(reward, str) else np.asarray(reward, float)
    pi = transient_distribution(c, t, epsilon)
    return float(pi @ vec)


# ---------------------------------------------------------------------------
# Measure-set evaluation (exact chains and partial-model bounds)
# ---------------------------------------------------------------------------

def _evaluate(c: ConcreteCtmc, measures: MeasureSet, epsilon: float,
              sink_rewards: Optional[dict] = None) -> tuple[np.ndarray, np.ndarray]:
    """Values of all measures on one chain, grouped to share transient passes.

    Returns (lower, upper).  With ``sink_rewards`` the chain is a partial
    model: the lower values treat its sink as a non-target with reward zero,
    and the upper values add the sink's share from the same passes, with the
    given worst-case reward per reward name (see the module docstring).
    Without, the two arrays are equal.  The uniformized chain is built once
    per absorbing set and shared by every pass that needs it.
    """
    _check_epsilon(epsilon)
    sink = sink_rewards is not None
    lower = np.empty(len(measures))
    upper = np.empty(len(measures))

    reach_groups: dict = {}
    window_groups: dict = {}
    reward_groups: dict = {}
    for pos, meas in enumerate(measures):
        if isinstance(meas, TimeBoundedReach):
            reach_groups.setdefault(meas.target, []).append(pos)
        elif isinstance(meas, IntervalReach):
            window_groups.setdefault((meas.target, meas.t_lo), []).append(pos)
        else:
            reward_groups.setdefault(meas.time, []).append(pos)

    uniformized: dict = {}

    def uni(target: Optional[str]):
        """Uniformized chain with ``target`` absorbing (None: nothing absorbing)."""
        if target not in uniformized:
            absorbing = None if target is None else c.label_mask(target)
            uniformized[target] = _uniformized(c, absorbing)
        return uniformized[target]

    for target, positions in reach_groups.items():
        taus = [measures.measures[p].horizon for p in positions]
        lo, up = _first_passage(uni(target), c.initial, c.label_mask(target), taus,
                                epsilon, sink)
        lower[positions] = np.clip(lo, 0.0, 1.0)
        upper[positions] = np.clip(up, 0.0, 1.0)

    for (target, t_lo), positions in window_groups.items():
        t_his = [measures.measures[p].t_hi for p in positions]
        lower[positions], upper[positions] = _interval_core(
            c, uni(target), c.label_mask(target), t_lo, t_his, epsilon, sink)

    for t, positions in reward_groups.items():
        pi = _transient(uni(None), c.initial, t, epsilon)
        for p in positions:
            name = measures.measures[p].reward
            value = float(pi @ c.reward_vector(name))
            lower[p] = upper[p] = max(value, 0.0)
            if sink:
                upper[p] = max(value + pi[-1] * sink_rewards.get(name, 0.0), 0.0)

    return lower, upper


def evaluate_measures(c: ConcreteCtmc, measures: MeasureSet,
                      epsilon: float = 1e-6) -> np.ndarray:
    """Values of all measures on one (full) chain, grouped to share transient
    passes."""
    return _evaluate(c, measures, epsilon)[0]


def solve_measures(m: ParametricCtmc, u: Valuation, measures: MeasureSet,
                   epsilon: float = 1e-6, index: int = 0) -> SolutionVector:
    """Exact (up to epsilon) solution vector for one valuation."""
    chain = build_full(m, u)
    return SolutionVector(index, evaluate_measures(chain, measures, epsilon))


def _worst_case_rewards(m: ParametricCtmc) -> dict:
    """Sound per-reward upper bound over the whole variable box (sink reward)."""
    box = {v.name: (v.minimum, v.maximum) for v in m.variables}
    out = {}
    for name, reward in m.rewards.items():
        _, hi = ex.bounds(reward, box)
        out[name] = max(float(hi), 0.0)
    return out


def _bound_at_delta(m: ParametricCtmc, u: Valuation, measures: MeasureSet,
                    delta: float, epsilon: float, reuse=None):
    """Lower and upper measure bounds from the partial model at ``delta``."""
    partial = build_partial(m, u, delta, reuse=reuse)
    lower, upper = _evaluate(partial, measures, epsilon, _worst_case_rewards(m))
    return lower, upper, partial


def _gaps_met(lower: np.ndarray, upper: np.ndarray, rel_gap: float) -> bool:
    rel = (upper - lower) / np.maximum(upper, 1e-12)
    return bool(np.all(rel <= rel_gap))


def bound_measures(m: ParametricCtmc, u: Valuation, measures: MeasureSet,
                   delta: float = 1e-2, epsilon: float = 1e-6,
                   rel_gap: float = 1e-2, reuse=None, index: int = 0) -> IntervalSolution:
    """Two-sided measure bounds from partial models, tightened until the
    relative gap (upper-lower)/max(upper, 1e-12) meets rel_gap per entry.

    The truncation threshold is divided by 10 per round; if it underflows the
    best interval so far is returned with ``gap_met=False``.  Bounds from
    successive rounds are intersected, so intervals only ever shrink.
    """
    lower = np.full(len(measures), -np.inf)
    upper = np.full(len(measures), np.inf)
    delta_now = delta
    first = True
    while True:
        lo, up, partial = _bound_at_delta(m, u, measures, delta_now, epsilon,
                                          reuse=reuse if first else None)
        first = False
        lower = np.maximum(lower, lo)
        upper = np.minimum(upper, up)
        if _gaps_met(lower, upper, rel_gap) or not partial.sink_reachable:
            return IntervalSolution(index, lower, upper, delta_now, gap_met=True)
        if delta_now < _DELTA_FLOOR:
            return IntervalSolution(index, lower, upper, delta_now, gap_met=False)
        delta_now /= 10.0


def refine_solution(prev: IntervalSolution, m: ParametricCtmc, u: Valuation,
                    measures: MeasureSet, epsilon: float = 1e-6,
                    rel_gap: float = 1e-2) -> IntervalSolution:
    """One refinement step: re-run the bound analysis at delta/10 and intersect,
    so the result is pointwise contained in the previous interval.
    ``gap_met`` is judged afresh on the refined interval."""
    delta_new = prev.delta / 10.0
    lo, up, _ = _bound_at_delta(m, u, measures, delta_new, epsilon)
    lower = np.maximum(prev.lower, lo)
    upper = np.minimum(prev.upper, up)
    upper = np.maximum(upper, lower)
    return IntervalSolution(prev.valuation_index, lower, upper, delta_new,
                            gap_met=_gaps_met(lower, upper, rel_gap))


def solve_measure_set(m: ParametricCtmc, valuations, measures: MeasureSet,
                      mode: str = "exact", epsilon: float = 1e-6,
                      delta: float = 1e-2, rel_gap: float = 1e-2,
                      cluster_radius: float = 0.0):
    """Solution vectors (or interval solutions) for a batch of valuations.

    Results are ordered by valuation index, and each valuation's result does
    not depend on which other valuations are solved with it.  In approx mode a
    positive ``cluster_radius`` groups nearby valuations (standardized
    Euclidean distance) and reuses the representative partial model's retained
    state set for every member of the cluster.
    """
    if hasattr(valuations, "valuations"):
        valuations = valuations.valuations
    valuations = list(valuations)
    if mode not in ("exact", "approx"):
        raise CheckerError(f"unknown mode: {mode!r}")

    reuse_map: dict = {}
    if mode == "approx" and cluster_radius > 0.0:
        clusters = cluster_valuations(valuations, cluster_radius, m.parameters)
        for cluster in clusters:
            rep_partial = build_partial(m, cluster.representative, delta)
            for idx in cluster.member_indices:
                reuse_map[idx] = rep_partial.retained_states

    return [solve_measures(m, u, measures, epsilon, index=i) if mode == "exact"
            else bound_measures(m, u, measures, delta, epsilon, rel_gap,
                                reuse=reuse_map.get(i), index=i)
            for i, u in enumerate(valuations)]


# ---------------------------------------------------------------------------
# Probability-curve bands
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class CurveBand:
    """Monotone band around probability curves over a horizon grid.

    ``lower``/``upper`` are the sound step levels at each horizon; between
    grid points the lower level carries forward and the upper level carries
    backward.  ``evaluate(t, smooth=True)`` linearly interpolates instead,
    which is a plotting aid rather than a sound bound.
    """

    horizons: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def evaluate(self, t: float, smooth: bool = False) -> tuple[float, float]:
        h = self.horizons
        if smooth:
            return (float(np.interp(t, h, self.lower)),
                    float(np.interp(t, h, self.upper)))
        if t <= h[0]:
            lo = self.lower[0] if t == h[0] else 0.0
            return float(lo), float(self.upper[0])
        if t >= h[-1]:
            hi = float(self.upper[-1]) if t == h[-1] else 1.0
            return float(self.lower[-1]), hi
        j = int(np.searchsorted(h, t, side="right")) - 1
        k = int(np.searchsorted(h, t, side="left"))
        return float(self.lower[j]), float(self.upper[k])


def region_to_curve(region, measures: MeasureSet) -> CurveBand:
    """Band around the probability curves from a box region over horizon measures.

    Requires a horizon family: reach measures with one shared target and
    strictly ascending horizons, or interval-reach measures sharing target and
    window start with strictly ascending window ends.  The lower curve is the
    running max of the region's lower bounds, the upper curve the suffix min
    of its upper bounds; both are therefore nondecreasing, clamped to [0, 1].
    """
    kinds = {type(m) for m in measures}
    if len(measures) == 0 or len(kinds) != 1:
        raise CheckerError("measures are not a horizon family")
    kind = kinds.pop()
    if kind is TimeBoundedReach:
        if len({m.target for m in measures}) != 1:
            raise CheckerError("horizon family must share one target")
        horizons = np.array([m.horizon for m in measures], dtype=float)
    elif kind is IntervalReach:
        if len({(m.target, m.t_lo) for m in measures}) != 1:
            raise CheckerError("horizon family must share target and window start")
        horizons = np.array([m.t_hi for m in measures], dtype=float)
    else:
        raise CheckerError("measures are not a horizon family")
    if np.any(np.diff(horizons) <= 0):
        raise CheckerError("horizons must be strictly ascending")

    lower = np.maximum.accumulate(np.clip(region.lower, 0.0, 1.0))
    upper = np.minimum.accumulate(np.clip(region.upper, 0.0, 1.0)[::-1])[::-1]
    upper = np.maximum(upper, lower)
    return CurveBand(horizons, lower, upper)
