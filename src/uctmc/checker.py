"""Uniformization-based model checking of time-bounded measures.

Supported measures: time-bounded reachability of a label within a horizon,
interval reachability (first visit to the label inside a time window, staying
outside the label until then), and instantaneous expected reward at a time
point.  Transient distributions are computed by uniformization: with
Lambda >= max leaving rate, pi_t = sum_k Poi(Lambda*t; k) * pi_0 P^k where
P = I + Q/Lambda.

One batched kernel serves every measure kind and both sink policies.  The
chains of a batch (valuations of one model, so of one state space) are
uniformized separately and laid out as the blocks of one block-diagonal P^T
(``_Blocks``).  One stepping routine (``_iterates``) produces the power
sequence: each step is one call of scipy's CSR mat-vec kernel over the prefix
of blocks that still need steps.  Blocks are sorted by descending Lambda, so
a block whose Poisson windows have ended drops off the end of the prefix, and
a batch does no more mat-vec work than separate passes would.  Each block
keeps its own Lambda and Poisson windows, and its mat-vec rows, target and
sink mass, Poisson weighting and flush are computed exactly as in a batch of
one, so a chain's results are the same bits in any batch.  Exact mode checks
consecutive valuations in batches of at most ``DEFAULT_STATE_CAP`` states, so
a batch never holds more states than one chain may; partial chains go in
batches of one.  The routine steps in place, into one of two preallocated
buffers that take turns, so an iterate it yields is valid only until the next
step.

Error budget of one uniformization pass of K steps over a chain of n states:

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

import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Union

import numpy as np
from scipy import sparse
from scipy.sparse._sparsetools import csr_matvec, csr_tocsc

from .model import (
    DEFAULT_STATE_CAP,
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
    cancel in the generator, so they never affect the result.  P^T is built
    from the chain's CSR arrays; each entry, each row sum and its summation
    order are those of the sparse expression
    ``(I + (R - diags(R.sum(axis=1))) / Lambda).T`` with R =
    ``diags(~absorbing) @ rates``.  scipy sums each nonempty row in stored
    order with ``np.add.reduceat``, and that product stores each row in
    reverse, so with absorbing states the rows are summed reversed.
    """
    rates = c.rates
    n = rates.shape[0]
    indptr, indices, data = rates.indptr, rates.indices, rates.data
    rows = np.repeat(np.arange(n), np.diff(indptr))
    if absorbing is not None and absorbing.any():
        reverse = (indptr[:-1] + indptr[1:] - 1)[rows] - np.arange(rows.size)
        keep = reverse[~absorbing[rows]]
        rows, indices, data = rows[keep], indices[keep], data[keep]
        indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n))))
    row_sums = np.zeros(n)
    nonempty = np.flatnonzero(np.diff(indptr))
    if nonempty.size:
        row_sums[nonempty] = np.add.reduceat(data, indptr[nonempty])
    loop = indices == rows
    diag = np.zeros(n)
    diag[rows[loop]] = data[loop]
    lam = float((row_sums - diag).max()) if n else 0.0
    if lam <= 0.0:
        return None, 0.0
    inv = 1 / lam
    # P by rows (off-diagonal entries, then each row's diagonal entry)
    states = np.arange(n)
    p_rows = np.concatenate((rows[~loop], states))
    p_cols = np.concatenate((indices[~loop], states))
    p_data = np.concatenate((data[~loop] * inv, 1.0 + (diag - row_sums) * inv))
    nonzero = p_data != 0.0
    by_row = np.argsort(p_rows[nonzero], kind="stable")
    p_rows, p_cols, p_data = (a[nonzero][by_row] for a in (p_rows, p_cols, p_data))
    idx = np.int32 if max(n, p_data.size) < 2**31 else np.int64
    p_indptr = np.concatenate(([0], np.cumsum(np.bincount(p_rows, minlength=n)))).astype(idx)
    pt_indptr = np.empty(n + 1, dtype=idx)
    pt_indices = np.empty(p_data.size, dtype=idx)
    pt_data = np.empty(p_data.size)
    csr_tocsc(n, n, p_indptr, p_cols.astype(idx), p_data, pt_indptr, pt_indices, pt_data)
    return sparse.csr_matrix((pt_data, pt_indices, pt_indptr), shape=(n, n)), lam


def _poisson_terms(lam_t: float) -> tuple[int, np.ndarray]:
    """Left truncation point and renormalized Poisson(lam_t) weights.

    From the mode outward, each side is the running product (``np.cumprod``,
    which multiplies in order) of the ratios of neighbouring terms, cut at the
    first term at or below ``_POISSON_CUTOFF``; the right side keeps that
    term.  Each side is first computed over about 20 * sqrt(lam_t) + 100
    terms, and over twice as many if the cut lies beyond.
    """
    if lam_t <= 0.0:
        return 0, np.array([1.0])
    mode = int(lam_t)
    span = int(20.0 * math.sqrt(lam_t)) + 100
    while True:
        # both sides are nonincreasing, so the terms above the cut lead
        right = np.cumprod(lam_t / np.arange(mode + 1, mode + 1 + span))
        right_kept = np.count_nonzero(right > _POISSON_CUTOFF)
        end = max(mode - span, 0)
        left = np.cumprod(np.arange(mode, end, -1) / lam_t)
        left_kept = np.count_nonzero(left > _POISSON_CUTOFF)
        if right_kept < right.size and (left_kept < left.size or end == 0):
            break
        span *= 2
    weights = np.concatenate((left[:left_kept][::-1], [1.0], right[:right_kept + 1]))
    weights /= weights.sum()
    return mode - left_kept, weights


def _iterates(pt: sparse.csr_matrix, v: np.ndarray, skip: int, count: int,
              live: Optional[Sequence[int]] = None):
    """Yield ``count`` successive iterates (P^T)^k v, from k = ``skip`` on.

    ``v`` is (blocks, states), and ``pt`` maps each block to itself.  With
    ``live`` (nonincreasing), step k updates and yields only the first
    ``live[k]`` blocks; otherwise all of them.  Each step calls scipy's CSR
    mat-vec kernel directly on two preallocated buffers that take turns, so a
    yielded array is valid only until the generator resumes: use or copy it
    before asking for the next one.  Every ``_FLUSH_EVERY`` steps the entries
    below ``_FLUSH_BELOW`` are set to zero (see the module docstring for the
    mass this may remove).
    """
    indptr, indices, data = pt.indptr, pt.indices, pt.data
    cur = np.array(v, dtype=float)
    nxt = np.empty_like(cur)
    if live is None:
        live = [cur.shape[0]] * (skip + count)
    blocks = -1
    for k in range(skip + count):
        if live[k] != blocks:
            blocks = live[k]
            rows = blocks * cur.shape[1]
            cur, nxt = cur[:blocks], nxt[:blocks]
            cur_flat, nxt_flat = cur.reshape(rows), nxt.reshape(rows)
        if k:
            # the kernel adds P^T v into its output buffer
            nxt_flat.fill(0.0)
            csr_matvec(rows, rows, indptr, indices, data, cur_flat, nxt_flat)
            cur, nxt, cur_flat, nxt_flat = nxt, cur, nxt_flat, cur_flat
            if not k % _FLUSH_EVERY:
                cur_flat[cur_flat < _FLUSH_BELOW] = 0.0
        if k >= skip:
            yield cur


class _Blocks:
    """The uniformized chains of one batch, one absorbing set per chain, as
    one block-diagonal P^T.

    Every chain has the same number of states.  Blocks are sorted by
    descending Lambda (ties in batch order): a pass steps only the prefix of
    blocks that still need steps, so a block whose Poisson windows have ended
    drops off its end.  Each block keeps its own Lambda and Poisson windows,
    and every per-block quantity (mat-vec rows, target and sink mass, Poisson
    weighting, flush) is computed exactly as for a batch of one.  Arrays in
    and out are (chains, states) and (chains, ...) in batch order.
    """

    def __init__(self, chains: Sequence[ConcreteCtmc], absorbing: Sequence):
        unis = [_uniformized(c, a) for c, a in zip(chains, absorbing)]
        size = chains[0].num_states
        lam = np.array([u[1] for u in unis])
        self.order = np.argsort(-lam, kind="stable")
        self.lam = lam[self.order]
        blocks = [unis[b][0] for b in self.order]
        counts = np.concatenate([np.zeros(size, dtype=np.int64) if pt is None
                                 else np.diff(pt.indptr) for pt in blocks])
        nnz = int(counts.sum())
        idx = np.int32 if max(counts.size, nnz) < 2**31 else np.int64
        indptr = np.concatenate(([0], np.cumsum(counts))).astype(idx)
        indices = np.concatenate([pt.indices.astype(idx) + pos * size
                                  for pos, pt in enumerate(blocks) if pt is not None]
                                 or [np.empty(0, dtype=idx)])
        data = np.concatenate([pt.data for pt in blocks if pt is not None] or [np.empty(0)])
        self.pt = sparse.csr_matrix((data, indices, indptr), shape=(counts.size,) * 2)

    def _pass(self, v: np.ndarray, need: np.ndarray, skip: int = 0):
        """Iterates k = skip .. max(need) - 1 of one pass from ``v`` (block
        order); iterate k holds the prefix of blocks that includes every block
        with need > k."""
        live = np.maximum.accumulate(need[::-1])[::-1]  # nonincreasing
        steps = int(live[0]) if live.size else 0
        active = np.searchsorted(-live, -np.arange(steps), side="left").tolist()
        return _iterates(self.pt, v, skip, steps - skip, active)

    def _unsorted(self, values: np.ndarray) -> np.ndarray:
        out = np.empty_like(values)
        out[self.order] = values
        return out

    def transient(self, v: np.ndarray, t: float) -> np.ndarray:
        """pi_t per chain from pi_0 = v."""
        v = np.asarray(v, dtype=float)[self.order]
        out = v.copy()
        terms = [_poisson_terms(lam * t) if lam > 0.0 else (0, np.empty(0))
                 for lam in self.lam]
        need = np.array([k_lo + w.size for k_lo, w in terms], dtype=np.int64)
        if need.any():
            weights = np.zeros((int(need.max()), need.size, 1))
            for b, (k_lo, w) in enumerate(terms):
                weights[k_lo:k_lo + w.size, b, 0] = w
            out[need > 0] = 0.0
            first = min(k_lo for k_lo, w in terms if w.size)
            live = 0
            for k, x in enumerate(self._pass(v, need, first), first):
                if len(x) != live:
                    live, head = len(x), out[:len(x)]
                    # one live block takes a float weight, which skips broadcasting
                    step_weights = weights[:, :live] if live > 1 else weights[:, 0, 0].tolist()
                head += step_weights[k] * x
        return self._unsorted(out)

    def _masses(self, start: np.ndarray, targets: np.ndarray, need: np.ndarray,
                sink: bool):
        """Target mass, and with ``sink`` the sink's mass, after each step of
        one pass from ``start`` (block order): one row per block, one column
        per step."""
        indicator = targets.astype(float)
        # one row per step while stepping, transposed for the weighting
        target_mass = np.zeros((int(need.max()), need.size))
        sink_mass = np.zeros_like(target_mass) if sink else None
        live = 0
        for k, x in enumerate(self._pass(start, need)):
            if len(x) != live:
                live, live_indicator = len(x), indicator[:len(x)]
            np.vecdot(x, live_indicator, out=target_mass[k, :live])
            if sink:
                sink_mass[k, :live] = x[:, -1]
        return target_mass.T.copy(), sink_mass.T.copy() if sink else None

    def first_passage(self, start: np.ndarray, targets: np.ndarray,
                      horizons: np.ndarray, sink: bool = False):
        """P(first visit to targets within each horizon), per chain and
        horizon; the targets must be absorbing in these blocks.

        One pass serves every horizon: the target mass after k jumps is
        shared, only the Poisson weights differ per horizon.  Returns
        (probabilities, probabilities with the sink counted as a target).
        With ``sink`` the last state is a partial chain's absorbing sink and
        the pass also tracks its mass; without, the two arrays are equal.
        """
        start = np.asarray(start, dtype=float)[self.order]
        targets = targets[self.order]
        base = np.array([float(s[t].sum()) if t.any() else 0.0
                         for s, t in zip(start, targets)])
        sink_base = start[:, -1] if sink else np.zeros(len(base))
        lower = np.repeat(base[:, None], horizons.size, axis=1)
        upper = np.repeat((base + sink_base)[:, None], horizons.size, axis=1)
        terms = [[_poisson_terms(lam * t) for t in horizons] if lam > 0.0 else []
                 for lam in self.lam]
        need = np.array([max((k_lo + w.size for k_lo, w in row), default=0)
                         for row in terms], dtype=np.int64)
        if need.any():
            target_mass, sink_mass = self._masses(start, targets, need, sink)
            for b, row in enumerate(terms):
                for j, (k_lo, w) in enumerate(row):
                    if horizons[j] > 0.0:
                        window = slice(k_lo, k_lo + w.size)
                        lower[b, j] = upper[b, j] = w @ target_mass[b, window]
                        if sink:
                            upper[b, j] += w @ sink_mass[b, window]
        return (self._unsorted(np.clip(lower, 0.0, 1.0)),
                self._unsorted(np.clip(upper, 0.0, 1.0)))

    def interval(self, initial: np.ndarray, targets: np.ndarray, t_lo: float,
                 t_his: Sequence[float], sink: bool = False):
        """Two-phase interval-until: stay outside the targets until the window
        opens.

        Both phases step through these blocks, whose targets are absorbing.
        Phase one runs to t_lo; mass sitting in the target at t_lo broke the
        left operand and is dropped (paths must avoid the target strictly
        before the window).  Phase two computes first passage into the target
        within t_hi - t_lo.  Returns the pair of ``first_passage``: with
        ``sink`` the second array also counts the sink's mass, including what
        it held at t_lo.
        """
        t_his = np.asarray(t_his, dtype=float)
        if np.any(t_his < t_lo):
            raise CheckerError("interval windows need t1 <= t2")
        start = initial
        if t_lo > 0.0:
            start = np.where(~targets, self.transient(initial, t_lo), 0.0)
        return self.first_passage(start, targets, t_his - t_lo, sink)


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
    return _Blocks([c], [absorbing]).transient(v[None], t)[0]


def _horizons(horizons: Sequence[float]) -> np.ndarray:
    horizons = np.asarray(horizons, dtype=float)
    if np.any(horizons < 0):
        raise CheckerError("horizons must be >= 0")
    return horizons


def reach_probabilities(c: ConcreteCtmc, target: Union[str, np.ndarray],
                        horizons: Sequence[float], epsilon: float = 1e-6,
                        initial: Optional[np.ndarray] = None) -> np.ndarray:
    """Time-bounded reachability for a family of horizons (one shared pass)."""
    _check_epsilon(epsilon)
    mask = _mask(c, target)
    start = np.array(c.initial if initial is None else initial, dtype=float)
    values, _ = _Blocks([c], [mask]).first_passage(start[None], mask[None],
                                                    _horizons(horizons))
    return values[0]


def reach_probability(c: ConcreteCtmc, target: Union[str, np.ndarray], tau: float,
                      epsilon: float = 1e-6) -> float:
    return float(reach_probabilities(c, target, [tau], epsilon)[0])


def interval_reaches(c: ConcreteCtmc, target: Union[str, np.ndarray], t_lo: float,
                     t_his: Sequence[float], epsilon: float = 1e-6) -> np.ndarray:
    """P(first visit to target happens inside [t_lo, t_hi]) per t_hi."""
    _check_epsilon(epsilon)
    mask = _mask(c, target)
    return _Blocks([c], [mask]).interval(c.initial[None], mask[None], t_lo, t_his)[0][0]


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

def _evaluate(chains: Sequence[ConcreteCtmc], measures: MeasureSet, epsilon: float,
              sink_rewards: Optional[dict] = None) -> tuple[np.ndarray, np.ndarray]:
    """Values of all measures on a batch of chains of one model, grouped to
    share passes; each chain's values are those of a batch of one.

    Returns (lower, upper), one row per chain.  With ``sink_rewards`` the
    chains are partial models: the lower values treat the sink as a
    non-target with reward zero, and the upper values add the sink's share
    from the same passes, with the given worst-case reward per reward name
    (see the module docstring).  Without, the two arrays are equal.
    """
    _check_epsilon(epsilon)
    sink = sink_rewards is not None
    lower = np.empty((len(chains), len(measures)))
    upper = np.empty((len(chains), len(measures)))

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

    initial = np.array([c.initial for c in chains])
    masks = {target: np.array([c.label_mask(target) for c in chains])
             for target in {*reach_groups, *(target for target, _ in window_groups)}}
    # one set of blocks per absorbing set: a target, or None for rewards
    blocks = {target: _Blocks(chains, mask) for target, mask in masks.items()}
    if reward_groups:
        blocks[None] = _Blocks(chains, [None] * len(chains))

    for target, positions in reach_groups.items():
        taus = _horizons([measures.measures[p].horizon for p in positions])
        lower[:, positions], upper[:, positions] = blocks[target].first_passage(
            initial, masks[target], taus, sink)

    for (target, t_lo), positions in window_groups.items():
        t_his = [measures.measures[p].t_hi for p in positions]
        lower[:, positions], upper[:, positions] = blocks[target].interval(
            initial, masks[target], t_lo, t_his, sink)

    for t, positions in reward_groups.items():
        pi = blocks[None].transient(initial, t)
        for p in positions:
            name = measures.measures[p].reward
            value = np.vecdot(pi, np.array([c.reward_vector(name) for c in chains]))
            lower[:, p] = upper[:, p] = np.maximum(value, 0.0)
            if sink:
                upper[:, p] = np.maximum(value + pi[:, -1] * sink_rewards.get(name, 0.0), 0.0)

    return lower, upper


def evaluate_measures(c: ConcreteCtmc, measures: MeasureSet,
                      epsilon: float = 1e-6) -> np.ndarray:
    """Values of all measures on one (full) chain, grouped to share transient
    passes."""
    return _evaluate([c], measures, epsilon)[0][0]


def solve_measures(m: ParametricCtmc, u: Valuation, measures: MeasureSet,
                   epsilon: float = 1e-6, index: int = 0) -> SolutionVector:
    """Exact (up to epsilon) solution vector for one valuation."""
    chain = build_full(m, u)
    return SolutionVector(index, evaluate_measures(chain, measures, epsilon))


def _batches(chains) -> Iterator[list]:
    """Consecutive chains, grouped so that no group holds more than
    ``DEFAULT_STATE_CAP`` states (a chain above the cap goes alone)."""
    batch: list = []
    for chain in chains:
        if batch and (len(batch) + 1) * chain.num_states > DEFAULT_STATE_CAP:
            yield batch
            batch = []
        batch.append(chain)
    if batch:
        yield batch


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
    lower, upper = _evaluate([partial], measures, epsilon, _worst_case_rewards(m))
    return lower[0], upper[0], partial


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
    not depend on which other valuations are solved with it.  Exact mode
    checks consecutive valuations together, in batches of at most
    ``DEFAULT_STATE_CAP`` states (see ``_Blocks``).  In approx mode a
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

    if mode == "approx":
        return [bound_measures(m, u, measures, delta, epsilon, rel_gap,
                               reuse=reuse_map.get(i), index=i)
                for i, u in enumerate(valuations)]
    solutions: list = []
    for batch in _batches(build_full(m, u) for u in valuations):
        values, _ = _evaluate(batch, measures, epsilon)
        solutions += [SolutionVector(i, row) for i, row in enumerate(values, len(solutions))]
    return solutions


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
