"""Uniformization-based model checking of time-bounded measures.

Supported measures: time-bounded reachability of a label within a horizon,
interval reachability (first visit to the label inside a time window, staying
outside the label until then), and instantaneous expected reward at a time
point.  Transient distributions are computed by uniformization: with
Lambda >= max leaving rate, pi_t = sum_k Poi(Lambda*t; k) * pi_0 P^k where
P = I + Q/Lambda.

Every measure is one form, pi_t . v = sum_k Poi(Lambda*t; k) * (x_k . v) with
x_k = x_0 P^k, on a chain with some absorbing set:

* reach: v is the target's indicator, the target is absorbing and x_0 is the
  initial distribution.  An interval measure is a reach measure over
  t_hi - t_lo from x_0 = pi_{t_lo} with the target's entries dropped (phase
  one steps to t_lo with the target absorbing); a reach measure is an
  interval measure with t_lo = 0, so both share their target's pass.
* reward: v is the reward vector and nothing is absorbing, so the rewards of
  a chain at any number of times share one pass.

One batched kernel computes this form.  The chains of a batch (valuations of
one model) are uniformized separately and laid out as the blocks of one
block-diagonal P^T (``_Blocks``).  Chains may differ in size, as partial
chains do: every block is padded to the batch's largest chain with empty
rows, so the padding is never read or written and every mat-vec row stays
per state and per block.  One stepping routine (``_iterates``) produces the
power sequence: each step is one call of scipy's CSR mat-vec kernel over the
prefix of blocks that still need steps.  Blocks are sorted by descending
Lambda, so a block whose Poisson windows have ended drops off the end of the
prefix, and a batch does no more mat-vec work than separate passes would.  A
pass starts at the smallest left truncation point of its columns and keeps
the series x_k . v per block and vector, which is steps x blocks x vectors
floats; each (vector, time) column is then one Poisson-weighted sum over its
window of that series.  Each step's dots are one more CSR mat-vec, of a
reader matrix that holds v's nonzeros with one row per (block, vector) in
block-major order: the live blocks' rows are a prefix, and each row is
summed in state order over v's nonzeros, whatever the padding or batch.
Each block keeps its own Lambda and Poisson windows, and its mat-vec rows,
series, Poisson weighting and flush are computed exactly as in a batch of
one, so a chain's results are the same bits in any batch.

Batches are consecutive chains (``_batches``) holding at most
``DEFAULT_STATE_CAP`` states, counted padded, and keeping at most
``DEFAULT_STATE_CAP`` floats of series, counted from each chain's largest
exit rate and the largest measure time; a chain above either cap goes alone.
Exact mode batches the full chains of consecutive valuations.  Approximate
mode runs in lockstep delta rounds: each round builds the partial chain of
every valuation whose gap is still open, lazily, batch by batch, checks each
batch in one pass, and divides delta by 10 only for the valuations still
open.  The routine steps in place, into one of two preallocated buffers that
take turns, so an iterate it yields is valid only until the next step.

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
* Series dot: each x_k . v is a sequential sum over the m nonzeros of v.
  Its terms are nonnegative, so the sum's relative error is at most
  (m - 1) * u with u = 2^-53 (one u more when v is not 0/1, for the
  products): about 1.1e-12 at m = 10^4 states and 1.1e-9 at the 10^7-state
  cap, relative to a value of at most 1 or the largest reward.

On partial models the truncated sink (the last state) bounds every measure
from both sides.  The lower bound treats the sink as a non-target with reward
zero, which is its entry in the lower v.  The upper bound uses the same v
with the sink's entry set to 1 for reach and interval measures and to the
worst-case reward for rewards.  The sink's row is empty, so making it
absorbing changes neither P, Lambda nor the Poisson weights, and one pass
serves both vectors.  Each bound is the same Poisson-weighted sum a separate
pass would compute, so both keep the ``epsilon`` contract.  Upper >= lower
holds by construction: the upper v dominates the lower one entrywise, the
iterates and weights are nonnegative, and rounding is monotone.
"""

from __future__ import annotations

import logging
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
)
from . import expr as ex

MIN_EPSILON = 1e-12
_POISSON_CUTOFF = 1e-30
_FLUSH_BELOW = 1e-280
_FLUSH_EVERY = 64
_DELTA_FLOOR = 1e-250

log = logging.getLogger("uctmc.checker")


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
        # comparisons are written so that NaN and infinities fail them
        if not 0 <= self.horizon < math.inf:
            raise CheckerError(f"measure {self.id}: horizon must be finite and >= 0")


@dataclass(frozen=True)
class IntervalReach:
    id: str
    target: str
    t_lo: float
    t_hi: float

    def __post_init__(self):
        if not 0 <= self.t_lo <= self.t_hi < math.inf:
            raise CheckerError(f"measure {self.id}: need 0 <= t1 <= t2 < inf")


@dataclass(frozen=True)
class InstantReward:
    id: str
    reward: str
    time: float

    def __post_init__(self):
        if not 0 <= self.time < math.inf:
            raise CheckerError(f"measure {self.id}: time must be finite and >= 0")


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
    if not epsilon > 0:  # NaN included
        raise CheckerError("epsilon must be positive")
    if epsilon < MIN_EPSILON:
        raise CheckerError(f"epsilon {epsilon} below float accumulation limit {MIN_EPSILON}")


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


def _poisson_span(lam_t: float) -> int:
    """Terms ``_poisson_terms`` first computes on each side of the mode."""
    return int(20.0 * math.sqrt(lam_t)) + 100


def _poisson_terms(lam_t: float) -> tuple[int, np.ndarray]:
    """Left truncation point and renormalized Poisson(lam_t) weights.

    From the mode outward, each side is the running product (``np.cumprod``,
    which multiplies in order) of the ratios of neighbouring terms, cut at the
    first term at or below ``_POISSON_CUTOFF``; the right side keeps that
    term.  Each side is first computed over ``_poisson_span(lam_t)`` terms,
    and over twice as many if the cut lies beyond.
    """
    if lam_t <= 0.0:
        return 0, np.array([1.0])
    mode = int(lam_t)
    span = _poisson_span(lam_t)
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

    Chains may differ in size: every block is padded to the largest chain
    with empty rows, which no entry of P^T reads or writes.  Blocks are sorted
    by descending Lambda (ties in batch order): a pass steps only the prefix
    of blocks that still need steps, so a block whose Poisson windows have
    ended drops off its end.  Each block keeps its own Lambda and Poisson
    windows, and every per-block quantity (mat-vec rows, the series x_k . v,
    Poisson weighting, flush) is computed exactly as for a batch of one.
    Arrays in and out are (chains, ...) in batch order, with states padded to
    the largest chain.
    """

    def __init__(self, chains: Sequence[ConcreteCtmc], absorbing: Sequence):
        unis = [_uniformized(c, a) for c, a in zip(chains, absorbing)]
        size = max(c.num_states for c in chains)
        lam = np.array([u[1] for u in unis])
        self.order = np.argsort(-lam, kind="stable")
        self.lam = lam[self.order]
        blocks = [unis[b][0] for b in self.order]
        counts = np.zeros((len(blocks), size), dtype=np.int64)
        for row, pt in zip(counts, blocks):
            if pt is not None:
                row[:pt.shape[0]] = np.diff(pt.indptr)
        counts = counts.ravel()
        nnz = int(counts.sum())
        idx = np.int32 if max(counts.size, nnz) < 2**31 else np.int64
        indptr = np.concatenate(([0], np.cumsum(counts))).astype(idx)
        indices = np.concatenate([pt.indices.astype(idx) + pos * size
                                  for pos, pt in enumerate(blocks) if pt is not None]
                                 or [np.empty(0, dtype=idx)])
        data = np.concatenate([pt.data for pt in blocks if pt is not None] or [np.empty(0)])
        self.pt = sparse.csr_matrix((data, indices, indptr), shape=(counts.size,) * 2)

    def _pass(self, v: np.ndarray, need: np.ndarray, skip: int):
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

    def _windows(self, times: Sequence[float]):
        """Poisson window (left truncation point, weights) per block and
        distinct time, the steps each block needs, and the smallest left
        truncation point."""
        terms = [{t: _poisson_terms(lam * t) for t in times} for lam in self.lam]
        need = np.array([max(k_lo + w.size for k_lo, w in row.values()) for row in terms],
                        dtype=np.int64)
        return terms, need, min(k_lo for row in terms for k_lo, _ in row.values())

    def transient(self, v: np.ndarray, t: float) -> np.ndarray:
        """pi_t per chain from pi_0 = v."""
        v = np.asarray(v, dtype=float)[self.order]
        terms, need, skip = self._windows([t])
        # one row per step from skip on
        weights = np.zeros((int(need.max()) - skip, need.size, 1))
        for b, row in enumerate(terms):
            k_lo, w = row[t]
            weights[k_lo - skip:k_lo - skip + w.size, b, 0] = w
        out = np.zeros_like(v)
        live = 0
        for k, x in enumerate(self._pass(v, need, skip)):
            if len(x) != live:
                live, head = len(x), out[:len(x)]
                # one live block takes a float weight, which skips broadcasting
                step_weights = weights[:, :live] if live > 1 else weights[:, 0, 0].tolist()
            head += step_weights[k] * x
        return self._unsorted(out)

    def series(self, start: np.ndarray, vectors: np.ndarray,
               columns: Sequence[tuple[int, float]]) -> np.ndarray:
        """pi_t . v per chain and column (j, t), with pi_0 = ``start`` and
        v = ``vectors[:, j]``: the Poisson-weighted sum of x_k . v.

        ``start`` is (chains, states) and ``vectors`` (chains, vectors,
        states).  One pass serves every column; it starts at the smallest left
        truncation point of the columns and keeps the series x_k . v from
        there on.  Each step's dots are one CSR mat-vec of a reader matrix
        holding v's nonzeros, one row per block and vector in block-major
        order, so the live blocks' rows are a prefix and each row is a
        sequential sum in state order, whatever the padding or batch.
        """
        start = np.asarray(start, dtype=float)[self.order]
        vectors = np.asarray(vectors, dtype=float)[self.order]
        blocks, width, size = vectors.shape
        # one row per (block, vector), in block order
        vectors = vectors.reshape(blocks * width, size)
        rows, states = np.nonzero(vectors)
        idx = np.int32 if max(rows.size, blocks * size) < 2**31 else np.int64
        indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=len(vectors)))))
        indices = states + rows // width * size
        reader = (indptr.astype(idx), indices.astype(idx), vectors[rows, states])
        terms, need, skip = self._windows([t for _, t in columns])
        series = np.zeros((int(need.max()) - skip, len(vectors)))
        for k, x in enumerate(self._pass(start, need, skip)):
            csr_matvec(len(x) * width, x.size, *reader, x.reshape(-1), series[k])
        # contiguous rows, so that each weighted sum reads its window in order
        series = np.ascontiguousarray(series.T)
        values = np.empty((blocks, len(columns)))
        for b, row in enumerate(terms):
            for c, (j, t) in enumerate(columns):
                k_lo, w = row[t]
                values[b, c] = w @ series[b * width + j, k_lo - skip:k_lo - skip + w.size]
        return self._unsorted(values)

    def interval(self, initial: np.ndarray, targets, t_lo: float,
                 vectors: np.ndarray, columns: Sequence[tuple[int, float]]):
        """``series`` for windows [t_lo, t] that must be entered from outside
        the targets, which are absorbing in these blocks; with t_lo = 0 it is
        ``series`` from ``initial``.

        Phase one steps to t_lo; mass sitting in the target at t_lo broke the
        left operand and is dropped (paths must avoid the target strictly
        before the window).  Phase two is first passage within t - t_lo.
        """
        start = initial
        if t_lo > 0.0:
            start = np.where(~targets, self.transient(initial, t_lo), 0.0)
        return self.series(start, vectors, [(j, t - t_lo) for j, t in columns])


def transient_distribution(c: ConcreteCtmc, t: float, epsilon: float = 1e-6) -> np.ndarray:
    """Transient distribution pi_t with L1 error below epsilon."""
    _check_epsilon(epsilon)
    if not 0 <= t < math.inf:
        raise CheckerError("t must be finite and >= 0")
    if t == 0.0:
        return c.initial.copy()
    return _Blocks([c], [None]).transient(c.initial[None], t)[0]


def reach_probabilities(c: ConcreteCtmc, target: str, horizons: Sequence[float],
                        epsilon: float = 1e-6) -> np.ndarray:
    """Time-bounded reachability for a family of horizons (one shared pass)."""
    return evaluate_measures(c, MeasureSet(tuple(
        TimeBoundedReach(str(j), target, t) for j, t in enumerate(horizons))), epsilon)


def reach_probability(c: ConcreteCtmc, target: str, tau: float,
                      epsilon: float = 1e-6) -> float:
    return float(reach_probabilities(c, target, [tau], epsilon)[0])


def interval_reaches(c: ConcreteCtmc, target: str, t_lo: float,
                     t_his: Sequence[float], epsilon: float = 1e-6) -> np.ndarray:
    """P(first visit to target happens inside [t_lo, t_hi]) per t_hi."""
    return evaluate_measures(c, MeasureSet(tuple(
        IntervalReach(str(j), target, t_lo, t) for j, t in enumerate(t_his))), epsilon)


def interval_reach(c: ConcreteCtmc, target: str, t_lo: float, t_hi: float,
                   epsilon: float = 1e-6) -> float:
    return float(interval_reaches(c, target, t_lo, [t_hi], epsilon)[0])


def instant_reward(c: ConcreteCtmc, reward: str, t: float, epsilon: float = 1e-6) -> float:
    """Expected state reward at time t: dot(pi_t, reward vector)."""
    return float(evaluate_measures(
        c, MeasureSet((InstantReward("reward", reward, t),)), epsilon)[0])


# ---------------------------------------------------------------------------
# Measure-set evaluation (exact chains and partial-model bounds)
# ---------------------------------------------------------------------------

def _groups(measures: MeasureSet) -> dict:
    """Measures that share one pass, keyed by (absorbing target or None for
    rewards, window start): (position, label or reward name, time) each."""
    groups: dict = {}
    for pos, meas in enumerate(measures):
        if isinstance(meas, InstantReward):
            key, name, t = (None, 0.0), meas.reward, meas.time
        elif isinstance(meas, TimeBoundedReach):
            key, name, t = (meas.target, 0.0), meas.target, meas.horizon
        else:
            key, name, t = (meas.target, meas.t_lo), meas.target, meas.t_hi
        groups.setdefault(key, []).append((pos, name, t))
    return groups


def _padded(arrays: Sequence[np.ndarray], size: int, dtype=float) -> np.ndarray:
    """The arrays stacked, each zero-padded to ``size`` entries in its last
    axis."""
    out = np.zeros((len(arrays),) + np.shape(arrays[0])[:-1] + (size,), dtype=dtype)
    for row, a in zip(out, arrays):
        row[..., :np.shape(a)[-1]] = a
    return out


def _evaluate(chains: Sequence[ConcreteCtmc], measures: MeasureSet, epsilon: float,
              sink_rewards: Optional[dict] = None) -> tuple[np.ndarray, np.ndarray]:
    """Values of all measures on a batch of chains of one model, grouped to
    share passes; each chain's values are those of a batch of one.

    Returns (lower, upper), one row per chain.  With ``sink_rewards`` the
    chains are partial models, possibly of different sizes: each pass also
    weighs the upper vectors, whose entry at the chain's sink (its last
    state) is 1 for targets and the given worst-case reward per reward name
    (see the module docstring).  Without, the two arrays are equal.
    """
    _check_epsilon(epsilon)
    lower = np.empty((len(chains), len(measures)))
    upper = lower if sink_rewards is None else np.empty_like(lower)
    size = max(c.num_states for c in chains)
    sinks = [c.num_states - 1 for c in chains]
    initial = _padded([c.initial for c in chains], size)
    blocks: dict = {}
    for (target, t_lo), group in _groups(measures).items():
        names = list(dict.fromkeys(name for _, name, _ in group))
        columns = [(names.index(name), t) for _, name, t in group]
        if target is None:
            absorbing = targets = [None] * len(chains)
            vectors = _padded([[c.reward_vector(name) for name in names] for c in chains], size)
        else:
            absorbing = [c.label_mask(target) for c in chains]
            targets = _padded(absorbing, size, bool)
            vectors = targets[:, None].astype(float)
        if sink_rewards is not None:
            upper_vectors = vectors.copy()
            upper_vectors[np.arange(len(chains)), :, sinks] = (
                [sink_rewards[n] for n in names] if target is None else 1.0)
            vectors = np.concatenate((vectors, upper_vectors), axis=1)
            columns += [(j + len(names), t) for j, t in columns]
        if target not in blocks:
            blocks[target] = _Blocks(chains, absorbing)
        values = blocks[target].interval(initial, targets, t_lo, vectors, columns)
        if target is not None:
            values = np.clip(values, 0.0, 1.0)
        positions = [pos for pos, _, _ in group]
        lower[:, positions] = values[:, :len(group)]
        upper[:, positions] = values[:, -len(group):]
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


def _series_steps(c: ConcreteCtmc, horizon: float) -> int:
    """Steps of series a pass over ``c`` keeps for times up to ``horizon``,
    bounded above: the right end of ``_poisson_terms``' first span at the
    chain's largest exit rate, which bounds Lambda."""
    indptr = c.rates.indptr
    starts = indptr[:-1][indptr[:-1] < indptr[1:]]  # of nonempty rows
    lam = float(np.add.reduceat(c.rates.data, starts).max()) if starts.size else 0.0
    lam_t = lam * horizon
    return int(lam_t) + _poisson_span(lam_t) + 1


def _batches(chains, measures: MeasureSet, bounds: bool = False) -> Iterator[list]:
    """Consecutive chains, grouped so that no group holds more than
    ``DEFAULT_STATE_CAP`` states, counted as padded to its largest chain, or
    keeps a series (blocks x vectors x steps) of more floats than that.  A
    chain above either cap goes alone.  ``bounds`` doubles the vectors of a
    pass, as partial chains weigh an upper vector beside each one."""
    groups = _groups(measures).values()
    width = max((len({name for _, name, _ in g}) for g in groups), default=0) * (1 + bounds)
    horizon = max((t for g in groups for _, _, t in g), default=0.0)
    batch, size, kept = [], 0, 0
    for chain in chains:
        floats = width * _series_steps(chain, horizon)
        if batch and ((len(batch) + 1) * max(size, chain.num_states) > DEFAULT_STATE_CAP
                      or kept + floats > DEFAULT_STATE_CAP):
            yield batch
            batch, size, kept = [], 0, 0
        batch.append(chain)
        size, kept = max(size, chain.num_states), kept + floats
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


def _partial_batches(m: ParametricCtmc, jobs, measures: MeasureSet, epsilon: float):
    """Bounds from the partial models of (valuation, delta) jobs: the chains
    are built lazily and checked batch by batch (see ``_batches``), and each
    batch is yielded as (partials, lower, upper)."""
    sink_rewards = _worst_case_rewards(m)
    partials = (build_partial(m, u, delta) for u, delta in jobs)
    for batch in _batches(partials, measures, bounds=True):
        yield (batch, *_evaluate(batch, measures, epsilon, sink_rewards))


def _bound_at_delta(m: ParametricCtmc, u: Valuation, measures: MeasureSet,
                    delta: float, epsilon: float):
    """Lower and upper measure bounds from the partial model at ``delta``."""
    (partial,), lower, upper = next(_partial_batches(m, [(u, delta)], measures, epsilon))
    return lower[0], upper[0], partial


def _gaps_met(lower: np.ndarray, upper: np.ndarray, rel_gap: float) -> bool:
    rel = (upper - lower) / np.maximum(upper, 1e-12)
    return bool(np.all(rel <= rel_gap))


def _bound_valuations(m: ParametricCtmc, valuations: Sequence[Valuation],
                      measures: MeasureSet, delta: float, epsilon: float,
                      rel_gap: float) -> list[IntervalSolution]:
    """``bound_measures`` for every valuation, in lockstep delta rounds.

    Each round checks the partial models of all valuations still open
    together, then intersects and decides each valuation's bounds; only the
    valuations still open go on to delta/10.
    """
    lower = [np.full(len(measures), -np.inf) for _ in valuations]
    upper = [np.full(len(measures), np.inf) for _ in valuations]
    solutions: list = [None] * len(valuations)
    open_ = list(range(len(valuations)))
    delta_now, rounds = delta, 0
    while open_:
        jobs = [(valuations[i], delta_now) for i in open_]
        positions, still, largest, batches = iter(open_), [], 0, 0
        for partials, lo, up in _partial_batches(m, jobs, measures, epsilon):
            batches += 1
            largest = max(largest, max(p.num_states for p in partials))
            for partial, lo_i, up_i in zip(partials, lo, up):
                i = next(positions)
                lower[i] = np.maximum(lower[i], lo_i)
                upper[i] = np.minimum(upper[i], up_i)
                if _gaps_met(lower[i], upper[i], rel_gap) or not partial.sink_reachable:
                    solutions[i] = IntervalSolution(i, lower[i], upper[i], delta_now)
                elif delta_now < _DELTA_FLOOR:
                    solutions[i] = IntervalSolution(i, lower[i], upper[i], delta_now,
                                                    gap_met=False)
                else:
                    still.append(i)
        log.debug("delta round %d (delta %g): %d open valuations, largest partial "
                  "chain %d states, %d batches", rounds + 1, delta_now, len(open_),
                  largest, batches)
        open_, delta_now, rounds = still, delta_now / 10.0, rounds + 1
    return solutions


def bound_measures(m: ParametricCtmc, u: Valuation, measures: MeasureSet,
                   delta: float = 1e-2, epsilon: float = 1e-6,
                   rel_gap: float = 1e-2, index: int = 0) -> IntervalSolution:
    """Two-sided measure bounds from partial models, tightened until the
    relative gap (upper-lower)/max(upper, 1e-12) meets rel_gap per entry.

    The truncation threshold is divided by 10 per round; if it underflows the
    best interval so far is returned with ``gap_met=False``.  Bounds from
    successive rounds are intersected, so intervals only ever shrink.
    """
    solution, = _bound_valuations(m, [u], measures, delta, epsilon, rel_gap)
    solution.valuation_index = index
    return solution


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
                      delta: float = 1e-2, rel_gap: float = 1e-2):
    """Solution vectors (or interval solutions) for a batch of valuations.

    Results are ordered by valuation index, and each valuation's result does
    not depend on which other valuations are solved with it.  Exact mode
    checks consecutive valuations together, in batches of at most
    ``DEFAULT_STATE_CAP`` states (see ``_Blocks``).  Approx mode bounds all
    valuations together, in lockstep delta rounds (``_bound_valuations``).
    """
    if hasattr(valuations, "valuations"):
        valuations = valuations.valuations
    valuations = list(valuations)
    if mode not in ("exact", "approx"):
        raise CheckerError(f"unknown mode: {mode!r}")
    if mode == "approx":
        return _bound_valuations(m, valuations, measures, delta, epsilon, rel_gap)
    solutions: list = []
    for batch in _batches((build_full(m, u) for u in valuations), measures):
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
    backward.
    """

    horizons: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def evaluate(self, t: float) -> tuple[float, float]:
        h = self.horizons
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
