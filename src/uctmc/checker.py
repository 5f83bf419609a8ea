"""Uniformization-based model checking of time-bounded measures.

Supported measures: time-bounded reachability of a label within a horizon,
interval reachability (first visit to the label inside a time window, staying
outside the label until then), and instantaneous expected reward at a time
point.  Transient distributions are computed by uniformization: with
Lambda >= max leaving rate, pi_t = sum_k Poi(Lambda*t; k) * pi_0 P^k where
P = I + Q/Lambda.

Every measure is one form, pi_t . v = sum_k P(N_t = k) * (x_k . v) with
x_{k+1} = x_k P_k, on a chain with some absorbing set:

* reach: v is the target's indicator, the target is absorbing and x_0 is the
  initial distribution.  A reach measure is an interval measure with t_lo =
  0, so both share their target's pass.  On the adaptive kernel, an
  interval measure is a reach measure over t_hi - t_lo from x_0 = pi_{t_lo}
  with the target's entries dropped (phase one steps to t_lo with the
  target absorbing); on the plain kernel it is F(t_hi) - F(t_lo), F the
  reach from the initial distribution (below).
* reward: v is the reward vector and nothing is absorbing, so the rewards of
  a chain at any number of times share one pass.

Each pass picks its kernel per chain (``_plain``), from that chain's exit
rates and absorbing set alone: plain (``_Blocks``) when the mean exit rate
over the non-absorbing states is at least half their largest, Lambda, and
adaptive (``_Adaptive``) otherwise.  Where the rates do not fall (buffer and
tandem: 0.66-0.73), adaptive steps cover little more time than plain ones at
far more cost each (buffer: 13-16 times slower); where they fall (sir20 and
sir140: 0.34-0.38), they cover ever more time.  Each kind in a batch runs as
one kernel object over its own chains.

The adaptive kernel (van Moorsel & Sanders 1994, with the mass dropping of
fast adaptive uniformization: Didier, Henzinger, Mateescu & Wolf 2009,
Dannenberg, Hahn & Kwiatkowska 2015): step k uses Lambda_k = the largest exit
rate over the states holding mass, P_k = I + Q/Lambda_k, and N_t is the birth
process that moves from level k to k + 1 at rate Lambda_k.  Per block and
step:

* the entries below theta = 1e-6 * epsilon / s are zeroed, as long as the
  block's dropped mass stays within its drop budget, epsilon / (8 s) in exact
  mode; s is 1 for target passes and the chain's largest reward magnitude (at
  least 1) for reward passes;
* Lambda_k is the largest exit rate over the block's nonzero, non-absorbing
  states, and x_{k+1} = ((Lambda_k - e) x_k + Q_off^T x_k) / Lambda_k, one
  CSR mat-vec of the batch's block-diagonal off-diagonal Q^T and a per-block
  scaling; every term is nonnegative, as Lambda_k >= e on the support;
* the batch is held state-major, entry (state i, block b) at i * B + b for
  B blocks, so the states [lo, hi] that hold mass in any block are one row
  slice.  A step reads and writes only the rows [low(lo), high(hi)], where
  low(lo) is the lowest state that some state from lo on moves to in some
  block, and high(hi) the highest that some state up to hi moves to (a
  chain whose mass flows to lower states widens its band downward): the
  flush, the screen, Lambda_k, the mat-vec over those rows of Q_off^T and
  the update.  The rows outside hold zeros, which a step over every padded
  state would keep, and each row of Q_off^T holds its sources in state
  order, so every entry gets the bits of that full step (sir140, phase
  one: a mean band of about 3,150 of 9,996 states);
* a column at time t is cut at the first K whose bound on P(N_t > K) is
  within epsilon * 2^-16 / s (the smallest of three bounds, see
  ``_Adaptive._pass``), and the pass ends when every column is cut.  The
  pass keeps each step's Lambda_k, dropped mass and series, and tests a
  window of ``_WINDOW`` steps at once, each step's bounds as alone, so it
  finds the same first K; a window ends early at a step where every block
  with a column left has Lambda_k = 0, which cuts them all.  A pass may
  thus step up to ``_WINDOW`` - 1 steps past its last cut, and trims what
  it keeps to that cut: no cut moves, and no error share changes.

In a pass that keeps the series (every adaptive pass but phase one's,
below), the weights P(N_t = k) come from the birth kernel (``_Births``), run
on birth chains: levels 0 .. K, level k moving up at rate Lambda_k, and an
absorbing level after them that takes the tail.  A birth chain is
uniformized at max(Lambda_0 .. Lambda_K), so a column's cut and weights
depend only on its own time, and measures give the same bits alone or in
any set; columns of a block that share that rate share one birth chain.  A
column's value is one dot of its weights and the kept series x_k . v over
levels 0 .. K, summed in level order.

The birth kernel stores a batch's birth chains level-major, (levels,
chains), so the levels [lo, hi] that hold mass are one row slice, and a step
updates only that band: x[k] = stay[k] x[k] + up[k - 1] x[k - 1], with up =
r_k * (1 / Lambda) and stay = 1 - up, the entries of (I + Q / Lambda)^T (by
commutative addition, the bits of a CSR mat-vec of that matrix).  hi grows
by one level per step; lo advances every ``_FLUSH_EVERY`` steps, with the
flush, as each chain zeroes its lowest levels whose mass is at most half of
what is left of its share (``_zero_low``).  That decision reads only the
chain's own column, and the levels outside its own band are zeros that stay
zero, so its weights are the same bits in any batch.

Phase one of an adaptive interval measure (``_Adaptive.transient``) weighs
the iterates themselves, pi_{t_lo} = sum_k P(N_{t_lo} = k) x_k, over two
runs of its deterministic pass:

* the first run finds the rates and, per block, the last level j before the
  first whose Chernoff bound on P(N_{t_lo} < j) misses its share
  (``_Head``, judged a window at a time with the cuts); it keeps one
  iterate, x_j at the batch's smallest j.  It copies the iterate at each
  window start until the first blocks settle, and then steps from the copy
  of their window's start to x_j again, with its step index and dropped
  mass, which repeats the first run bit for bit: the saved level and
  iterate are those of a test at every step;
* its weights come from the birth kernel in time segments
  (``_birth_weights``).  A birth chain's rates may rise to a peak and then
  fall by orders of magnitude (sir140: up to 234, then down to 0.04 within
  t = 100), and one uniformization at the peak takes about max(Lambda_k) t
  steps (23,000).  The segments are [0, t 2^-m], then [t 2^-i, t 2^-(i-1)]
  for i = m .. 1, with the fewest halvings m that bring the first within
  ``_SEGMENT_STEPS`` expected steps; each later segment starts by zeroing
  the lowest levels by the band's rule, and is uniformized at the largest
  rate over the levels left (sir140: 1,300 expected steps in 6 segments);
* the second run steps on from x_j, with its step index and dropped mass,
  so it repeats the first run's iterates bit for bit, and each block weighs
  its own levels from its own j to its cut (sir140: the last 39 of 539).
  Each weighted iterate is added over the states [lo, hi] that hold its
  mass only, state-major; every other state of it is zero.

Both kernels read one assembly (``_generator``) of a batch's chains as the
blocks of one block-diagonal generator, each padded to the largest chain
with empty rows, so the padding is never read or written and every mat-vec
row stays per state and per block.  The adaptive kernel holds its Q_off^T
and iterate state-major (above); its Q_off^T is the assembly's entries
transposed by one ``csr_tocsc``, with the indices renumbered.  The plain
kernel (``_Blocks``) holds its blocks one after another, block-major, and
turns the assembly, sorted by row, into one block-diagonal P: q / Lambda off
the diagonal and 1 - e / Lambda on it, within a few ulps of I + Q / Lambda.
One stepping routine (``_iterates``) steps it: each step is one call of
scipy's CSR mat-vec kernel over the prefix of blocks that still need steps
(``csr_matvecs`` for several vectors of a block, which gives each the bits
of its own ``csr_matvec``).  Blocks are sorted by descending Lambda, so a
block that is done drops off the end of the prefix once every block after
it is.  Every Poisson window of a pass comes from one vectorized call
(``_poisson_windows``).

* Every plain pass is a series pass, which steps backward: u_k = P^k v
  for every vector of a block at once, and keeps the series start . u_k =
  x_k . v per block and vector from step 0; each (vector, time) column is
  one Poisson-weighted sum over its window of that series.  Each step's
  dots are one more CSR mat-vec, of a reader matrix that holds the start's
  nonzeros with one row per (block, vector) in block-major order, so each
  row is summed in state order, whatever the padding or batch.
* Its steady-state cut: P is stochastic, so each entry of P u is a convex
  combination of u's entries, and over a block's states min u_k never
  falls and max u_k never rises.  For j > K, x_j . v = x_(j-K) . u_K, where
  x_(j-K) is nonnegative with the start's mass m (at most 1), so it lies in
  [m min u_K, m max u_K], as x_K . v = start . u_K does: every later term
  is within span(u_K) = max u_K - min u_K of it (Sericola 1999 uses the
  same monotone bounds to detect stationarity).  Every ``_SPAN_EVERY``
  steps, a block's vector whose span over the block's own states (its
  padding left out) is within epsilon * 2^-16 is cut at that step K: its
  columns keep their weights up to K and give the rest of their window to
  start . u_K, also when K comes before the window's left truncation
  point.  The test first reads the gap between the two states where v is
  largest and smallest, which bounds the span from below, and takes the
  span only where that gap is within the share.  The pass ends when every
  block is cut or has reached its last window end.  The argument needs no
  ergodicity: a span that never closes (two closed classes, a target that
  some states cannot reach) is never cut, and its block runs to its window
  end as without the cut (buffer, t = 25: every block cut within 224-400
  of 3,755 steps; tandem reach: none).  Each test reads one block's own
  rows at fixed steps, so a value is the same bits in any batch.
* An interval measure with t_lo > 0 is F(t_hi) - F(t_lo), with F(t) the
  reach by t from the initial distribution, the target absorbing: a path
  first enters the target inside [t_lo, t_hi] iff it is in the target at
  t_hi but not at t_lo (``_Blocks.interval``).  t_lo is one more column of
  the target's pass, so one pass serves the group, and the plain kernel
  keeps one matrix, P, and one pass kind.  ``transient_distribution``
  alone steps one chain forward, x_(k+1) = x_k P by P^T.

In both kernels everything computed per block is computed as in a batch of
one, so a chain's results are the same bits in any batch.

Batches are consecutive chains (``_batches``) holding at most
``DEFAULT_STATE_CAP`` states, counted padded, and keeping at most
``DEFAULT_STATE_CAP`` floats of series, counted from each chain's largest
exit rate and the largest measure time; a chain above either cap goes alone.
Exact and approximate mode both batch the full chains of consecutive
valuations.  Both kernels step in place, so an iterate they yield is valid
only until the next step.

Error budget of a measure, for epsilon >= ``MIN_EPSILON``.  Every iterate and
weight is nonnegative.  The first four items only lose mass, each at most its
share over s, and a value weighs lost mass by at most s; a plain pass has
none of them, and loses only the steady-state cut and the last three:

* Dropped mass: at most epsilon / (8 s) per adaptive pass and block in exact
  mode.  The mass dropped at step k would have followed the chain from the
  k-th birth epoch on, so it is all that is lost.
* Birth tail: at most epsilon * 2^-16 / s per adaptive pass and column: the
  mass of the levels after the cut, P(N_t > K), which a bound proves small.
* Birth head (phase one only): at most epsilon * 2^-16 / s per block: the
  weight of the levels before the saved iterate, P(N_t < j), which the
  Chernoff bound proves small.
* Zeroed birth levels: at most epsilon * 2^-17 / s per adaptive pass and
  birth chain, over all its band advances and segment starts (phase one has
  one chain per block).
* An adaptive interval measure spends the dropped-mass, tail and
  zeroed-level shares twice, once per phase, and the head share once (phase
  one's values weigh its lost mass by at most 1), so these four items
  together cost at most epsilon / 4 + epsilon * 2^-14.
* Steady-state cut (plain series passes): at most epsilon * 2^-16 per pass
  and column, the span of u_K (above) weighed by the start's mass.  Its
  rounding slack: the stored P is stochastic only within rounding, as a row
  of r entries sums to 1 within (r + 2) u (u = 2^-53) and a diagonal entry
  may round to -2u; with each mat-vec's own rounding (r u), a computed step
  may widen [min u_k, max u_k] by (2r + 8) u max|v|, and a flush moves an
  entry by less than 1e-280.  So a value cut at K lies within epsilon *
  2^-16 + (2K + N) (2r + 8) u max|v| of the uncut forward pass's over the
  same P, N its window end: about 8e-11 max|v| at K = N = 10^4 and r = 8,
  the order of the forward pass's own rounding.  A pass that is never cut
  loses nothing to it.  A plain interval measure with t_lo > 0 is the
  difference of two columns, so it spends this share and its slack twice,
  as the Poisson cut, the flush and the series dot below.
* Poisson cut: weights are accumulated by a stable mode-outward recurrence
  and cut once terms fall below 1e-30 of the peak; the retained weights are
  renormalized.  The discarded mass is far below ``MIN_EPSILON``, also
  summed over the few segments of a phase-one pass.
* Subnormal flush: draining mass leaves thousands of subnormal entries, which
  make every sparse mat-vec many times slower.  Every 64 steps the entries of
  the iterate below 1e-280 in magnitude are set to zero, so a pass of K
  steps over n states removes at most n * ceil(K/64) * 1e-280: below
  1e-250 under the 10^7-state cap for any pass shorter than 10^20 steps.  A
  backward series pass moves each entry of u_k, and so start . u_k, by at
  most ceil(K/64) * 1e-280.
* Series dot: each x_k . v is a sequential sum over the m nonzeros of v
  (on the plain kernel, start . u_k over the m nonzeros of the start).  Its
  terms are nonnegative, so the sum's relative error is at most (m - 1) * u
  with u = 2^-53 (one u more when v is not 0/1, for the products): about
  1.1e-12 at m = 10^4 states and 1.1e-9 at the 10^7-state cap, relative to
  a value of at most 1 or the largest reward.  An adaptive column's dot of
  its birth weights and that series adds K + 1 terms more, in the same way.

Approximate mode (``_bound_valuations``) is the same pass, with a drop
budget of min(delta, epsilon / 8) / s per adaptive pass and block: lower is
the computed value and upper = lower + s times the mass the measure's passes
dropped up to its last cut.  Only dropped mass widens the interval, as the
exact value weighs it by at most s; the other losses stay inside epsilon, as
in exact mode, so lower - epsilon <= exact <= upper + epsilon.  Plain chains
drop nothing: their steady-state cut is one of the losses inside epsilon,
and their gap stays 0.  With delta >= epsilon / 8 (the default 1e-2 for
epsilon up to 0.08), lower is exact mode's value bit for bit.  An open gap
reruns with a tenth of the budget; a budget of 0 drops nothing.  Exact mode, refinement and
approximate mode all run through that one loop: exact mode is its first round
at the budget epsilon / 8 without the gap test, keeping lower.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Union

import numpy as np

from ._csr import csr_matvec, csr_matvecs, csr_tocsc
from .model import (
    DEFAULT_STATE_CAP,
    ConcreteCtmc,
    ParametricCtmc,
    Valuation,
    build_full,
)

MIN_EPSILON = 1e-12
_POISSON_CUTOFF = 1e-30
_WINDOW_CHUNK = 1 << 17  # floats per side of one chunk of Poisson windows
_FLUSH_BELOW = 1e-280
_DROP_SHARE = 1 / 8  # of epsilon: dropped mass per adaptive pass
_DROP_BELOW = 1e-6  # of epsilon: the dropping threshold theta
_TAIL_SHARE = 2.0**-16  # of epsilon: birth-process tail per adaptive pass
_HEAD_SHARE = 2.0**-16  # of epsilon: birth levels before the saved iterate
_LEVEL_SHARE = 2.0**-17  # of epsilon: birth levels zeroed per pass
_SEGMENT_STEPS = 1024  # most expected steps of a first birth-weight segment
_FLUSH_EVERY = 64
_WIDE_BATCH = 40  # blocks from which a per-block reduction runs along the states
_WINDOW = 16  # adaptive steps per evaluation of a pass's bookkeeping
_SPAN_SHARE = 2.0**-16  # of epsilon: a plain series pass's steady-state cut
_SPAN_EVERY = 16  # plain series steps per test of the cut

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
        repeated = sorted({i for i in ids if ids.count(i) > 1})
        if repeated:
            raise CheckerError(f"measure ids must be unique: {', '.join(repeated)} repeated")

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


def _generator(chains: Sequence[ConcreteCtmc], absorbing: Sequence):
    """The chains' generators as one block-diagonal matrix, every block padded
    to the largest chain with empty rows: the states of each block, the exit
    rates (chains, states) and the off-diagonal entries (rows, cols, rates)
    by row, in flat padded indices.  Self-loops cancel, and the rows of
    absorbing states (one set per chain, None: nothing absorbs) are empty.
    Each exit rate adds its row's entries in stored order."""
    size = max(c.num_states for c in chains)
    counts = np.zeros((len(chains), size), dtype=np.int64)
    frozen = np.zeros((len(chains), size), dtype=bool)
    for b, (c, a) in enumerate(zip(chains, absorbing)):
        counts[b, :c.num_states] = np.diff(c.indptr)
        if a is not None:
            frozen[b, :c.num_states] = a
    rows = np.repeat(np.arange(counts.size), counts.ravel())
    cols = np.concatenate([c.indices.astype(np.int64) + b * size
                           for b, c in enumerate(chains)])
    data = np.concatenate([c.data for c in chains])
    keep = (cols != rows) & ~frozen.ravel()[rows]
    rows, cols, data = rows[keep], cols[keep], data[keep]
    # with no entry left, bincount returns integers
    exits = np.bincount(rows, data, minlength=counts.size).astype(float)
    states = np.array([c.num_states for c in chains])
    return states, exits.reshape(counts.shape), (rows, cols, data)


def _by_rows(n: int, rows: np.ndarray, cols: np.ndarray, data: np.ndarray):
    """CSR arrays (indptr, indices, data) of the n x n matrix with the entries
    (rows, cols, data), given by row; each row keeps its entries in that
    order."""
    idx = np.int32 if max(n, data.size) < 2**31 else np.int64
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n)))).astype(idx)
    return indptr, cols.astype(idx), data


def _transposed(n: int, indptr: np.ndarray, indices: np.ndarray, data: np.ndarray):
    """CSR arrays of the transpose of an n x n CSR matrix; each row of the
    transpose holds its entries in column order."""
    out = np.empty_like(indptr), np.empty_like(indices), np.empty_like(data)
    csr_tocsc(n, n, indptr, indices, data, *out)
    return out


def _poisson_span(lam_t: float) -> int:
    """More terms than a Poisson window of ``lam_t`` keeps on either side of
    its mode."""
    return int(20.0 * math.sqrt(lam_t)) + 100


def _poisson_windows(lam_ts) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Left truncation points and renormalized Poisson weights of every entry
    of ``lam_ts``: (k_lo in the shape of ``lam_ts``, offsets, weights), where
    entry i (in flat order) has the weights ``weights[offsets[i]:offsets[i +
    1]]``.

    From the mode outward, each side is the running product (``np.cumprod``,
    which multiplies in order) of the ratios of neighbouring terms, cut at the
    first term at or below ``_POISSON_CUTOFF``; the right side keeps that
    term.  Rows are computed in chunks over a common width, about where the
    cut of the chunk's largest rate lies; rows whose cut lies beyond are
    computed again twice as wide.  A term's bits do not depend on the width.
    Each window is divided by its own sum (one ``np.add.reduceat`` over all
    windows: the first term plus numpy's pairwise sum of the others), so
    every entry gets the bits it would get alone.
    """
    lam_ts = np.asarray(lam_ts, dtype=float)
    flat = lam_ts.ravel()
    mode = flat.astype(np.int64)
    left_kept = np.zeros(flat.size, dtype=np.int64)
    right_kept = np.full(flat.size, -1, dtype=np.int64)  # a zero rate keeps [1.0]
    width = (12.0 * np.sqrt(flat)).astype(np.int64) + 40
    todo, chunks = np.flatnonzero(flat > 0.0), []
    with np.errstate(divide="ignore", invalid="ignore"):
        while todo.size:
            span = int(width[todo].max())
            steps = np.arange(span)
            rows = max(1, _WINDOW_CHUNK // span)
            for i in range(0, todo.size, rows):
                chunk = todo[i:i + rows]
                lam_t, top = flat[chunk, None], mode[chunk, None]
                right = np.cumprod(lam_t / (top + 1 + steps), axis=1)
                left = np.cumprod((top - steps) / lam_t, axis=1)
                # both sides are nonincreasing, so the terms above the cut lead
                right_n = np.count_nonzero(right > _POISSON_CUTOFF, axis=1)
                left_n = np.count_nonzero(left > _POISSON_CUTOFF, axis=1)
                done = (right_n < span) & ((left_n < span) | (mode[chunk] <= span))
                width[chunk[~done]] *= 2
                chunk, left_n, right_n = chunk[done], left_n[done], right_n[done]
                left_kept[chunk], right_kept[chunk] = left_n, right_n
                chunks.append((chunk, left[done][steps < left_n[:, None]],
                               right[done][steps <= right_n[:, None]]))
            todo = np.flatnonzero((flat > 0.0) & (right_kept < 0))
    lengths = left_kept + right_kept + 2
    offsets = np.concatenate(([0], np.cumsum(lengths)))
    weights = np.ones(offsets[-1])
    for chunk, left, right in chunks:
        # the mode's 1 sits after the kept left terms, reversed, and before
        # the kept right terms
        mode_at = offsets[chunk] + left_kept[chunk]
        weights[np.repeat(mode_at, left_kept[chunk]) - 1 - _ranks(left_kept[chunk])] = left
        counts = right_kept[chunk] + 1
        weights[np.repeat(mode_at, counts) + 1 + _ranks(counts)] = right
    # every window is nonempty, so each sum reads its own entries only
    weights /= np.repeat(np.add.reduceat(weights, offsets[:-1]), lengths)
    return (mode - left_kept).reshape(lam_ts.shape), offsets, weights


def _ranks(counts: np.ndarray) -> np.ndarray:
    """0, 1, ..., c - 1 for each count c, concatenated."""
    return np.arange(int(counts.sum())) - np.repeat(np.cumsum(counts) - counts, counts)


def _iterates(matrix: tuple, v: np.ndarray, live: list):
    """Yield the successive iterates A^k v, k = 0, 1, ..., while k <
    ``len(live)``.

    ``v`` is (blocks, states) or (blocks, states, vectors), and ``matrix``
    A, CSR arrays (indptr, indices, data), maps each block to itself; the
    vectors of a block step together, in one ``csr_matvecs``, and each gets
    the bits of its own ``csr_matvec``.  Step k updates and yields only the
    first ``live[k]`` blocks (``live`` is nonincreasing, and read at each
    step, so the caller may lower or drop its later entries as blocks
    finish).
    Each step calls scipy's CSR mat-vec kernel directly on two preallocated
    buffers that take turns, so a yielded array is valid only until the
    generator resumes: use or copy it before asking for the next one.
    Every ``_FLUSH_EVERY`` steps the entries of magnitude below
    ``_FLUSH_BELOW`` are set to zero (see the module docstring for the mass
    this may remove).
    """
    indptr, indices, data = matrix
    cur = np.array(v, dtype=float)
    nxt = np.empty_like(cur)
    width = cur[0, 0].size
    blocks = -1
    for k in itertools.count():
        if k == len(live):
            return
        if live[k] != blocks:
            blocks = live[k]
            rows = blocks * cur.shape[1]
            cur, nxt = cur[:blocks], nxt[:blocks]
            cur_flat, nxt_flat = cur.reshape(-1), nxt.reshape(-1)
        if k:
            # the kernel adds A v into its output buffer
            nxt_flat.fill(0.0)
            if width == 1:
                csr_matvec(rows, rows, indptr, indices, data, cur_flat, nxt_flat)
            else:
                csr_matvecs(rows, rows, width, indptr, indices, data, cur_flat, nxt_flat)
            cur, nxt, cur_flat, nxt_flat = nxt, cur, nxt_flat, cur_flat
            if not k % _FLUSH_EVERY:
                cur_flat[np.abs(cur_flat) < _FLUSH_BELOW] = 0.0
        yield cur


def _reader(vectors: np.ndarray, numbering: np.ndarray):
    """CSR arrays of the dots x . v of a (blocks, vectors, states) stack,
    for an x whose entry (block b, state i) sits at flat index
    ``numbering[b, i]``: one row per (block, vector) in block-major order,
    holding v's nonzeros, so the rows of a prefix of blocks are a prefix and
    each row is a sequential sum in state order, whatever the padding, batch
    or numbering."""
    blocks, width, size = vectors.shape
    vectors = vectors.reshape(blocks * width, size)
    rows, states = np.nonzero(vectors)
    idx = np.int32 if max(rows.size, blocks * size) < 2**31 else np.int64
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=len(vectors)))))
    indices = numbering[rows // width, states]
    return indptr.astype(idx), indices.astype(idx), vectors[rows, states]


def _state_major(flat: np.ndarray, shape: tuple) -> np.ndarray:
    """Block-major flat indices b * states + i of a (blocks, states) array as
    state-major ones, i * blocks + b."""
    blocks, size = shape
    flat = flat.astype(np.int64)
    return flat % size * blocks + flat // size


def _block_max(flat: np.ndarray, blocks: int) -> np.ndarray:
    """Per block, the largest entry of a state-major (states, blocks) array
    given flat.  A reduction along the states runs one inner loop per state,
    over the blocks, which costs far more than the data when the blocks are
    few (2 blocks, 3,000 states: 105-120 us against 8 us transposed first);
    from about 40 blocks the transposed copy costs more (100 blocks, 216
    states: 12-18 us along the states against 23-32 us transposed)."""
    rows = flat.reshape(-1, blocks)
    return rows.max(axis=0) if blocks >= _WIDE_BATCH else np.ascontiguousarray(rows.T).max(axis=1)


class _Blocks:
    """Uniformized chains of one batch as one block-diagonal P.

    Chains may differ in size: every block is padded to the largest chain
    with empty rows, which no entry of P reads or writes.  Blocks are sorted
    by descending Lambda (ties in batch order): a pass steps only the prefix
    of blocks that still need steps, so a block that is done drops off its
    end once every block after it is.  Each block keeps its own Lambda,
    Poisson windows and cuts, and every per-block quantity (mat-vec rows,
    the series, the span test, Poisson weighting, flush) is computed exactly
    as for a batch of one.  Arrays in and out are (chains, ...) in batch
    order, with states padded to the largest chain.  Every pass is a series
    pass (``series``), which steps P backward; an interval measure is the
    difference of two of its columns (``interval``), and drops no mass.
    """

    def __init__(self, states: np.ndarray, exits: np.ndarray, entries: tuple,
                 epsilon: float = MIN_EPSILON):
        """P of a generator as ``_generator`` returns it: each block's P holds
        q / Lambda off the diagonal and 1 - e / Lambda on it, with Lambda its
        largest exit rate e, zeros dropped; a block without rate has no
        entries.  ``p`` holds its CSR arrays (indptr, indices, data).  A
        series pass cuts a block's vector once its span is within epsilon *
        ``_SPAN_SHARE``."""
        blocks, self.size = exits.shape  # states per block, padded
        lam = exits.max(axis=1, initial=0.0)
        self.order = np.argsort(-lam, kind="stable")
        self.lam = lam[self.order]
        self.span_share = epsilon * _SPAN_SHARE
        inv = np.divide(1.0, lam, out=np.zeros_like(lam), where=lam > 0.0)
        # P by rows: the off-diagonal entries, then each state's stay
        stay = np.flatnonzero((np.arange(self.size) < states[:, None]) & (lam > 0.0)[:, None])
        rows, cols, rates = entries
        rows, cols = np.concatenate((rows, stay)), np.concatenate((cols, stay))
        block = rows // self.size
        data = np.concatenate((rates, exits.ravel()[stay])) * inv[block]
        data[len(rates):] = 1.0 - data[len(rates):]
        # each block moves to its place in Lambda order
        shift = (np.argsort(self.order) - np.arange(blocks))[block] * self.size
        rows, cols, keep = rows + shift, cols + shift, data != 0.0
        by_row = np.argsort(rows[keep], kind="stable")
        self.p = _by_rows(exits.size, *(a[keep][by_row] for a in (rows, cols, data)))
        self.states = states[self.order]

    @classmethod
    def uniformized(cls, chains: Sequence[ConcreteCtmc], absorbing: Sequence,
                    epsilon: float = MIN_EPSILON) -> "_Blocks":
        """The chains with one absorbing set each (None: nothing absorbs)."""
        return cls(*_generator(chains, absorbing), epsilon)

    @staticmethod
    def _live(need: np.ndarray) -> list:
        """Per step k < max(need), the prefix of blocks (in block order) that
        includes every block with need > k."""
        live = np.maximum.accumulate(need[::-1])[::-1]  # nonincreasing
        steps = int(live[0]) if live.size else 0
        return np.searchsorted(-live, -np.arange(steps), side="left").tolist()

    def _unsorted(self, values: np.ndarray) -> np.ndarray:
        out = np.empty_like(values)
        out[self.order] = values
        return out

    @staticmethod
    def _windows(lam_ts: np.ndarray):
        """Poisson windows of every block and time (``_poisson_windows``, in
        one call) of ``lam_ts`` (blocks, times): k_lo (blocks, times), offsets
        and weights, then the steps each block needs."""
        k_lo, offsets, weights = _poisson_windows(lam_ts)
        ends = k_lo + np.diff(offsets).reshape(k_lo.shape)
        return k_lo, offsets, weights, ends.max(axis=1)

    def series(self, start: np.ndarray, vectors: np.ndarray,
               columns: Sequence[tuple[int, float]]) -> np.ndarray:
        """pi_t . v per chain and column (j, t), with pi_0 = ``start`` and
        v = ``vectors[:, j]``: the Poisson-weighted sum of start . u_k.

        ``start`` is (chains, states) and ``vectors`` (chains, vectors,
        states).  One pass serves every column: it steps backward, u_k = P^k
        v for every vector of a block at once, and keeps the series start .
        u_k, each step's one CSR mat-vec of a reader that holds the start's
        nonzeros per (block, vector).  Every ``_SPAN_EVERY`` steps, a block's
        vector whose span over the block's own states is within
        ``span_share`` is cut at that step K: its columns keep their weights
        up to K and give the rest of their window to start . u_K.  The pass
        ends when every block is cut or has reached its last window end.
        """
        start = np.asarray(start, dtype=float)[self.order]
        vectors = np.asarray(vectors, dtype=float)[self.order]
        blocks, width, size = vectors.shape
        # u_k is (blocks, states, vectors); the reader's row (block b, vector
        # j) holds start[b] at the entries of (b, j)
        u = np.ascontiguousarray(vectors.transpose(0, 2, 1))
        numbering = np.arange(u.size).reshape(u.shape).transpose(0, 2, 1)
        reader = _reader(np.repeat(start, width, axis=0)[:, None],
                         numbering.reshape(blocks * width, size))
        # the span over a block's own states is at least the gap between the
        # states where v is largest and smallest, which is tested first
        own = np.arange(size)[:, None] < self.states[:, None, None]
        low, high = np.where(own, u, np.inf), np.where(own, u, -np.inf)
        probe = np.stack((high.argmax(axis=1), low.argmin(axis=1)))
        probe = (probe + np.arange(blocks)[:, None] * size) * width + np.arange(width)
        times = list(dict.fromkeys(t for _, t in columns))
        k_lo, offsets, window, need = self._windows(np.multiply.outer(self.lam, times))
        steps = int(need.max())
        series = np.zeros((steps, blocks * width))
        cuts, spans = np.full((blocks, width), -1), np.zeros((blocks, width))
        live = self._live(need)
        for k, u_k in enumerate(_iterates(self.p, u, live)):
            n = len(u_k)
            csr_matvec(n * width, u_k.size, *reader, u_k.reshape(-1), series[k])
            if k % _SPAN_EVERY == 0:
                gap = np.subtract(*u_k.reshape(-1)[probe[:, :n]])
                new = (np.abs(gap) <= self.span_share) & (cuts[:n] < 0)
                if new.any():
                    span = (np.where(own[:n], u_k, -np.inf).max(axis=1)
                            - np.where(own[:n], u_k, np.inf).min(axis=1))
                    new &= span <= self.span_share
                    cuts[:n][new], spans[:n][new] = k, span[new]
                    # a block with every vector cut needs no step after k
                    need = np.where((cuts >= 0).all(axis=1), np.minimum(need, k + 1), need)
                    live[k + 1:] = self._live(need)[k + 1:]
        # contiguous rows, so that each weighted sum reads its window in
        # order; a cut row holds start . u_K from K on
        series = np.ascontiguousarray(series.T)
        for row in np.flatnonzero(cuts.ravel() >= 0):
            series[row, cuts.flat[row] + 1:] = series[row, cuts.flat[row]]
        at = [times.index(t) for _, t in columns]
        values = np.empty((blocks, len(columns)))
        for b in range(blocks):
            for c, (j, _) in enumerate(columns):
                first = k_lo[b, at[c]]
                a, z = offsets[b * len(times) + at[c]:][:2]
                values[b, c] = window[a:z] @ series[b * width + j, first:first + z - a]
        done = (cuts >= 0).all(axis=1)
        message = "plain series pass to t=%g: %d blocks, %d of %d steps, %d blocks cut"
        args = [max(times), blocks, k + 1, steps, int(done.sum())]
        if done.any():
            message += " at steps %d-%d, largest span at a cut %.3g"
            last = cuts.max(axis=1)[done]
            args += [last.min(), last.max(), spans[cuts >= 0].max()]
        log.debug(message, *args)
        return self._unsorted(values)

    def interval(self, initial: np.ndarray, targets: np.ndarray, t_lo: float,
                 vectors: np.ndarray, columns: Sequence[tuple[int, float]]):
        """``series`` from ``initial`` for windows [t_lo, t] that must be
        entered from outside the targets, which are absorbing; with t_lo = 0
        it is ``series``.  Returns the values and, per chain, the mass
        dropped: none.

        A path first enters the target inside [t_lo, t] iff it is there at t
        but not at t_lo, so a value is F(t) - F(t_lo), with F the reach from
        ``initial``; t_lo is one more column of the same pass.
        """
        if t_lo > 0.0:
            found = self.series(initial, vectors, [*columns, (0, t_lo)])
            values = found[:, :-1] - found[:, -1:]
        else:
            values = self.series(initial, vectors, columns)
        return values, np.zeros(len(initial))


class _Adaptive:
    """Full chains of one batch, one absorbing set per chain, checked by
    adaptive uniformization (see the module docstring).

    The off-diagonal rates and exit rates of the batch's generator
    (``_generator``) form one block-diagonal Q^T and the per-block scaling,
    both held state-major, as the iterate is (``_steps``).
    ``scale`` (per chain, >= 1) divides the chain's error shares: the
    largest magnitude of the vectors its passes weigh.  ``drop`` is the drop
    budget before that division, at most epsilon / 8.  Every per-block
    quantity (mat-vec rows, dropped mass, Lambda_k, the tail bounds and cuts,
    the birth chains) is computed from that block alone, with per-block sums
    in state or step order, and a column's cut and birth chain depend only on
    its own time, so a value is the same bits in any batch and measure set.
    Arrays in and out are (chains, ...) in batch order.  After each pass,
    ``dropped`` holds per chain the mass its block dropped up to its last
    cut.
    """

    def __init__(self, chains: Sequence[ConcreteCtmc], absorbing: Sequence, epsilon: float,
                 scale: np.ndarray, drop: float):
        _, exits, (rows, cols, rates) = _generator(chains, absorbing)
        size = exits.shape[1]
        self.top = exits.max(axis=1)
        self.exits = exits.T.ravel()  # state-major: (state i, block b) at i * blocks + b
        # Q_off^T with state-major rows and columns: csr_tocsc numbers the
        # rows of the transpose (the targets) state-major, and keeps each
        # row's sources in block-major order, which within one block is
        # state order, as before the remap
        indptr, indices, data = _transposed(exits.size, *_by_rows(
            exits.size, rows, _state_major(cols, exits.shape), rates))
        self.qt = indptr, _state_major(indices, exits.shape).astype(indices.dtype), data
        # per state, the lowest and highest state any state from it on (up
        # to it) moves to in some block, itself included
        low, high, source, target = np.arange(size), np.arange(size), rows % size, cols % size
        np.minimum.at(low, source, target)
        np.maximum.at(high, source, target)
        self.low = np.minimum.accumulate(low[::-1])[::-1]
        self.high = np.maximum.accumulate(high)
        self.share = drop / scale
        self.below = np.tile(epsilon * _DROP_BELOW / scale, size)
        self.log_tail = np.log(epsilon * _TAIL_SHARE / scale)
        self.log_head = np.log(epsilon * _HEAD_SHARE / scale)
        self.level_share = epsilon * _LEVEL_SHARE / scale
        self.rows = self.steps = 0  # band states stepped, and steps

    def _steps(self, start: np.ndarray, first: int = 0, dropped: Optional[np.ndarray] = None):
        """Yield (x_k, Lambda_k, dropped mass so far) per block, k = first,
        first + 1, ...

        Before Lambda_k is read, the entries of x_k below the block's
        threshold are zeroed if its dropped mass stays within its share by
        it.  The iterate is held state-major, a copy of ``start``, and is
        stepped in place: use a yielded x_k, a (chains, states) view, before
        resuming.  Started from a yielded x_j, its step index j and its
        dropped mass, the steps repeat the iterates from x_j on bit for bit:
        the flush and the dropping leave x_j as it is.

        The states [lo, hi] that hold mass in some block are one row slice,
        and every step reads and writes the rows [low[lo], high[hi]] only:
        the flush, the screen, Lambda_k, one CSR mat-vec over those rows of
        Q_off^T and the update.  The rows outside hold zeros, which the full
        step would leave as they are, so every entry gets the bits of a step
        over all states.  The per-entry rate and Lambda_k - e are rebuilt
        when some Lambda_k changes, and extended as the rows grow.  ``held``
        is [lo, hi) of the yielded x_k: it is zero in every other state.
        """
        blocks = len(self.share)
        # a copy, never the caller's memory
        x = np.array(np.asarray(start, dtype=float).T, order="C").reshape(-1)
        view = x.reshape(-1, blocks).T
        y, rate, scaled = np.zeros_like(x), np.empty_like(x), np.empty_like(x)
        dropped = np.zeros(blocks) if dropped is None else dropped
        indptr, indices, data = self.qt
        a, z = 0, len(x) // blocks  # rows that may hold mass: [a, z)
        known = [0, 0]  # rows where rate and scaled hold the step's Lambda_k
        stepped = None  # the Lambda_k they hold

        def refresh(lo, hi):
            rows = slice(lo * blocks, hi * blocks)
            rate[rows] = np.repeat(divisor, hi - lo, axis=0).reshape(-1)
            np.subtract(rate[rows], self.exits[rows], out=scaled[rows])

        self.rows = self.steps = 0
        for k in itertools.count(first):
            held = x[a * blocks:z * blocks]
            if k and not k % _FLUSH_EVERY:
                held[held < _FLUSH_BELOW] = 0.0
            positive = held > 0.0
            small = np.flatnonzero(positive & (held < self.below[a * blocks:z * blocks]))
            if small.size:
                # per-block sums in state order
                of = small % blocks
                mass = np.bincount(of, held[small], minlength=blocks)
                fits = dropped + mass <= self.share
                if fits.any():
                    dropped = np.where(fits, dropped + mass, dropped)
                    small = small[fits[of]]
                    held[small] = 0.0
                    positive[small] = False
            hit = int(positive.argmax())
            if positive[hit]:
                lo = a + hit // blocks
                hi = a + (positive.size - 1 - int(positive[::-1].argmax())) // blocks + 1
                live = positive[(lo - a) * blocks:(hi - a) * blocks]
                lam = _block_max(self.exits[lo * blocks:hi * blocks] * live, blocks)
            else:
                lo = hi = a
                lam = np.zeros(blocks)
            self.held = lo, hi
            yield view, lam, dropped
            if not positive[hit]:
                continue  # no mass left to move
            # x_{k+1} = ((Lambda_k - e) x_k + Q_off^T x_k) / Lambda_k, where
            # Lambda_k >= e on the support, so every term is nonnegative; a
            # block without rate keeps x_k
            a, z = int(self.low[lo]), int(self.high[hi - 1]) + 1
            if stepped is None or (lam != stepped).any():
                stepped, divisor = lam, np.where(lam > 0.0, lam, 1.0)[None]
                known = [a, a]
            if a < known[0]:
                refresh(a, known[0])
                known[0] = a
            if z > known[1]:
                refresh(known[1], z)
                known[1] = z
            rows = slice(a * blocks, z * blocks)
            out = y[rows]
            out.fill(0.0)
            csr_matvec(z * blocks - a * blocks, x.size, indptr[rows.start:rows.stop + 1],
                       indices, data, x, out)
            band = x[rows]
            band *= scaled[rows]
            band += out
            band /= rate[rows]
            self.rows, self.steps = self.rows + z - a, self.steps + 1

    def _pass(self, start: np.ndarray, times: np.ndarray, reader=None, save: bool = False):
        """One adaptive pass from ``start`` until, for every block and time t,
        the birth process's tail P(N_t > K) is within the block's share.

        Returns the rates Lambda_k (chains, steps), the cuts (chains, times),
        each the first K whose tail bound meets the share, with ``reader``
        the series x_k . v (steps, chains * vectors), and with ``save`` (one
        time) the iterate a second run starts from (``_Head``): (x_j, j, the
        dropped mass at j, each block's first weighed level).  The tail is P(T_0 + ...
        + T_K <= t) with T_k ~ Exp(Lambda_k), and its bound is the smallest of
        three, each from running per-block sums:

        * prod(Lambda_k t) / (K + 1)!, as the densities are at most Lambda_k;
        * exp(-(m - t)^2 / 2v) for t < m = sum 1/Lambda_k, v = sum
          1/Lambda_k^2 (Chernoff, with log(1 + x) >= x - x^2/2);
        * exp(-mu) (e mu / (K + 1))^(K + 1) for K + 1 > mu = L t (Chernoff for
          Poisson(mu), which dominates N_t when L is the block's largest exit
          rate), so a pass ends within the steps the plain kernel would take
          (its window ends where the terms fall below 1e-30).

        A block without rate keeps its mass: its tail is 0.

        The pass keeps each step's Lambda_k, dropped mass and series, and
        evaluates its bookkeeping once per window of ``_WINDOW`` steps: the
        running sums (``np.add.accumulate`` on from the last window's, the
        same sequential additions), every step's bounds and each column's
        first cut, and ``_Head``'s test, each step as alone.  A window ends
        early at a step whose Lambda_k is 0 in every block with a column
        left, as log 0 cuts them all there: that is how a pass whose mass
        drains ends.  Otherwise it may step up to ``_WINDOW`` - 1 steps past
        the last cut; what it returns is trimmed to the last cut, and every
        cut and level is the one a test at every step finds.  While no block
        has settled, it copies the iterate at each window start, with its
        step index and dropped mass; when the first blocks settle at level j
        inside the window, it steps from that copy to x_j again, which
        repeats the first run bit for bit (``_steps``).
        """
        blocks = len(start)
        with np.errstate(divide="ignore"):
            log_times = np.log(times)
            poisson = self.top[:, None] * times
            log_poisson = np.log(poisson)
        cuts = np.where(times == 0.0, 0, -1) + np.zeros((blocks, 1), dtype=np.int64)
        tails = np.full(cuts.shape, -np.inf)
        # running sums of 1/Lambda_k, 1/Lambda_k^2 and log Lambda_k, per step
        # of the last window
        sums = np.zeros((1, 3, blocks))
        rates, series, drops = [], [], []
        head = _Head(float(times[0]), self.log_head) if save else None
        steps, saved, again, w = self._steps(start), None, 0, 0
        with np.errstate(divide="ignore", invalid="ignore"):
            while True:
                uncut = (cuts < 0).any(axis=1)
                for k, (x, lam, dropped) in zip(range(w, w + _WINDOW), steps):
                    if k == w and head is not None and saved is None:
                        # the state-major iterate, and what resumes it
                        copy = x.T.copy(), dropped
                    if reader is not None:
                        # x is a view of the state-major iterate, which is its F order
                        series.append(np.zeros(len(reader[0]) - 1))
                        csr_matvec(len(series[-1]), x.size, *reader, x.ravel("F"),
                                   series[-1])
                    rates.append(lam)
                    drops.append(dropped)
                    if not lam[uncut].any():
                        break  # log Lambda_k = -inf: every column left is cut at k
                lam = np.array(rates[w:])
                inverse = 1.0 / lam
                sums = np.add.accumulate(np.concatenate(
                    (sums[-1:], np.stack((inverse, inverse * inverse, np.log(lam)), axis=1))))
                mean, var, log_rates = sums[1:].transpose(1, 0, 2)
                # logs of the bounds per (step, block, time); fmin skips the
                # NaN of a block without rate, whose first bound is -inf
                levels = range(w + 1, w + len(lam) + 1)  # k + 1 per step
                n = np.array(levels, dtype=float)[:, None, None]
                log_factorial, log_n = np.array(
                    [(math.lgamma(i + 1), math.log(i)) for i in levels]).T[:, :, None, None]
                gap = np.maximum(mean[:, :, None] - times, 0.0)
                bound = np.fmin(n * log_times + log_rates[:, :, None] - log_factorial,
                                -gap * gap / (2.0 * var[:, :, None]))
                bound = np.fmin(bound, np.where(poisson < n, n - poisson + n * (
                    log_poisson - log_n), 0.0))
                hit = (bound <= self.log_tail[:, None]) & (cuts < 0)
                new, at = hit.any(axis=0), hit.argmax(axis=0)
                cuts[new] = w + at[new]
                tails[new] = bound[(at[new],) + np.nonzero(new)]
                if head is not None:
                    first = head.window(w, lam, mean, var, cuts[:, 0])
                    if first is not None:
                        # the band counts of the first run stay as they are;
                        # the re-step's own iterate is never stepped again
                        counts = self.rows, self.steps
                        saved = next(itertools.islice(
                            self._steps(copy[0].T, w, copy[1]), first - w, None))
                        saved = saved[0], first, saved[2], head.level
                        self.rows, self.steps = counts
                        again = first - w
                if (cuts >= 0).all():
                    break
                w += len(lam)
        last = int(cuts.max())
        rates = np.array(rates[:last + 1]).T
        # a block's values read its iterates up to its last cut only
        self.dropped = np.array(drops)[cuts.max(axis=1), np.arange(blocks)]
        message = ("adaptive pass to t=%g: %d blocks, %d-%d steps, mean band %.1f of %d states, "
                   "largest Lambda_0 %g, largest last Lambda_k %g, largest dropped mass %.3g, "
                   "largest birth tail %.3g, %d steps past the last cut")
        args = [times.max(), blocks, cuts.min(), last, self.rows / max(self.steps, 1),
                len(self.low), rates[:, 0].max(), rates[np.arange(blocks), cuts.max(axis=1)].max(),
                self.dropped.max(), math.exp(tails.max()), len(drops) - last - 1 + again]
        if saved is not None:
            message += ", saved level %d (second run %d steps)"
            args += [saved[1], last - saved[1] + 1]
        log.debug(message, *args)
        return rates, cuts, np.array(series[:last + 1]), saved

    def _weights(self, rates: np.ndarray, cuts: np.ndarray, times: np.ndarray):
        """P(N_t = k) for each block's birth process up to the cut K of time
        t, from the birth chain of the block's rates uniformized at
        max(Lambda_0 .. Lambda_K), so that they depend only on that block and
        t.  The (block, time) pairs of a block that share that rate share one
        chain, with the levels up to their largest cut and one absorbing level
        after them (``_Births``).  Returns the weights (times, levels, chains)
        and the chain of every (block, time)."""
        blocks = np.arange(len(rates))[:, None] + np.zeros_like(cuts)
        top = np.maximum.accumulate(rates, axis=1)[blocks, cuts]
        keys = np.stack((blocks.ravel(), top.ravel()))
        (block, lam), chain = np.unique(keys, axis=1, return_inverse=True)
        block, chain = block.astype(np.int64), chain.reshape(cuts.shape)
        last = np.zeros(len(block), dtype=np.int64)
        np.maximum.at(last, chain.ravel(), cuts.ravel())
        # a chain weighs only the times that name it; the others stay at t = 0
        lam_ts = np.zeros((len(times), len(block)))
        lam_ts[np.arange(len(times)), chain] = top * times
        births = _Births(_birth_rows(rates[block], last), lam, self.level_share[block],
                         np.zeros(len(block)))
        start = np.zeros((rates.shape[1] + 1, len(block)))
        start[0] = 1.0
        return births.transient(start, lam_ts), chain

    def transient(self, v: np.ndarray, t: float) -> np.ndarray:
        """pi_t per chain from pi_0 = v: the birth weights at t
        (``_birth_weights``), summed over a second run of the same
        deterministic pass from the iterate its first run saved.  Each
        weighted iterate is added state-major over the states that hold its
        mass (``_steps``' ``held``); it adds zeros everywhere else."""
        v = np.asarray(v, dtype=float)
        rates, cuts, _, (x, first, dropped, heads) = self._pass(v, np.array([t]), save=True)
        cuts = cuts[:, 0]
        weights = _birth_weights(rates, cuts, t, self.level_share)
        out = np.zeros(v.shape[::-1])
        for k, (x, _, _) in zip(range(first, int(cuts.max()) + 1),
                                self._steps(x, first, dropped)):
            lo, hi = self.held
            # a block weighs its own levels heads .. cut only
            out[lo:hi] += np.where((heads <= k) & (k <= cuts), weights[:, k], 0.0) * x.T[lo:hi]
        return np.ascontiguousarray(out.T)

    def series(self, start: np.ndarray, vectors: np.ndarray,
               columns: Sequence[tuple[int, float]]) -> np.ndarray:
        """pi_t . v per chain and column (j, t), as ``_Blocks.series``: each
        column weighs the kept series x_k . v up to its cut by its birth
        chain."""
        vectors = np.asarray(vectors, dtype=float)
        blocks, width, _ = vectors.shape
        times = list(dict.fromkeys(t for _, t in columns))
        numbering = np.arange(vectors.size // width).reshape(-1, blocks).T  # state-major
        rates, cuts, series, _ = self._pass(np.asarray(start, dtype=float), np.array(times),
                                            _reader(vectors, numbering))
        weights, chain = self._weights(rates, cuts, np.array(times))
        series = series.reshape(len(series), blocks, width)
        values = np.empty((blocks, len(columns)))
        for c, (j, t) in enumerate(columns):
            # one dot per block over its levels up to the column's cut, summed
            # in level order (cumsum is sequential along its axis, whatever
            # the batch); the levels past the cut add zeros
            at = times.index(t)
            terms = weights[at][:len(series), chain[:, at]] * series[:, :, j]
            terms[np.arange(len(series))[:, None] > cuts[:, at]] = 0.0
            values[:, c] = np.cumsum(terms, axis=0)[-1]
        return values

    def interval(self, initial: np.ndarray, targets: np.ndarray, t_lo: float,
                 vectors: np.ndarray, columns: Sequence[tuple[int, float]]):
        """``series`` for windows [t_lo, t] that must be entered from
        outside the targets, which are absorbing; with t_lo = 0 it is
        ``series`` from ``initial``.  Returns the values and, per chain, the
        mass that both phases dropped.

        Phase one steps to t_lo; mass sitting in the target at t_lo broke the
        left operand and is dropped (paths must avoid the target strictly
        before the window).  Phase two is first passage within t - t_lo.
        """
        start, dropped = initial, 0.0
        if t_lo > 0.0:
            start = np.where(~targets, self.transient(initial, t_lo), 0.0)
            dropped = self.dropped
        values = self.series(start, vectors, [(j, t - t_lo) for j, t in columns])
        return values, dropped + self.dropped


class _Head:
    """Per block of a one-time adaptive pass, the first level j it weighs.

    j is the level before the first whose bound on P(N_t < j) = P(T_0 + ...
    + T_(j-1) > t), T_i ~ Exp(Lambda_i), misses the block's share, or the
    block's cut if that comes first; the levels before j weigh at most the
    share together.  The bound is Chernoff's, -theta t + sum_(i<j)
    log(Lambda_i / (Lambda_i - theta)) for 0 < theta < min_(i<j) Lambda_i,
    at theta = min((t - m) / 2v, min_(i<j) Lambda_i / 2) with m = sum
    1/Lambda_i and v = sum 1/Lambda_i^2, where log(1 / (1 - x)) <= x + x^2
    for x <= 1/2 bounds it by -theta (t - m) + theta^2 v.  Level j + 1 is
    judged once Lambda_j is known, and a window of steps is judged at once,
    each step as alone; the pass saves x_j at the smallest j of the batch.
    Every quantity is per block, so j does not depend on the batch.
    """

    def __init__(self, t: float, log_share: np.ndarray):
        self.t, self.log_share = t, log_share
        self.low = np.full(len(log_share), np.inf)  # smallest rate so far
        self.level = np.full(len(log_share), -1, dtype=np.int64)  # j, once known

    def window(self, first: int, lam: np.ndarray, mean: np.ndarray, var: np.ndarray,
               cuts: np.ndarray) -> Optional[int]:
        """After steps k = first, first + 1, ..., with ``lam`` their Lambda_k,
        ``mean`` and ``var`` the sums of 1/Lambda_i and 1/Lambda_i^2 over i
        <= k (steps, blocks each) and the cuts so far: settle each block at
        the first step whose level k + 1 misses the share or that is its
        cut.  Returns the smallest level when these are the batch's first
        blocks to settle."""
        low = np.minimum.accumulate(np.concatenate((self.low[None], lam)), axis=0)[1:]
        self.low = low[-1]
        open_ = self.level < 0
        if not open_.any():
            return None
        gap = self.t - mean
        theta = np.minimum(gap / (2.0 * var), low / 2.0)
        fits = (gap > 0.0) & (theta * (theta * var - gap) <= self.log_share)
        settle = open_ & (~fits | (cuts == np.arange(first, first + len(lam))[:, None]))
        new = settle.any(axis=0)
        if not new.any():
            return None
        self.level[new] = first + settle.argmax(axis=0)[new]
        return int(self.level[new].min()) if open_.all() else None


class _Births:
    """Birth chains of one batch, uniformized and stepped level-major.

    Chain c moves from level k to k + 1 at ``rates[c, k]`` (chains, levels);
    a level of rate 0 keeps its mass, and the last level must be one.  At
    its uniformization rate ``lam[c]``, at least the rate of every level
    that holds mass, one step is x[k] = stay[k] x[k] + up[k - 1] x[k - 1],
    with up = rate * (1 / lam) and stay = 1 - up: the entries of (I + Q /
    lam)^T, in the chain's column.  A chain without rate keeps its mass.

    Iterates are (levels, chains), so the levels [lo, hi] that hold the
    mass of the live chains are one row slice, and a step updates only that
    band: hi grows by one level per step, and lo advances as the lowest
    levels are zeroed (``_zero_low``), every ``_FLUSH_EVERY`` steps with the
    flush.  Everything a chain computes reads only its own column, and its
    levels outside its own band are zeros that stay zero, so a chain's
    weights are the same bits in any batch.  ``lost`` (per chain, updated in
    place) is the mass zeroed so far, ``share`` its bound.
    """

    def __init__(self, rates: np.ndarray, lam: np.ndarray, share: np.ndarray,
                 lost: np.ndarray):
        inv = np.divide(1.0, lam, out=np.zeros_like(lam), where=lam > 0.0)
        self.up = np.ascontiguousarray(rates.T) * inv
        self.stay = 1.0 - self.up
        self.share, self.lost = share, lost
        self.rows = self.steps = 0  # band levels stepped, and steps

    def _views(self, x: np.ndarray, out: np.ndarray, lo: int, hi: int) -> tuple:
        """The band [lo, hi] of x and out, and what a step reads: up and x
        over lo .. hi - 1, stay over the band, and x over lo + 1 .. hi."""
        return (x[lo:hi + 1], out[:, lo:hi + 1], self.up[lo:hi], x[lo:hi],
                self.stay[lo:hi + 1], x[lo + 1:hi + 1])

    def transient(self, x: np.ndarray, lam_ts: np.ndarray) -> np.ndarray:
        """The distributions at every time, (times, levels, chains), from the
        start ``x`` (levels, chains), where ``lam_ts`` (times, chains) holds
        lam t; x is stepped in place.

        One pass serves every time: step k adds its Poisson weight (from
        ``_poisson_windows``) times the iterate, over the band and the times
        whose windows hold k.  Every chain steps until the last window of
        the batch ends, as a contiguous band steps faster than a strided
        one; at the first check after its own last weighed step a chain is
        cleared, without counting as lost.
        """
        times, chains = lam_ts.shape
        k_lo, offsets, window = _poisson_windows(lam_ts)
        k_lo, lengths = k_lo.ravel(), np.diff(offsets)
        ends = k_lo + lengths
        need = ends.reshape(times, chains).max(axis=0)
        steps, skip = int(need.max()), int(k_lo.min())
        # the Poisson weight of every step from skip on, time and chain, with
        # an axis that broadcasts over the levels: the weights of (time,
        # chain) entry e sit at steps k_lo[e], k_lo[e] + 1, ...
        weights = np.zeros((steps - skip, times, 1, chains))
        weights.reshape(-1)[np.repeat(np.arange(k_lo.size) + (k_lo - skip - offsets[:-1]) *
                                      k_lo.size, lengths)
                            + np.arange(offsets[-1]) * k_lo.size] = window
        # per step, the range of times with a window that holds it
        holds = ((k_lo.reshape(times, chains).min(axis=1)[:, None] <= np.arange(steps))
                 & (np.arange(steps) < ends.reshape(times, chains).max(axis=1)[:, None]))
        first_time = holds.argmax(axis=0).tolist()
        last_time = (times - holds[::-1].argmax(axis=0)).tolist()
        out = np.zeros((times,) + x.shape)
        rows = np.flatnonzero(x.any(axis=1))
        lo, hi, top = int(rows[0]), int(rows[-1]), len(x) - 1
        views = None  # of the band, while lo and hi stay
        for k in range(steps):
            if k:
                if hi < top:
                    hi, views = hi + 1, None
                views = views or self._views(x, out, lo, hi)
                band, into, up, below, stay, above = views
                moved = up * below
                band *= stay
                above += moved
                self.rows, self.steps = self.rows + hi - lo + 1, self.steps + 1
                if not k % _FLUSH_EVERY:
                    band[band < _FLUSH_BELOW] = 0.0
                    # a chain past its last weighed step is cleared, so that it
                    # holds the band no longer
                    band[:, need <= k] = 0.0
                    low, zeroed = _zero_low(band, self.lost, self.share)
                    self.lost += zeroed
                    lo, views = lo + int(low.min()), None
            if k < skip:
                continue
            views = views or self._views(x, out, lo, hi)
            band, into = views[:2]
            into = into[first_time[k]:last_time[k]]
            into += weights[k - skip, first_time[k]:last_time[k]] * band
        return out


def _zero_low(x: np.ndarray, lost: np.ndarray, share: np.ndarray):
    """Zero, per column of ``x`` (levels, chains), the lowest levels whose
    mass, summed in level order, is at most half of what is left of the
    column's ``share`` after its ``lost``: every zeroing leaves room for the
    next, so a band keeps advancing and a later segment start keeps a part.
    Returns the number of levels zeroed and their mass, per column; the
    zeroed mass is lost, so weights only go down."""
    cum = np.cumsum(x, axis=0)
    low = np.count_nonzero(2.0 * cum <= share - lost, axis=0)
    x[np.arange(len(x))[:, None] < low] = 0.0
    return low, np.where(low > 0, cum[low - 1, np.arange(x.shape[1])], 0.0)


def _birth_rows(rates: np.ndarray, cuts: np.ndarray) -> np.ndarray:
    """Per block, the birth rates Lambda_0 .. Lambda_cut, then zeros, and one
    more zero for the absorbing level after the widest cut."""
    births = np.zeros((len(rates), rates.shape[1] + 1))
    births[:, :-1] = np.where(np.arange(rates.shape[1]) <= cuts[:, None], rates, 0.0)
    return births


def _segments(births: np.ndarray, t: float) -> np.ndarray:
    """Per block, the halvings m that put the first birth-weight segment
    [0, t 2^-m] within ``_SEGMENT_STEPS`` expected steps at the block's
    largest birth rate (``_birth_rows``)."""
    top = births.max(axis=1)
    m = np.zeros(len(top), dtype=np.int64)
    while (more := top * t * 2.0 ** -m.astype(float) > _SEGMENT_STEPS).any():
        m += more
    return m


def _birth_weights(rates: np.ndarray, cuts: np.ndarray, t: float,
                   share: np.ndarray) -> np.ndarray:
    """P(N_t = k) per block (row) and level k, for the birth process that
    moves up from level k at ``rates[b, k]`` up to the block's cut and stops
    at the level after it, which takes the tail: the birth kernel
    (``_Births``) in time segments.

    A block's segments are [0, t 2^-m] (``_segments``), then [t 2^-i, t
    2^-(i-1)] for i = m .. 1.  Each segment after the first starts by
    zeroing the lowest levels by the band's rule (``_zero_low``), and is
    uniformized at the largest rate over the levels from the lowest that
    holds mass on.  All zeroing of a block, at segment starts and as its
    band advances, stays within its ``share`` together.  The segments of all
    blocks end together, so that each round steps one segment per block,
    with its own length, in one call; a block whose segments have not begun
    stays put.
    """
    births = _birth_rows(rates, cuts)
    blocks, levels = births.shape
    m = _segments(births, t)
    x = np.zeros((levels, blocks))
    x[0] = 1.0
    lost, starts, expected = np.zeros(blocks), np.zeros(blocks), np.zeros(blocks)
    rows = steps = 0
    rounds = int(m.max()) + 1
    for r in range(rounds):
        begins = m == rounds - 1 - r
        goes_on = m > rounds - 1 - r
        # a block's first segment is t 2^-m long, each later one t 2^-(rounds - r)
        length = np.where(begins, t * 2.0 ** -m.astype(float),
                          np.where(goes_on, t * 2.0 ** -(rounds - r), 0.0))
        # a block whose first segment is still to come zeroes nothing
        zeroed = _zero_low(x, lost, np.where(goes_on, share, -np.inf))[1]
        lost += zeroed
        starts += zeroed
        live = np.arange(levels)[:, None] >= np.argmax(x > 0.0, axis=0)
        lam = np.where(live, births.T, 0.0).max(axis=0)
        expected += lam * length
        kernel = _Births(births, lam, share, lost)
        x = kernel.transient(x, (lam * length)[None])[0]
        rows, steps = rows + kernel.rows, steps + kernel.steps
    log.debug("birth weights to t=%g: %d blocks, %d segments, %.0f expected uniformized "
              "steps (one segment: %.0f), mean band %.1f of %d levels, largest zeroed mass "
              "%.3g (%.3g by the band advance)", t, blocks, rounds, expected.max(),
              (births.max(axis=1) * t).max(), rows / max(steps, 1), levels, lost.max(),
              (lost - starts).max())
    return x.T


def _plain(c: ConcreteCtmc, absorbing: Optional[np.ndarray]) -> bool:
    """The kernel rule: a pass over ``c`` with ``absorbing`` (None: nothing
    absorbs) goes plain when the mean exit rate over the non-absorbing states
    is at least half their largest, and adaptive otherwise (see the module
    docstring).  It reads this chain's data alone, so a chain's kernel does
    not depend on its batch."""
    exits = c.leaving_rates
    if absorbing is not None:
        exits = exits[~absorbing]
    return not exits.size or 2.0 * exits.mean() >= exits.max()


def transient_distribution(c: ConcreteCtmc, t: float, epsilon: float = 1e-6) -> np.ndarray:
    """Transient distribution pi_t, by the kernel ``_plain`` picks for the
    chain.  On the adaptive kernel its L1 error is at most epsilon / 8
    (dropped mass) + epsilon * 2^-16 (birth tail) + epsilon * 2^-16 (birth
    head) + epsilon * 2^-17 (zeroed birth levels), at most epsilon / 8 + 5
    epsilon * 2^-17 in all, each of which only lowers entries; on both
    kernels add the far smaller Poisson cut and flush, all a plain pass
    loses (see the module docstring)."""
    _check_epsilon(epsilon)
    if not 0 <= t < math.inf:
        raise CheckerError("t must be finite and >= 0")
    if t == 0.0:
        return c.initial.copy()
    if _plain(c, None):
        # one chain steps forward, x_(k+1) = x_k P by P^T, and adds each
        # weighted iterate of its window
        blocks = _Blocks.uniformized([c], [None])
        ((k_lo,),), _, weights, (need,) = blocks._windows(blocks.lam[:, None] * t)
        out = np.zeros(c.num_states)
        pt = _transposed(blocks.size, *blocks.p)
        for k, x in enumerate(_iterates(pt, c.initial[None], [1] * need)):
            if k >= k_lo:
                out += weights[k - k_lo] * x[0]
        return out
    adaptive = _Adaptive([c], [None], epsilon, np.ones(1), epsilon * _DROP_SHARE)
    return adaptive.transient(c.initial[None], t)[0]


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
# Measure-set evaluation (exact values and approximate bounds)
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


def _reward_scale(c: ConcreteCtmc) -> float:
    """The chain's largest reward magnitude, at least 1: a reward pass's error
    shares shrink by it, whichever rewards its measures name."""
    return max([1.0] + [float(np.abs(r).max(initial=0.0)) for r in c.rewards.values()])


def _evaluate(chains: Sequence[ConcreteCtmc], measures: MeasureSet, epsilon: float,
              delta: float = math.inf) -> tuple[np.ndarray, np.ndarray]:
    """Values of all measures on a batch of chains of one model, grouped to
    share passes; each chain's values are those of a batch of one.

    Per absorbing target (None: rewards), the chains ``_plain`` sends plain
    share one ``_Blocks`` and the others one ``_Adaptive``, whose passes drop
    at most min(delta, epsilon / 8) / s per chain; each kernel answers the
    measures of one window start with one ``interval`` call.  The kernel
    rule reads each chain's leaving rates once (``leaving_rates``, cached on
    the chain).  Returns (values, gaps), one row per chain: a gap is s times
    the mass the measure's passes dropped, so the exact value lies in
    [value, value + gap] up to epsilon.
    """
    _check_epsilon(epsilon)
    values = np.empty((len(chains), len(measures)))
    gaps = np.empty_like(values)
    drop = min(delta, epsilon * _DROP_SHARE)
    groups = _groups(measures)
    plain_blocks, targets = 0, list(dict.fromkeys(target for target, _ in groups))
    for target in targets:
        absorbing = [None if target is None else c.label_mask(target) for c in chains]
        scale = np.array([1.0 if target is not None else _reward_scale(c) for c in chains])
        plain = np.array([_plain(c, a) for c, a in zip(chains, absorbing)], dtype=bool)
        plain_blocks += int(plain.sum())
        for sub in (np.flatnonzero(plain), np.flatnonzero(~plain)):
            if not sub.size:
                continue
            part, frozen = [chains[b] for b in sub], [absorbing[b] for b in sub]
            kernel = (_Blocks.uniformized(part, frozen, epsilon) if plain[sub[0]] else
                      _Adaptive(part, frozen, epsilon, scale[sub], drop))
            size = max(c.num_states for c in part)
            initial = _padded([c.initial for c in part], size)
            mask = None if target is None else _padded(frozen, size, bool)
            for t_lo, group in [(t_lo, g) for (key, t_lo), g in groups.items() if key == target]:
                names = list(dict.fromkeys(name for _, name, _ in group))
                columns = [(names.index(name), t) for _, name, t in group]
                vectors = (mask[:, None].astype(float) if target is not None else _padded(
                    [[c.reward_vector(name) for name in names] for c in part], size))
                found, dropped = kernel.interval(initial, mask, t_lo, vectors, columns)
                cells = np.ix_(sub, [pos for pos, _, _ in group])
                values[cells] = found if target is None else np.clip(found, 0.0, 1.0)
                gaps[cells] = (scale[sub] * dropped)[:, None]
    log.debug("batch of %d chains: %d plain and %d adaptive blocks over %d absorbing sets",
              len(chains), plain_blocks, len(chains) * len(targets) - plain_blocks,
              len(targets))
    return values, gaps


def evaluate_measures(c: ConcreteCtmc, measures: MeasureSet,
                      epsilon: float = 1e-6) -> np.ndarray:
    """Values of all measures on one (full) chain, grouped to share transient
    passes."""
    return _evaluate([c], measures, epsilon)[0][0]


def solve_measures(m: ParametricCtmc, u: Valuation, measures: MeasureSet,
                   epsilon: float = 1e-6, index: int = 0) -> SolutionVector:
    """Exact (up to epsilon) solution vector for one valuation."""
    solution, = solve_measure_set(m, [u], measures, epsilon=epsilon)
    return SolutionVector(index, solution.values)


def _series_steps(c: ConcreteCtmc, horizon: float) -> int:
    """Steps of series a pass over ``c`` keeps for times up to ``horizon``,
    bounded above: the right end of ``_poisson_span`` at the chain's largest
    exit rate, which bounds Lambda, every Lambda_k of an adaptive pass and
    the rate of its birth chains.  An adaptive pass stops by then, at the
    latest, through its Poisson tail bound."""
    lam_t = float(c.exit_rates.max(initial=0.0)) * horizon
    return int(lam_t) + _poisson_span(lam_t) + 1


def _batches(chains, measures: MeasureSet) -> Iterator[list]:
    """Consecutive chains, grouped so that no group holds more than
    ``DEFAULT_STATE_CAP`` states, counted as padded to its largest chain, or
    keeps a series (blocks x series x steps) of more floats than that.  A
    chain above either cap goes alone.  Each chain is counted as an adaptive
    pass, which keeps one series per vector and, per time, its birth weights
    over the levels (at most one per step); a plain pass keeps only the
    first."""
    groups = _groups(measures).values()
    width = max((len({name for _, name, _ in g}) + len({t for _, _, t in g}) for g in groups),
                default=0)
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


def _relative_gaps(lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    return (upper - lower) / np.maximum(upper, 1e-12)


def _bound_valuations(m: ParametricCtmc, valuations: Sequence[Valuation],
                      measures: MeasureSet, delta: float, epsilon: float,
                      rel_gap: Optional[float]) -> list[IntervalSolution]:
    """``bound_measures`` for every valuation, in batches (``_batches``).  A
    valuation whose gap is still open runs again with a tenth of the drop
    budget; a budget of 0 drops nothing, so the rounds end.  With ``rel_gap``
    None there is one round and no gap test (``gap_met`` is then True).
    """
    solutions: list = [None] * len(valuations)
    open_, drop, rounds = list(range(len(valuations))), min(delta, epsilon * _DROP_SHARE), 0
    while open_:
        positions, still, widest = iter(open_), [], 0.0
        for batch in _batches((build_full(m, valuations[i]) for i in open_), measures):
            for lower, gap in zip(*_evaluate(batch, measures, epsilon, drop)):
                i, upper = next(positions), lower + gap
                rel = _relative_gaps(lower, upper)
                widest = max([widest] + rel.tolist())
                met = rel_gap is None or bool(np.all(rel <= rel_gap))
                if met or drop == 0.0:
                    solutions[i] = IntervalSolution(i, lower, upper, drop, gap_met=met)
                else:
                    still.append(i)
        log.debug("approximate round %d (drop budget %g): %d open valuations, largest "
                  "relative gap %.3g", rounds + 1, drop, len(open_), widest)
        open_, drop, rounds = still, drop / 10.0, rounds + 1
    return solutions


def bound_measures(m: ParametricCtmc, u: Valuation, measures: MeasureSet,
                   delta: float = 1e-2, epsilon: float = 1e-6,
                   rel_gap: float = 1e-2, index: int = 0) -> IntervalSolution:
    """Two-sided measure bounds from one pass over the full chain that drops
    at most min(delta, epsilon / 8) / s of mass per adaptive pass, rerun with
    a tenth of that budget until the relative gap (upper-lower)/max(upper,
    1e-12) meets rel_gap per entry (see the module docstring).  ``delta`` of
    the result is the budget of its last pass."""
    solution, = _bound_valuations(m, [u], measures, delta, epsilon, rel_gap)
    solution.valuation_index = index
    return solution


def refine_solution(prev: IntervalSolution, m: ParametricCtmc, u: Valuation,
                    measures: MeasureSet, epsilon: float = 1e-6,
                    rel_gap: float = 1e-2) -> IntervalSolution:
    """One refinement step: re-run the bound analysis with a tenth of the
    previous drop budget (``prev.delta / 10``) and intersect, so the result
    is pointwise contained in the previous interval.  ``gap_met`` is judged
    afresh on the refined interval."""
    drop = min(prev.delta, epsilon * _DROP_SHARE) / 10.0
    fresh, = _bound_valuations(m, [u], measures, drop, epsilon, None)
    lower = np.maximum(prev.lower, fresh.lower)
    upper = np.maximum(np.minimum(prev.upper, fresh.upper), lower)
    return IntervalSolution(prev.valuation_index, lower, upper, drop,
                            gap_met=bool(np.all(_relative_gaps(lower, upper) <= rel_gap)))


def solve_measure_set(m: ParametricCtmc, valuations, measures: MeasureSet,
                      mode: str = "exact", epsilon: float = 1e-6,
                      delta: float = 1e-2, rel_gap: float = 1e-2):
    """Solution vectors (or interval solutions) for a batch of valuations.

    Results are ordered by valuation index, and each valuation's result does
    not depend on which other valuations are solved with it.  Both modes
    check consecutive valuations together, in batches of at most
    ``DEFAULT_STATE_CAP`` states, through ``_bound_valuations``: exact mode
    is its first round at the drop budget epsilon / 8, without the gap test,
    and keeps the lower bounds.
    """
    if hasattr(valuations, "valuations"):
        valuations = valuations.valuations
    valuations = list(valuations)
    if mode not in ("exact", "approx"):
        raise CheckerError(f"unknown mode: {mode!r}")
    if mode == "approx":
        return _bound_valuations(m, valuations, measures, delta, epsilon, rel_gap)
    return [SolutionVector(s.valuation_index, s.lower)
            for s in _bound_valuations(m, valuations, measures, math.inf, epsilon, None)]


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
