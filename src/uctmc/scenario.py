"""Scenario-optimization prediction regions and containment lower bounds.

Given n solution vectors in R^m, the rectangular prediction region trades its
size against the summed L1 distance of excluded (relaxed) samples::

    minimize  ||xbar - xlow||_1 + rho * sum_i ||xi_i||_1
    s.t.      xlow - xi_i <= sol(u_i) <= xbar + xi_i,   xi_i >= 0

The problem decomposes per dimension, and each face has a closed form: with
num_ge(v) the number of samples whose value in that dimension is at least v
(ties form one rank block), the upper face is max{v : num_ge(v) > 1/rho} and
the lower face is the dual.  Relaxation only changes at critical costs
rho = 1/j, which are rejected; use rho_grid for safe mid-gap values.

For imprecise solutions [sol-, sol+] the same rank rule runs on the upper
bounds for the upper face and on the lower bounds for the lower face, which
yields a conservative box containing the (unknown) precise-solution region.
The complexity of the precise problem is upper-bounded greedily (re-solving
with boundary samples removed one at a time); under imprecision that greedy
is unsound, so the bound is instead n minus the number of surely-noncritical
samples: samples whose box fits inside an inner rectangle disjoint from every
box that touches the region boundary.

The containment lower bound eta(n, d, beta) is the smallest positive root of

    C(n, d) * t^(n-d)  =  ((1 - beta) / n) * sum_{i=d}^{n-1} C(i, d) * t^(i-d)

with eta(n, n, beta) = 0.  The normalized left side is monotone in t, so the
root is unique; it is bracketed by an ascending grid scan and bisected to
1e-9.  Binomial ratios are evaluated by term recurrences, never as raw
factorials, so n up to 10^4 stays inside float range.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

BOUNDARY_TOL = 1e-9

INSIDE, BOUNDARY, OUTSIDE = 0, 1, 2


class ScenarioError(ValueError):
    pass


class CriticalRhoError(ScenarioError):
    """rho hit a critical value 1/j where the optimum is not unique."""


# ---------------------------------------------------------------------------
# Data types
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class BoxRegion:
    """Axis-aligned prediction region with per-sample boundary membership."""

    lower: np.ndarray
    upper: np.ndarray
    classification: np.ndarray  # per sample: INSIDE / BOUNDARY / OUTSIDE
    tolerance: float = BOUNDARY_TOL

    @property
    def dimension(self) -> int:
        return len(self.lower)

    def relaxed_indices(self) -> tuple[int, ...]:
        return tuple(np.flatnonzero(self.classification == OUTSIDE).tolist())

    def boundary_indices(self) -> tuple[int, ...]:
        return tuple(np.flatnonzero(self.classification == BOUNDARY).tolist())

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Closed-box membership per row of ``points``."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return np.all((points >= self.lower) & (points <= self.upper), axis=1)


@dataclass(eq=False)
class RankStats:
    """num_ge on upper bounds and num_le on lower bounds, per sample and dim."""

    num_upper_ge: np.ndarray
    num_lower_le: np.ndarray


@dataclass(eq=False)
class ScenarioOutcome:
    rho: float
    region: BoxRegion
    relaxed: tuple[int, ...]
    complexity_bound: int
    eta: dict
    n: int
    mode: str = "precise"


@dataclass(eq=False)
class BoundaryAnalysis:
    boundary: tuple[int, ...]                      # samples whose box meets dR
    inner: Optional[tuple[np.ndarray, np.ndarray]]  # rectangle avoiding them
    surely_noncritical: tuple[int, ...]


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def solutions_matrix(solutions) -> np.ndarray:
    """n x m float matrix from SolutionVector objects or raw rows."""
    if isinstance(solutions, np.ndarray):
        mat = solutions
    else:
        rows = [s.values if hasattr(s, "values") else s for s in solutions]
        mat = np.array([np.asarray(r, dtype=float) for r in rows])
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    if mat.ndim != 2 or mat.size == 0:
        raise ScenarioError("need a nonempty n x m solution matrix")
    return mat


def interval_matrices(solutions) -> tuple[np.ndarray, np.ndarray]:
    """(lower, upper) n x m matrices from IntervalSolution objects or a pair."""
    if isinstance(solutions, tuple) and len(solutions) == 2:
        lower, upper = (np.atleast_2d(np.asarray(x, dtype=float)) for x in solutions)
    else:
        lower = np.array([np.asarray(s.lower, dtype=float) for s in solutions])
        upper = np.array([np.asarray(s.upper, dtype=float) for s in solutions])
        lower, upper = np.atleast_2d(lower), np.atleast_2d(upper)
    if lower.shape != upper.shape or lower.size == 0:
        raise ScenarioError("interval bounds must be matching nonempty matrices")
    if np.any(lower > upper + 1e-12):
        raise ScenarioError("interval lower bounds exceed upper bounds")
    return lower, upper


# ---------------------------------------------------------------------------
# rho handling
# ---------------------------------------------------------------------------

def rho_grid(k: int) -> list[float]:
    """One value above 1 plus k-1 mid-gap values 1/(j+0.5), strictly decreasing.

    Relaxation changes only at critical costs 1/j; the grid stays strictly
    between them so the optimum is unique.
    """
    if k < 1:
        raise ScenarioError("k must be >= 1")
    return [2.0] + [1.0 / (j + 0.5) for j in range(1, k)]


def _check_rho(rho: float, n: int):
    if rho <= 0:
        raise ScenarioError("rho must be positive")
    inv = 1.0 / rho
    if abs(inv - round(inv)) < 1e-9 and round(inv) >= 1:
        raise CriticalRhoError(
            f"rho={rho} is critical (1/{int(round(inv))}); pick values from rho_grid")
    if inv > n:
        raise ScenarioError(
            f"rho={rho} relaxes every sample for n={n}; the optimum degenerates")


# ---------------------------------------------------------------------------
# Rank statistics and the per-dimension closed form
# ---------------------------------------------------------------------------

def rank_stats(lower: np.ndarray, upper: Optional[np.ndarray] = None) -> RankStats:
    """Counts of samples whose bound is at least / at most each sample's, per dim.

    For precise solutions pass one matrix; both counts then coincide with the
    plain rank counts.  Equal values share one rank block by construction.
    """
    lower = np.atleast_2d(lower)
    upper = lower if upper is None else np.atleast_2d(upper)
    n, m = lower.shape
    num_ge = np.empty((n, m), dtype=int)
    num_le = np.empty((n, m), dtype=int)
    for r in range(m):
        up = np.sort(upper[:, r])
        lo = np.sort(lower[:, r])
        # at least: n - (#strictly smaller);  at most: #less-or-equal
        num_ge[:, r] = n - np.searchsorted(up, upper[:, r], side="left")
        num_le[:, r] = np.searchsorted(lo, lower[:, r], side="right")
    return RankStats(num_ge, num_le)


def _classify(lower, upper, box_lo, box_hi, tol) -> np.ndarray:
    """INSIDE / BOUNDARY / OUTSIDE per sample box (points are zero-width boxes)."""
    outside = np.any((upper > box_hi + tol) | (lower < box_lo - tol), axis=1)
    strictly_inside = np.all((lower > box_lo + tol) & (upper < box_hi - tol), axis=1)
    cls = np.full(lower.shape[0], BOUNDARY, dtype=np.int8)
    cls[outside] = OUTSIDE
    cls[strictly_inside & ~outside] = INSIDE
    return cls


def _solve_box(lower: np.ndarray, upper: np.ndarray, rho: float):
    n, m = lower.shape
    _check_rho(rho, n)
    threshold = 1.0 / rho
    stats = rank_stats(lower, upper)
    box_lo = np.empty(m)
    box_hi = np.empty(m)
    for r in range(m):
        hi_candidates = upper[stats.num_upper_ge[:, r] > threshold, r]
        lo_candidates = lower[stats.num_lower_le[:, r] > threshold, r]
        hi = float(hi_candidates.max())
        lo = float(lo_candidates.min())
        # For very small rho the two one-sided optima can cross; the LP then
        # degenerates to a point and loses uniqueness.  Report the sorted pair,
        # a conservative nonempty box bounded by the two rank values.
        box_lo[r], box_hi[r] = (lo, hi) if lo <= hi else (hi, lo)
    cls = _classify(lower, upper, box_lo, box_hi, BOUNDARY_TOL)
    region = BoxRegion(box_lo, box_hi, cls)
    return region, region.relaxed_indices()


def solve_box_precise(solutions, rho: float) -> tuple[BoxRegion, tuple[int, ...]]:
    """Optimal rectangular region and relaxed sample set for precise solutions.

    Matches the generic LP optimum whenever the optimum is unique (rho neither
    critical nor small enough to collapse the box).
    """
    values = solutions_matrix(solutions)
    return _solve_box(values, values, rho)


def solve_box_imprecise(solutions, rho: float) -> tuple[BoxRegion, tuple[int, ...]]:
    """Conservative region from interval solutions (contains the precise region)."""
    lower, upper = interval_matrices(solutions)
    return _solve_box(lower, upper, rho)


# ---------------------------------------------------------------------------
# Complexity bounds
# ---------------------------------------------------------------------------

def complexity_precise(solutions, rho: float, region: Optional[BoxRegion] = None,
                       relaxed: Optional[Sequence[int]] = None) -> int:
    """Greedy upper bound d* on the smallest critical set, precise solutions.

    Boundary samples are visited in ascending index; each is tentatively
    removed and the region re-solved.  Removals that leave the region
    unchanged are kept.  d* = relaxed count + retained boundary samples
    (strictly interior samples never move a face, so they are never critical).
    """
    values = solutions_matrix(solutions)
    if region is None or relaxed is None:
        region, relaxed = solve_box_precise(values, rho)
    boundary = list(region.boundary_indices())
    removed: set = set()
    n = values.shape[0]
    for i in boundary:
        keep = [j for j in range(n) if j != i and j not in removed]
        if not keep:
            continue
        try:
            trial_region, _ = solve_box_precise(values[keep], rho)
        except ScenarioError:
            continue
        if (np.array_equal(trial_region.lower, region.lower)
                and np.array_equal(trial_region.upper, region.upper)):
            removed.add(i)
    return len(relaxed) + len(boundary) - len(removed)


def _box_volume(lo: np.ndarray, hi: np.ndarray) -> float:
    widths = hi - lo
    if np.any(widths < 0):
        return -np.inf
    return float(np.prod(widths))


def _overlap_volume(alo, ahi, blo, bhi) -> float:
    lo = np.maximum(alo, blo)
    hi = np.minimum(ahi, bhi)
    if np.any(hi < lo):
        return 0.0
    return float(np.prod(hi - lo))


def complexity_imprecise(solutions, region: BoxRegion) -> tuple[int, BoundaryAnalysis]:
    """Upper bound n - |X| on the precise complexity from interval solutions.

    X is the surely-noncritical set: samples whose box lies inside an inner
    rectangle I that avoids every box touching the region boundary.  I is
    grown greedily (largest-overlap boundary box first, shrinking along the
    single dimension that preserves the most volume); any smaller I is sound,
    it only makes the bound more conservative.
    """
    lower, upper = interval_matrices(solutions)
    n = lower.shape[0]
    tol = region.tolerance

    touches_region = np.all((lower <= region.upper + tol)
                            & (upper >= region.lower - tol), axis=1)
    strictly_inside = np.all((lower > region.lower + tol)
                             & (upper < region.upper - tol), axis=1)
    boundary = np.flatnonzero(touches_region & ~strictly_inside)

    inner_lo = region.lower + tol
    inner_hi = region.upper - tol
    order = sorted(
        boundary.tolist(),
        key=lambda i: (-_overlap_volume(inner_lo, inner_hi, lower[i], upper[i]), i))
    empty = bool(np.any(inner_lo > inner_hi))
    for i in order:
        if empty:
            break
        if np.any(upper[i] < inner_lo) or np.any(lower[i] > inner_hi):
            continue  # already disjoint from the current rectangle
        best = None
        for r in range(region.dimension):
            shrink_hi = inner_hi.copy()
            shrink_hi[r] = min(shrink_hi[r], lower[i, r] - tol)
            vol_hi = _box_volume(inner_lo, shrink_hi)
            if best is None or vol_hi > best[0]:
                best = (vol_hi, inner_lo.copy(), shrink_hi)
            shrink_lo = inner_lo.copy()
            shrink_lo[r] = max(shrink_lo[r], upper[i, r] + tol)
            vol_lo = _box_volume(shrink_lo, inner_hi)
            if vol_lo > best[0]:
                best = (vol_lo, shrink_lo, inner_hi.copy())
        vol, inner_lo, inner_hi = best
        if vol <= 0 or np.any(inner_lo > inner_hi):
            empty = True

    if empty:
        inner = None
        surely = np.zeros(0, dtype=int)
    else:
        inner = (inner_lo, inner_hi)
        inside_inner = np.all((lower >= inner_lo) & (upper <= inner_hi), axis=1)
        surely = np.flatnonzero(inside_inner)

    analysis = BoundaryAnalysis(tuple(boundary.tolist()), inner,
                                tuple(surely.tolist()))
    return n - len(analysis.surely_noncritical), analysis


# ---------------------------------------------------------------------------
# Containment lower bound
# ---------------------------------------------------------------------------

def _eta_poly(n: int, c: int, beta: float) -> Callable[[float], float]:
    """Sign of the normalized bound polynomial at t (terms via ratio recurrences)."""
    a = (1.0 - beta) / n

    def h(t: float) -> float:
        s = 1.0
        term = 1.0
        for i in range(n - 1, c - 1, -1):
            term *= (i + 1 - c) / (i + 1) / t
            s -= a * term
            if s < -1e12 or term > 1e280:
                return -1.0
        return s

    return h


def compute_eta(n: int, d: int, beta: float) -> float:
    """High-confidence lower bound on the containment probability.

    eta(n, n, beta) = 0; otherwise the unique positive root of the bound
    polynomial, located by an ascending geometric grid scan and bisection to
    an interval width of 1e-9.
    """
    if not 0 <= d <= n:
        raise ScenarioError("need 0 <= d <= n")
    if not 0.0 < beta < 1.0:
        raise ScenarioError("beta must lie in (0, 1)")
    if d == n:
        return 0.0
    h = _eta_poly(n, d, beta)

    lo, hi = None, None
    t = 1e-12
    prev = 1e-300
    while t < 1.0:
        if h(t) > 0.0:
            lo, hi = prev, t
            break
        prev = t
        t *= 1.1
    else:
        if h(1.0 - 1e-15) > 0.0:
            lo, hi = prev, 1.0 - 1e-15
    if lo is None:
        raise RuntimeError(
            f"no sign change for eta polynomial (n={n}, d={d}, beta={beta}); "
            "this contradicts the bound's theory")
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        if h(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# Composed outcomes, refinement, baselines
# ---------------------------------------------------------------------------

def bound_outcome(solutions, rho: float, betas: Sequence[float],
                  mode: str = "precise") -> ScenarioOutcome:
    """Region, complexity bound and eta per confidence level, in one call."""
    if mode == "precise":
        values = solutions_matrix(solutions)
        region, relaxed = solve_box_precise(values, rho)
        d = complexity_precise(values, rho, region, relaxed)
        n = values.shape[0]
    elif mode == "imprecise":
        lower, upper = interval_matrices(solutions)
        region, relaxed = solve_box_imprecise((lower, upper), rho)
        d, _ = complexity_imprecise((lower, upper), region)
        n = lower.shape[0]
    else:
        raise ScenarioError(f"unknown mode: {mode!r}")
    eta = {beta: compute_eta(n, d, beta) for beta in betas}
    return ScenarioOutcome(rho, region, tuple(relaxed), d, eta, n, mode)


def refine_until(solutions, rho: float, beta: float, target_gain: float,
                 max_iters: int, refiner: Callable[[int], tuple],
                 width_tol: float = 1e-9) -> tuple[ScenarioOutcome, tuple[float, ...]]:
    """Refinement loop: solve, refine the boundary-touching samples, re-solve.

    ``refiner(i)`` must return tightened (lower, upper) rows for sample i (the
    new interval is intersected with the old one, so intervals only shrink).

    Every iteration's complexity bound is valid for the one fixed precise
    problem, so the loop reports the running minimum: eta is nondecreasing
    across iterations even when a shrinking region temporarily pushes more
    boxes onto its boundary.  Stops when the eta improvement falls below
    ``target_gain``, when nothing on the boundary is left to refine, or after
    ``max_iters`` iterations.  Returns the final outcome (largest eta) plus
    the per-iteration eta trajectory.
    """
    if max_iters < 1:
        raise ScenarioError("max_iters must be >= 1")
    lower, upper = interval_matrices(solutions)
    lower, upper = lower.copy(), upper.copy()
    n = lower.shape[0]

    best: Optional[ScenarioOutcome] = None
    d_best: Optional[int] = None
    etas: list[float] = []
    for _ in range(max_iters):
        region, relaxed = solve_box_imprecise((lower, upper), rho)
        d, analysis = complexity_imprecise((lower, upper), region)
        d_best = d if d_best is None else min(d_best, d)
        eta = compute_eta(n, d_best, beta)
        outcome = ScenarioOutcome(rho, region, tuple(relaxed), d_best,
                                  {beta: eta}, n, "imprecise")
        etas.append(eta)
        if best is None or eta >= best.eta[beta]:
            best = outcome
        if len(etas) >= 2 and etas[-1] - etas[-2] < target_gain:
            break
        to_refine = [i for i in analysis.boundary
                     if np.any(upper[i] - lower[i] > width_tol)]
        if not to_refine:
            break
        for i in to_refine:
            new_lo, new_hi = refiner(i)
            lower[i] = np.maximum(lower[i], np.asarray(new_lo, dtype=float))
            upper[i] = np.minimum(upper[i], np.asarray(new_hi, dtype=float))
            upper[i] = np.maximum(upper[i], lower[i])
    return best, tuple(etas)


def baseline_independent(solutions, rho: float, beta: float) -> tuple[float, list[float]]:
    """Per-measure scenario bounds combined by a union bound.

    Each dimension is solved as its own 1D problem at the Bonferroni-adjusted
    confidence 1 - (1-beta)/m; the joint bound is max(0, 1 - sum_r (1-eta_r)).
    """
    values = solutions_matrix(solutions)
    n, m = values.shape
    beta_tilde = 1.0 - (1.0 - beta) / m
    etas = []
    for r in range(m):
        column = values[:, r:r + 1]
        region, relaxed = solve_box_precise(column, rho)
        d = complexity_precise(column, rho, region, relaxed)
        etas.append(compute_eta(n, d, beta_tilde))
    combined = max(0.0, 1.0 - sum(1.0 - e for e in etas))
    return combined, etas


def baseline_frequentist(fresh_solutions, region: BoxRegion) -> float:
    """Observed fraction of fresh solution vectors inside a fixed region."""
    values = solutions_matrix(fresh_solutions)
    return float(np.count_nonzero(region.contains(values))) / values.shape[0]
