"""Scenario-optimization prediction regions and containment lower bounds.

Given n solution vectors in R^m, the rectangular prediction region trades its
size against the summed L1 distance of excluded (relaxed) samples::

    minimize  ||xbar - xlow||_1 + rho * sum_i ||xi_i||_1
    s.t.      xlow - xi_i <= sol(u_i) <= xbar + xi_i,   xi_i >= 0

The problem decomposes per dimension, and each face is an order statistic of
its column: with k = floor(1/rho) + 1, the upper face is the k-th largest value
and the lower face the k-th smallest.  Relaxation only changes at critical
costs rho = 1/j, which are rejected; use rho_grid for safe mid-gap values.

For imprecise solutions [sol-, sol+] the same rule runs on the upper bounds
for the upper face and on the lower bounds for the lower face, which yields a
conservative box containing the (unknown) precise-solution region.  The
complexity of the precise problem is upper-bounded greedily (boundary samples
removed one at a time while the faces stay put); under imprecision that greedy
is unsound, so the bound is instead n minus the number of surely-noncritical
samples: samples whose box fits inside an inner rectangle disjoint from every
box that touches the region boundary.

The containment lower bound eta(n, d, beta) is the smallest positive root of

    C(n, d) * t^(n-d)  =  ((1 - beta) / n) * sum_{i=d}^{n-1} C(i, d) * t^(i-d)

with eta(n, n, beta) = 0.  The normalized left side is monotone in t, so the
root is unique; it is bracketed by bisection over the geometric grid
1e-12 * 1.1^j and bisected to 1e-9.  Binomial ratios are evaluated by term
recurrences, never as raw factorials, so n up to 10^4 stays inside float range.
"""

from __future__ import annotations

import bisect
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
    """Axis-aligned prediction region with per-sample boundary membership,
    decided to within ``BOUNDARY_TOL``."""

    lower: np.ndarray
    upper: np.ndarray
    classification: np.ndarray  # per sample: INSIDE / BOUNDARY / OUTSIDE

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
    if mat.ndim != 2 or mat.size == 0 or not np.isfinite(mat).all():
        raise ScenarioError("need a nonempty n x m solution matrix of finite values")
    return mat


def interval_matrices(solutions) -> tuple[np.ndarray, np.ndarray]:
    """(lower, upper) n x m matrices from IntervalSolution objects or a pair."""
    if isinstance(solutions, tuple) and len(solutions) == 2:
        lower, upper = (np.atleast_2d(np.asarray(x, dtype=float)) for x in solutions)
    else:
        lower = np.array([np.asarray(s.lower, dtype=float) for s in solutions])
        upper = np.array([np.asarray(s.upper, dtype=float) for s in solutions])
        lower, upper = np.atleast_2d(lower), np.atleast_2d(upper)
    if lower.shape != upper.shape or lower.size == 0 or not np.isfinite((lower, upper)).all():
        raise ScenarioError("interval bounds must be matching nonempty matrices of "
                            "finite values")
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
    if not rho > 0:  # NaN fails it too
        raise ScenarioError("rho must be positive")
    inv = 1.0 / rho
    if abs(inv - round(inv)) < 1e-9 and round(inv) >= 1:
        raise CriticalRhoError(
            f"rho={rho} is critical (1/{int(round(inv))}); pick values from rho_grid")
    if inv > n:
        raise ScenarioError(
            f"rho={rho} relaxes every sample for n={n}; the optimum degenerates")


# ---------------------------------------------------------------------------
# Order statistics, and the per-dimension closed form
# ---------------------------------------------------------------------------

def _classify(lower, upper, box_lo, box_hi, tol) -> np.ndarray:
    """INSIDE / BOUNDARY / OUTSIDE per sample box (points are zero-width boxes)."""
    outside = np.any((upper > box_hi + tol) | (lower < box_lo - tol), axis=1)
    strictly_inside = np.all((lower > box_lo + tol) & (upper < box_hi - tol), axis=1)
    cls = np.full(lower.shape[0], BOUNDARY, dtype=np.int8)
    cls[outside] = OUTSIDE
    cls[strictly_inside & ~outside] = INSIDE
    return cls


def _faces(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Faces from the one-sided optima, sorted where tiny rho makes them cross."""
    swap = lo > hi
    return np.where(swap, hi, lo), np.where(swap, lo, hi)


def _solve_box(lower: np.ndarray, upper: np.ndarray, rho: float):
    n, m = lower.shape
    _check_rho(rho, n)
    k = int(1.0 / rho) + 1  # num_ge(v) > 1/rho, with 1/rho never an integer
    ranked = np.sort(lower if upper is lower else np.hstack((lower, upper)), axis=0)
    box_lo, box_hi = _faces(ranked[k - 1, :m], ranked[n - k, -m:])
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

def complexity_precise(solutions, rho: float, region: BoxRegion,
                       relaxed: Sequence[int]) -> int:
    """Greedy upper bound d* on the smallest critical set, precise solutions,
    for the region and relaxed set ``solve_box_precise`` returns for them.

    Boundary samples are visited in ascending index; a removal is kept when
    the k-th order statistics of the rows still kept (one argsort per column)
    are the region's faces, and skipped when fewer than k rows would be kept
    (1/rho above their count: no region).  d* = relaxed count + retained
    boundary samples (interior samples never move a face, so are never critical).
    """
    values = solutions_matrix(solutions)
    boundary = region.boundary_indices()
    n, m = values.shape
    _check_rho(rho, n)
    k = int(1.0 / rho) + 1
    order = np.argsort(values, axis=0)
    ranked = np.take_along_axis(values, order, axis=0)
    columns = np.arange(m)
    kept = np.ones(n, dtype=bool)
    removed = 0
    for i in boundary:
        if n - removed <= k:
            continue
        kept[i] = False
        w = k + removed + 1  # a column's k-th kept row is among its w extremes
        lo = np.argmax(np.cumsum(kept[order[:w]], axis=0) == k, axis=0)
        hi = n - 1 - np.argmax(np.cumsum(kept[order[::-1][:w]], axis=0) == k, axis=0)
        lo, hi = _faces(ranked[lo, columns], ranked[hi, columns])
        kept[i] = not (np.array_equal(lo, region.lower) and np.array_equal(hi, region.upper))
        removed += not kept[i]
    return len(relaxed) + len(boundary) - removed


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
    tol = BOUNDARY_TOL

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

# eta's bracket points: 1e-300, then 1e-12 * 1.1^j below 1 (repeated products), 1 - 1e-15
_ETA_GRID = [1e-300, 1e-12]
while _ETA_GRID[-1] * 1.1 < 1.0:
    _ETA_GRID.append(_ETA_GRID[-1] * 1.1)
_ETA_GRID.append(1.0 - 1e-15)


def _eta_poly(n: int, c: int, beta: float) -> Callable[[float], float]:
    """Sign of the normalized bound polynomial at t (terms via ratio recurrences)."""
    a = (1.0 - beta) / n
    ratios = [(i + 1 - c) / (i + 1) for i in range(n - 1, c - 1, -1)]

    def h(t: float) -> float:
        s = 1.0
        term = 1.0
        for r in ratios:
            term *= r / t
            s -= a * term
            if s < -1e12 or term > 1e280:
                return -1.0
        return s

    return h


def compute_eta(n: int, d: int, beta: float) -> float:
    """High-confidence lower bound on the containment probability.

    eta(n, n, beta) = 0; otherwise the unique positive root of the bound
    polynomial.  It increases in t, so its first positive point on the grid
    _ETA_GRID is found by bisection, then the root is bisected to width 1e-9.
    The lower end of that bracket is returned, so eta never exceeds the root.
    """
    if not 0 <= d <= n:
        raise ScenarioError("need 0 <= d <= n")
    if not 0.0 < beta < 1.0:
        raise ScenarioError("beta must lie in (0, 1)")
    if d == n:
        return 0.0
    h = _eta_poly(n, d, beta)
    j = bisect.bisect_left(_ETA_GRID, True, lo=1, key=lambda t: h(t) > 0.0)
    if j == len(_ETA_GRID):
        raise RuntimeError(
            f"no sign change for eta polynomial (n={n}, d={d}, beta={beta}); "
            "this contradicts the bound's theory")
    lo, hi = _ETA_GRID[j - 1], _ETA_GRID[j]
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        if h(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return lo


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
                 max_iters: int, refiner: Callable[[int], tuple]
                 ) -> tuple[ScenarioOutcome, tuple[float, ...]]:
    """Refinement loop: solve, refine the boundary-touching samples, re-solve.

    ``refiner(i)`` must return tightened (lower, upper) rows for sample i (the
    new interval is intersected with the old one, so intervals only shrink).

    Every iteration's complexity bound is valid for the one fixed precise
    problem, so the loop reports the running minimum: eta is nondecreasing
    across iterations even when a shrinking region temporarily pushes more
    boxes onto its boundary.  Stops when the eta improvement falls below
    ``target_gain``, when no boundary sample is wider than ``BOUNDARY_TOL``
    (nothing is left to refine), or after ``max_iters`` iterations.  Returns
    the final outcome (largest eta) plus the per-iteration eta trajectory.
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
                     if np.any(upper[i] - lower[i] > BOUNDARY_TOL)]
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
