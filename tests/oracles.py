"""Independent oracles used by the test suite.

These deliberately avoid the library's own code paths: the LP oracle solves
the region problem as a generic linear program, the transient oracles use
dense matrix exponentials, and the complexity oracle enumerates subsets.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

import numpy as np
from scipy.linalg import expm
from scipy.optimize import linprog

from uctmc.scenario import (
    BOUNDARY_TOL,
    BoxRegion,
    ScenarioError,
    _check_rho,
    _classify,
    solve_box_imprecise,
    solve_box_precise,
)

LP_TOL = 1e-7


def lp_box(values: np.ndarray, rho: float):
    """Direct LP solution of the box problem: region and slack matrix."""
    values = np.asarray(values, dtype=float)
    n, m = values.shape
    # variable layout: xbar (m) | xlow (m) | xi (n*m, row-major)
    num_vars = 2 * m + n * m
    cost = np.concatenate([np.ones(m), -np.ones(m), rho * np.ones(n * m)])

    rows, cols, data, rhs = [], [], [], []
    k = 0
    for i in range(n):
        for r in range(m):
            xi = 2 * m + i * m + r
            # xlow_r - xi_ir <= v_ir
            rows += [k, k]
            cols += [m + r, xi]
            data += [1.0, -1.0]
            rhs.append(values[i, r])
            k += 1
            # -xbar_r - xi_ir <= -v_ir
            rows += [k, k]
            cols += [r, xi]
            data += [-1.0, -1.0]
            rhs.append(-values[i, r])
            k += 1
    from scipy.sparse import csr_matrix
    a_ub = csr_matrix((data, (rows, cols)), shape=(k, num_vars))
    bounds = [(None, None)] * (2 * m) + [(0.0, None)] * (n * m)
    res = linprog(cost, A_ub=a_ub, b_ub=np.array(rhs), bounds=bounds, method="highs")
    assert res.status == 0, res.message
    xbar = res.x[:m]
    xlow = res.x[m:2 * m]
    xi = res.x[2 * m:].reshape(n, m)
    return xlow, xbar, xi


def lp_relaxed_set(xi: np.ndarray, tol: float = LP_TOL) -> tuple:
    return tuple(np.flatnonzero(np.any(xi > tol, axis=1)).tolist())


def brute_force_complexity(values: np.ndarray, rho: float) -> int:
    """Smallest critical set by exhaustive subset enumeration (n <= ~12)."""
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    region, relaxed = solve_box_precise(values, rho)
    relaxed_bits = 0
    for i in relaxed:
        relaxed_bits |= 1 << i
    best = n
    for bits in range(1, 2 ** n):
        if bits & relaxed_bits != relaxed_bits:
            continue
        members = [i for i in range(n) if bits >> i & 1]
        if len(members) >= best:
            continue
        try:
            trial, _ = solve_box_precise(values[members], rho)
        except ScenarioError:
            continue
        if (np.array_equal(trial.lower, region.lower)
                and np.array_equal(trial.upper, region.upper)):
            best = len(members)
    return best


def naive_imprecise_greedy(lower: np.ndarray, upper: np.ndarray, rho: float) -> int:
    """The unsound precise-style greedy applied to the imprecise problem.

    Exists only to demonstrate why the library does NOT use it (its value can
    undercut the true precise complexity).
    """
    region, relaxed = solve_box_imprecise((lower, upper), rho)
    boundary = list(region.boundary_indices())
    removed: set = set()
    n = lower.shape[0]
    for i in boundary:
        keep = [j for j in range(n) if j != i and j not in removed]
        if not keep:
            continue
        try:
            trial, _ = solve_box_imprecise((lower[keep], upper[keep]), rho)
        except ScenarioError:
            continue
        if (np.array_equal(trial.lower, region.lower)
                and np.array_equal(trial.upper, region.upper)):
            removed.add(i)
    return len(relaxed) + len(boundary) - len(removed)


# ---------------------------------------------------------------------------
# Scenario references: the rank-count faces, the re-solving greedy and the
# linear-scan eta bracket that the library's order-statistic code replaced
# ---------------------------------------------------------------------------

class RankStats(NamedTuple):
    """num_ge on upper bounds and num_le on lower bounds, per sample and dim."""

    num_upper_ge: np.ndarray
    num_lower_le: np.ndarray


def rank_stats(lower: np.ndarray, upper: np.ndarray | None = None) -> RankStats:
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


def solve_box_reference(lower: np.ndarray, upper: np.ndarray, rho: float):
    """Faces from rank counts: upper = max{v : num_ge(v) > 1/rho}, lower the
    dual, crossed faces swapped.  Returns (region, relaxed)."""
    n, m = lower.shape
    _check_rho(rho, n)
    threshold = 1.0 / rho
    stats = rank_stats(lower, upper)
    box_lo = np.empty(m)
    box_hi = np.empty(m)
    for r in range(m):
        hi = float(upper[stats.num_upper_ge[:, r] > threshold, r].max())
        lo = float(lower[stats.num_lower_le[:, r] > threshold, r].min())
        box_lo[r], box_hi[r] = (lo, hi) if lo <= hi else (hi, lo)
    cls = _classify(lower, upper, box_lo, box_hi, BOUNDARY_TOL)
    region = BoxRegion(box_lo, box_hi, cls)
    return region, region.relaxed_indices()


def complexity_precise_reference(values: np.ndarray, rho: float) -> int:
    """The greedy that re-solves the region (by rank counts) once per boundary
    sample, visited in ascending index, keeping removals that leave it
    unchanged."""
    region, relaxed = solve_box_reference(values, values, rho)
    boundary = list(region.boundary_indices())
    removed: set = set()
    n = values.shape[0]
    for i in boundary:
        keep = [j for j in range(n) if j != i and j not in removed]
        if not keep:
            continue
        try:
            trial, _ = solve_box_reference(values[keep], values[keep], rho)
        except ScenarioError:
            continue
        if (np.array_equal(trial.lower, region.lower)
                and np.array_equal(trial.upper, region.upper)):
            removed.add(i)
    return len(relaxed) + len(boundary) - len(removed)


def eta_h(n: int, d: int, beta: float):
    """The normalized bound polynomial h as a function of one t: -1.0 once it
    is surely negative (s < -1e12) or its terms blow up (> 1e280)."""
    a = (1.0 - beta) / n

    def h(t: float) -> float:
        s = 1.0
        term = 1.0
        for i in range(n - 1, d - 1, -1):
            term *= (i + 1 - d) / (i + 1) / t
            s -= a * term
            if s < -1e12 or term > 1e280:
                return -1.0
        return s

    return h


def _eta_ratios(n: int, ds) -> np.ndarray:
    """The ratios (i + 1 - d) / (i + 1) of h's terms, i = n - 1 down to 0, as
    (terms, cases) columns, one per d in ``ds``.  A column's terms past i = d
    are 0, which leave s and the exit test as they are."""
    i = np.arange(n - 1, -1, -1)[:, None]
    d = np.asarray(ds)[None, :]
    return np.where(i >= d, (i + 1 - d) / (i + 1), 0.0)


def _eta_h_columns(a: float, ratios: np.ndarray, t: np.ndarray) -> np.ndarray:
    """h at ``t`` for each column of ``ratios`` (terms, columns), with the
    float operations of ``eta_h`` in its order per column: the terms are
    running products and s a running difference (numpy accumulates in
    order), and a column's early exit is a mask over the column.  Entries
    past an exit may overflow; they are masked, so their warnings are not
    raised."""
    term = ratios / t
    s = np.ones((len(term) + 1, term.shape[1]))
    with np.errstate(over="ignore", invalid="ignore"):
        np.multiply.accumulate(term, axis=0, out=term)
        np.multiply(a, term, out=s[1:])
        np.subtract.accumulate(s, axis=0, out=s)
        exited = ((s[1:] < -1e12) | (term > 1e280)).any(axis=0)
    return np.where(exited, -1.0, s[-1])


def eta_h_at(n: int, d: int, beta: float, ts: np.ndarray) -> np.ndarray:
    """``eta_h(n, d, beta)`` at every point of ``ts`` at once."""
    return _eta_h_columns((1.0 - beta) / n, _eta_ratios(n, [d])[:n - d], ts)


def _eta_scan_grid() -> list:
    """The scan's points 1e-12 * 1.1^j below 1, each the previous times 1.1."""
    grid, t = [], 1e-12
    while t < 1.0:
        grid.append(t)
        t *= 1.1
    return grid


ETA_SCAN_GRID = _eta_scan_grid()


def eta_bracket_scalar(n: int, d: int, beta: float) -> tuple:
    """The scan's bracket (point before, first point with h > 0), one point
    at a time in ascending order; 1 - 1e-15 closes a grid without one."""
    h = eta_h(n, d, beta)
    prev = 1e-300
    for t in ETA_SCAN_GRID:
        if h(t) > 0.0:
            return prev, t
        prev = t
    assert h(1.0 - 1e-15) > 0.0
    return prev, 1.0 - 1e-15


def eta_bracket(n: int, d: int, beta: float) -> tuple:
    """``eta_bracket_scalar`` from h at every grid point at once."""
    positive = np.flatnonzero(eta_h_at(n, d, beta, np.array(ETA_SCAN_GRID)) > 0.0)
    if not positive.size:
        assert eta_h(n, d, beta)(1.0 - 1e-15) > 0.0
        return ETA_SCAN_GRID[-1], 1.0 - 1e-15
    j = int(positive[0])
    return (ETA_SCAN_GRID[j - 1] if j else 1e-300), ETA_SCAN_GRID[j]


def eta_references(n: int, ds, beta: float) -> np.ndarray:
    """eta for every d in ``ds``: an ascending scan of the grid 1e-12 * 1.1^j
    for the first point where the bound polynomial is positive
    (``eta_bracket``), then bisection to 1e-9, and the lower end of the final
    bracket; 0 for d = n.  The bisections run in lockstep, each on its own
    bracket, so every d gets the bits of its own bisection."""
    ds = np.asarray(ds)
    eta = np.zeros(len(ds))
    cases = np.flatnonzero(ds < n)
    lo, hi = np.array([eta_bracket(n, int(d), beta) for d in ds[cases]]).reshape(-1, 2).T
    ratios = _eta_ratios(n, ds[cases])
    while (open_ := np.flatnonzero(hi - lo > 1e-9)).size:
        mid = 0.5 * (lo[open_] + hi[open_])
        positive = _eta_h_columns((1.0 - beta) / n, ratios[:, open_], mid) > 0.0
        hi[open_[positive]] = mid[positive]
        lo[open_[~positive]] = mid[~positive]
    eta[cases] = lo
    return eta


# ---------------------------------------------------------------------------
# Dense transient oracles
# ---------------------------------------------------------------------------

def dense_generator(c, absorbing=None) -> np.ndarray:
    rates = c.rates.toarray().astype(float)
    if absorbing is not None:
        rates[np.asarray(absorbing, dtype=bool)] = 0.0
    np.fill_diagonal(rates, 0.0)
    q = rates - np.diag(rates.sum(axis=1))
    return q

def transient_oracle(c, t: float, absorbing=None) -> np.ndarray:
    q = dense_generator(c, absorbing)
    return c.initial @ expm(q * t)


def reach_oracle(c, mask, tau: float) -> float:
    mask = np.asarray(mask, dtype=bool)
    pi = transient_oracle(c, tau, absorbing=mask)
    return float(pi[mask].sum())


def interval_reach_oracle(c, mask, t_lo: float, t_hi: float) -> float:
    """Two-phase dense oracle for first target visit inside [t_lo, t_hi].

    With t_lo > 0, mass in the target at t_lo entered it before the window
    and is dropped; with t_lo = 0, initial mass in the target counts as a
    visit at time 0."""
    mask = np.asarray(mask, dtype=bool)
    q = dense_generator(c, absorbing=mask)
    pi = c.initial @ expm(q * t_lo)
    if t_lo > 0.0:
        pi = np.where(mask, 0.0, pi)
    pi = pi @ expm(q * (t_hi - t_lo))
    return float(pi[mask].sum())


def random_ctmc(rng: np.random.Generator, max_states: int = 8):
    """Random small CTMC with a labeled target and a random initial state."""
    from uctmc import ConcreteCtmc

    n = int(rng.integers(2, max_states + 1))
    rates = rng.uniform(0.2, 2.0, size=(n, n))
    rates *= rng.random(size=(n, n)) < 0.7
    np.fill_diagonal(rates, 0.0)
    scale = rng.uniform(0.2, 3.0)
    rates *= scale
    initial = np.zeros(n)
    initial[int(rng.integers(0, n))] = 1.0
    mask = rng.random(n) < 0.4
    if not mask.any():
        mask[int(rng.integers(0, n))] = True
    reward = rng.uniform(0.0, 2.0, size=n)
    return ConcreteCtmc.from_dense(rates, initial,
                                   labels={"goal": mask},
                                   rewards={"r": reward})


def poisson_terms_loop(lam_t: float) -> tuple[int, np.ndarray]:
    """Reference for one window of ``checker._poisson_windows``: the
    mode-outward recurrence one term at a time, cut at the first term at or
    below 1e-30 (kept on the right, dropped on the left), then
    renormalized."""
    cutoff = 1e-30
    if lam_t <= 0.0:
        return 0, np.array([1.0])
    mode = int(lam_t)
    right = [1.0]
    w, k = 1.0, mode
    while w > cutoff:
        k += 1
        w *= lam_t / k
        right.append(w)
    left = []
    w, k = 1.0, mode
    while k > 0:
        w *= k / lam_t
        k -= 1
        if w <= cutoff:
            break
        left.append(w)
    weights = np.array(left[::-1] + right)
    # the window's sum as the checker takes it: the first term plus numpy's
    # pairwise sum of the others
    weights /= np.add.reduceat(weights, [0])[0]
    return mode - len(left), weights


def uniformized_sparse(c, absorbing=None):
    """Reference for one block of ``checker._Blocks.uniformized``: P^T = (I +
    Q / Lambda)^T assembled from scipy sparse-matrix operations, which the
    block matches within a few ulps (it sums each exit rate in its own
    order)."""
    from scipy import sparse

    rates = c.rates
    n = rates.shape[0]
    if absorbing is not None and absorbing.any():
        rates = sparse.diags((~absorbing).astype(float)) @ rates
    row_sums = np.asarray(rates.sum(axis=1)).ravel()
    lam = float((row_sums - rates.diagonal()).max()) if n else 0.0
    if lam <= 0.0:
        return None, 0.0
    q = rates - sparse.diags(row_sums)
    p = sparse.identity(n, format="csr") + q.tocsr() / lam
    return p.transpose().tocsr(), lam


def plain_series_reference(blocks, start: np.ndarray, vectors: np.ndarray,
                           columns) -> np.ndarray:
    """Reference for ``checker._Blocks.series`` without its steady-state cut:
    the forward pass x_(k+1) = x_k P over the kernel's own rounded P (its
    ``pt``), one chain at a time, with the dots x_k . v up to the end of
    every column's window and the flush of ``_iterates``, each column one
    Poisson-weighted sum (``poisson_terms_loop``).  ``start`` (chains,
    states) and ``vectors`` (chains, vectors, states) are in batch order, as
    the values (chains, columns) it returns."""
    from scipy import sparse

    from uctmc.checker import _FLUSH_BELOW, _FLUSH_EVERY

    size, n = blocks.size, blocks.size * len(blocks.lam)
    pt = sparse.csr_matrix(blocks.pt[::-1], shape=(n, n))
    values = np.empty((len(start), len(columns)))
    for b, pos in enumerate(np.argsort(blocks.order)):
        block = pt[pos * size:(pos + 1) * size, pos * size:(pos + 1) * size]
        windows = [poisson_terms_loop(float(blocks.lam[pos] * t)) for _, t in columns]
        x, dots = np.array(start[b], dtype=float), []
        for k in range(max(k_lo + len(w) for k_lo, w in windows)):
            if k:
                x = block @ x
                if not k % _FLUSH_EVERY:
                    x[x < _FLUSH_BELOW] = 0.0
            dots.append(vectors[b] @ x)
        dots = np.array(dots)
        for c, ((j, _), (k_lo, w)) in enumerate(zip(columns, windows)):
            values[b, c] = w @ dots[k_lo:k_lo + len(w), j]
    return values


def adaptive_steps_reference(chains, absorbing, epsilon: float, scale: np.ndarray,
                             drop: float, start: np.ndarray):
    """Reference for ``checker._Adaptive._steps``: every step over every
    padded state of every block, held block-major, with one CSR mat-vec of
    the block-major Q_off^T over the whole batch.  Yields (x_k, Lambda_k,
    dropped mass so far) per block; x_k is stepped in place."""
    from uctmc._csr import csr_matvec
    from uctmc.checker import (
        _DROP_BELOW,
        _FLUSH_BELOW,
        _FLUSH_EVERY,
        _by_rows,
        _generator,
        _transposed,
    )

    _, exits, entries = _generator(chains, absorbing)
    qt = _transposed(exits.size, *_by_rows(exits.size, *entries))
    share, below = drop / scale, epsilon * _DROP_BELOW / scale
    x = np.array(start, dtype=float)
    y, scaled = np.empty_like(x), np.empty_like(x)
    x_flat, y_flat = x.reshape(-1), y.reshape(-1)
    dropped = np.zeros(len(x))
    for k in itertools.count():
        if k and not k % _FLUSH_EVERY:
            x[x < _FLUSH_BELOW] = 0.0
        positive = x > 0.0
        small = np.flatnonzero(positive & (x < below[:, None]))
        if small.size:
            # per-block sums in state order
            blocks = small // x.shape[1]
            mass = np.bincount(blocks, x_flat[small], minlength=len(x))
            fits = dropped + mass <= share
            dropped = np.where(fits, dropped + mass, dropped)
            small = small[fits[blocks]]
            x_flat[small] = 0.0
            positive.reshape(-1)[small] = False
        lam = np.max(exits * positive, axis=1)
        yield x, lam, dropped
        y_flat.fill(0.0)
        csr_matvec(x.size, x.size, *qt, x_flat, y_flat)
        rate = np.where(lam > 0.0, lam, 1.0)[:, None]
        np.subtract(rate, exits, out=scaled)
        x *= scaled
        x += y
        x /= rate


def adaptive_pass_reference(adaptive, start: np.ndarray, times: np.ndarray, reader=None,
                            save: bool = False):
    """Reference for ``checker._Adaptive._pass``: every step's running sums,
    tail bounds, head test and stop test evaluated one step at a time, as
    the steps are taken, so the pass ends at its last cut.  Returns (rates,
    cuts, series, saved, dropped), with saved (x_j, j, the dropped mass at
    j, each block's first weighed level) and dropped the mass each block
    dropped up to its last cut."""
    import math

    from uctmc._csr import csr_matvec

    blocks = len(start)
    with np.errstate(divide="ignore"):
        log_times = np.log(times)
        poisson = adaptive.top[:, None] * times
        log_poisson = np.log(poisson)
    cuts = np.where(times == 0.0, 0, -1) + np.zeros((blocks, 1), dtype=np.int64)
    mean, var, log_rates = np.zeros(blocks), np.zeros(blocks), np.zeros(blocks)
    rates, series, drops = [], [], []
    # the head: per block the smallest rate so far and the first weighed level
    t, low, level, saved = float(times[0]), np.full(blocks, np.inf), np.full(blocks, -1), None
    with np.errstate(divide="ignore", invalid="ignore"):
        for k, (x, lam, dropped) in enumerate(adaptive._steps(start)):
            if reader is not None:
                series.append(np.zeros(len(reader[0]) - 1))
                csr_matvec(len(series[-1]), x.size, *reader, x.ravel("F"), series[-1])
            rates.append(lam)
            drops.append(dropped)
            inverse = 1.0 / lam
            mean += inverse
            var += inverse * inverse
            log_rates += np.log(lam)
            gap = np.maximum(mean[:, None] - times, 0.0)
            bound = np.fmin((k + 1) * log_times + log_rates[:, None] - math.lgamma(k + 2),
                            -gap * gap / (2.0 * var[:, None]))
            bound = np.fmin(bound, np.where(poisson < k + 1, k + 1 - poisson + (k + 1) * (
                log_poisson - math.log(k + 1)), 0.0))
            cuts[(cuts < 0) & (bound <= adaptive.log_tail[:, None])] = k
            if save:
                low = np.minimum(low, lam)
                open_ = level < 0
                gap = t - mean
                theta = np.minimum(gap / (2.0 * var), low / 2.0)
                fits = (gap > 0.0) & (theta * (theta * var - gap) <= adaptive.log_head)
                settle = open_ & (~fits | (cuts[:, 0] == k))
                if settle.any():
                    if open_.all():
                        saved = x.copy(), k, dropped.copy()
                    level[settle] = k
            if (cuts >= 0).all():
                break
    if saved is not None:
        saved += (level,)
    dropped = np.array(drops)[cuts.max(axis=1), np.arange(blocks)]
    return np.array(rates).T, cuts, np.array(series), saved, dropped


def adaptive_transient_reference(adaptive, v: np.ndarray, t: float) -> np.ndarray:
    """Reference for ``checker._Adaptive.transient``: the saving pass of
    ``adaptive_pass_reference``, then a second run from its saved iterate
    that adds each weighted iterate over every padded state of every
    block."""
    from uctmc.checker import _birth_weights

    rates, cuts, _, (x, first, dropped, heads), _ = adaptive_pass_reference(
        adaptive, v, np.array([t]), save=True)
    cuts = cuts[:, 0]
    weights = _birth_weights(rates, cuts, t, adaptive.level_share)
    out = np.zeros_like(v)
    for k, (x, _, _) in zip(range(first, int(cuts.max()) + 1),
                            adaptive._steps(x, first, dropped)):
        out += np.where((heads <= k) & (k <= cuts), weights[:, k], 0.0)[:, None] * x
    return out


# ---------------------------------------------------------------------------
# Per-state compile and chain assembly
# ---------------------------------------------------------------------------

def table_reference(m, state_cap):
    """Reference for ``model._Table``: the reachable states compiled one at a
    time, with exact-rational evaluation of every guard, update, rate, label
    and reward.

    States are numbered in sequential BFS order: each state's enabled commands
    are visited in command order and a new successor takes the next index.  At
    a state, a rate is its parameter polynomial split into coefficient *
    kernel, with the coefficient the |value| of its lowest monomial.  Raises
    ModelError at the first update (state, command, then variable order) that
    is not an integer or leaves its variable's bounds, and StateCapExceeded
    when a new state would pass ``state_cap``; an update fault of an edge is
    raised before its cap check.  After the loop, raises ModelError at the
    first state (then reward, in declaration order) whose reward is negative.
    Returns a namespace with ``states``, ``roots``, ``source``, ``target``,
    ``coefficient``, ``kernel``, ``command``, ``kernels``, ``initial``,
    ``labels`` and ``rewards`` as ``_Table`` has them.
    """
    from fractions import Fraction
    from types import SimpleNamespace

    from uctmc import expr as ex
    from uctmc.model import ModelError, StateCapExceeded

    positions = {v: i for i, v in enumerate(m.variable_names)}

    def successor(state, command, env):
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

    kernels: dict = {}  # sorted (monomial, coefficient) pairs -> index
    states = list(dict.fromkeys(point for point, _ in m.initial_states()))
    index = {s: i for i, s in enumerate(states)}
    roots = len(states)
    edges, labels, rewards = [], [], []
    for source, state in enumerate(states):  # extended while iterating
        env = dict(zip(m.variable_names, state))
        for c, command in enumerate(m.commands):
            if ex.evaluate_guard(command.guard, env):
                poly = ex.polynomial(command.rate, env)
                scale = abs(poly[min(poly)]) if poly else Fraction(1)
                kernel = tuple(sorted((mono, v / scale) for mono, v in poly.items()))
                target = successor(state, command, env)
                if target not in index:
                    if len(states) >= state_cap:
                        raise StateCapExceeded(f"state cap of {state_cap} exceeded")
                    index[target] = len(states)
                    states.append(target)
                edges.append((source, index[target], float(scale),
                              kernels.setdefault(kernel, len(kernels)), c))
        labels.append([ex.evaluate_guard(g, env) for g in m.labels.values()])
        rewards.append([ex.evaluate(r, env) for r in m.rewards.values()])
    for state, values in zip(states, rewards):
        for name, value in zip(m.rewards, values):
            if value < 0:
                raise ModelError(f"reward {name} is negative at reachable state {state}; "
                                 "rewards must be nonnegative")
    n = len(states)
    columns = list(zip(*edges)) or [()] * 5
    source, target, kernel, command = (np.array(columns[j], dtype=np.int64) for j in (0, 1, 3, 4))
    points, probs = zip(*m.initial_states())
    return SimpleNamespace(
        states=states, roots=roots, source=source, target=target,
        coefficient=np.array(columns[2], dtype=float), kernel=kernel, command=command,
        kernels=list(kernels),
        initial=np.bincount([index[p] for p in points], [float(q) for q in probs], minlength=n),
        labels=dict(zip(m.labels, np.array(labels, dtype=bool).reshape(n, -1).T)),
        rewards=dict(zip(m.rewards, np.array(rewards, dtype=float).reshape(n, -1).T)))


def chain_reference(m, u, retained=None):
    """A chain of model ``m`` at valuation ``u``, assembled state by state.

    Each state's compiled edges, in command order, are merged into a dict
    {target: rate} with rate = coefficient * float(exact kernel value), and the
    rows become a COO matrix.  Without ``retained`` the chain covers every
    compiled state in BFS order; with ``retained`` (state tuples) it covers
    those states plus a last sink state that takes every edge leaving them.
    Labels and rewards are evaluated from the model's expressions.  The model
    must have been compiled by a graph check or chain build.  Returns (rates,
    initial, labels, rewards).
    """
    import math
    from fractions import Fraction

    from scipy import sparse

    from uctmc import expr as ex
    from uctmc import model as um

    table = um._tables[m]
    env = dict(zip(m.parameter_names, u.values))
    kernels = [float(sum((c * math.prod(env[x] for x in mono) for mono, c in kernel),
                         Fraction(0))) for kernel in table.kernels]
    outgoing = {state: {} for state in table.states}
    for source, target, coefficient, kernel in zip(
            table.source.tolist(), table.target.tolist(),
            table.coefficient.tolist(), table.kernel.tolist()):
        row = outgoing[table.states[source]]
        target = table.states[target]
        row[target] = row.get(target, 0.0) + coefficient * kernels[kernel]

    states = list(table.states if retained is None else retained)
    n = len(states)
    size = n if retained is None else n + 1
    index = {s: i for i, s in enumerate(states)}
    sources, targets, values = [], [], []
    for i, state in enumerate(states):
        for target, rate in outgoing[state].items():
            sources.append(i)
            targets.append(index.get(target, n))
            values.append(rate)
    rates = sparse.csr_matrix((values, (sources, targets)), shape=(size, size))
    initial = np.zeros(size)
    for point, prob in m.initial_states():
        initial[index[point]] += float(prob)
    envs = [dict(zip(m.variable_names, state)) for state in states]
    pad = [0] * (size - n)  # the sink has no label and reward 0
    labels = {name: np.array([ex.evaluate_guard(g, e) for e in envs] + pad, dtype=bool)
              for name, g in m.labels.items()}
    rewards = {name: np.array([float(ex.evaluate(r, e)) for e in envs] + pad, dtype=float)
               for name, r in m.rewards.items()}
    return rates, initial, labels, rewards
