"""Independent oracles used by the test suite.

These deliberately avoid the library's own code paths: the LP oracle solves
the region problem as a generic linear program, the transient oracles use
dense matrix exponentials, and the complexity oracle enumerates subsets.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm
from scipy.optimize import linprog

from uctmc.scenario import ScenarioError, solve_box_imprecise, solve_box_precise

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
    """Two-phase dense oracle for first target visit inside [t_lo, t_hi]."""
    mask = np.asarray(mask, dtype=bool)
    q = dense_generator(c, absorbing=mask)
    pi = c.initial @ expm(q * t_lo)
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
    """Reference for ``checker._poisson_terms``: the mode-outward recurrence
    one term at a time, cut at the first term at or below 1e-30 (kept on the
    right, dropped on the left), then renormalized."""
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
    weights /= weights.sum()
    return mode - len(left), weights


def uniformized_sparse(c, absorbing=None):
    """Reference for ``checker._uniformized``: P^T = (I + Q / Lambda)^T
    assembled from scipy sparse-matrix operations."""
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
