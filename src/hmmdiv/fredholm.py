"""Deterministic divergence engine via the filter's invariant density.

The per-step likelihood ratio of two switching models is a function of the
previous observation and of the hidden-state filter weight, so the divergence
rate is an expectation against the stationary joint density of (hidden state,
previous observation, filter weight). That density solves a linear Fredholm
integral equation whose kernel is built from three factors: a transition
probability, the generating emission density carrying the observation
forward, and the x-derivative of

    Q(x; conditioning) = P(next filter weight <= x | current state, obs, weight).

Discretizing the equation on a tensor lattice turns the kernel into a
(nearly) column-stochastic matrix; its Perron eigenvector tabulates the
invariant density, and the divergence functionals J^alpha and J_log are
quadratures of the one-step ratio statistics against it.

Both model families run through one code path on their common chain form
(`models.as_chain`): a hidden chain whose state s emits
N(c_s + b_s * y_prev, s_s^2), with family B lifted to the four pair states
(X_{t-1}, X_t). One assembler builds the kernel, one predictive mixture and
one quadrature evaluate the functionals; the lifted chain's zero transitions
encode that a pair (i, j) can only move to (j, k). Q, too, is one function
of the two chains (`q`), which picks its evaluator by the filter's state
count. A two-state filter (family A, per-state AR emissions) admits a
closed form through a noncentral chi-square CDF. For the four pair states
Q is the probability that a signed Gaussian mixture with one variance is
nonpositive, which this module evaluates exactly by locating the
mixture's sign changes (an exponential-sum root cascade) and summing
Gaussian CDF masses over the nonpositive intervals.

Q, the emission densities and the quadrature's inner integrals depend on
a state only through its emission (c_s, b_s, s_s), so states whose
emissions have equal numbers (the pair lift with psi2 = 0 has two distinct
emissions among four states) share one evaluation, bit for bit. Within a
case (`case_mixtures`) the order-free grids are built once: both
predictive mixtures, the log ratio grid of J^alpha, and the quadrature
terms of the generating chain.

Throughout, theta1 denotes the data-generating model and theta the
alternative; filter weights track P(X_t = 0 | data). `hmmdiv.cli` combines
these pieces into divergence rates (`divergence_fredholm`).
"""

from __future__ import annotations

import contextlib
import math
import threading
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr

from .models import (
    LinearGaussianChain,
    ModelAParams,
    ModelBParams,
    _logsumexp,
    as_chain,
    renyi_order,
    require_counts,
    transition_matrix,
)

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


class GridTooCoarseError(ValueError):
    """Discretization failed a sanity gate: a pre-normalization kernel
    column sum fell outside [0.5, 1.5] (increase N or a), or the lattice
    keeps too few sds of an order's integrand tail (increase a)."""


class NonConvergenceError(RuntimeError):
    """Power iteration hit its iteration cap before reaching tolerance."""


@dataclass(frozen=True)
class GridSpec:
    """Discretization parameters.

    N is the lattice count per axis: interior observation nodes
    v_i = -a + 2ai/N and filter nodes x_i = w_i = i/N, i = 1..N-1, with the
    boundary values of the density clamped to zero. quad_points is the
    per-axis resolution of the Simpson rules used for the divergence
    quadratures. delta = 1/(2N) is the half-step of the central difference
    that replaces dQ/dx.
    """

    N: int = 16
    a: float = 15.0
    quad_points: int = 201
    delta: float = field(init=False)

    def __post_init__(self):
        require_counts(self, ("N", "quad_points"))
        if self.N < 4:
            raise ValueError(f"N must be at least 4, got {self.N}")
        if not 0.0 < self.a < math.inf:
            raise ValueError(f"a must be positive and finite, got {self.a}")
        if self.quad_points < 51 or self.quad_points % 2 == 0:
            raise ValueError(
                f"quad_points must be odd and at least 51, got {self.quad_points}"
            )
        object.__setattr__(self, "delta", 1.0 / (2.0 * self.N))

    @property
    def v_nodes(self) -> np.ndarray:
        i = np.arange(1, self.N)
        return -self.a + 2.0 * self.a * i / self.N

    @property
    def x_nodes(self) -> np.ndarray:
        return np.arange(1, self.N) / self.N

    @property
    def x_half_nodes(self) -> np.ndarray:
        # the points x_i +- delta, i = 1..N-1, collapse to (2m-1)/(2N), m = 1..N
        return (2.0 * np.arange(1, self.N + 1) - 1.0) / (2.0 * self.N)

    @property
    def cell_area(self) -> float:
        return (2.0 * self.a / self.N) * (1.0 / self.N)


@dataclass(frozen=True)
class KernelMatrix:
    """Discretized Fredholm kernel, column-normalized to stochastic form."""

    dim: int
    entries: np.ndarray
    pre_norm_col_sums: np.ndarray
    n_components: int
    grid: GridSpec


@dataclass(frozen=True)
class InvariantDensityGrid:
    """Perron eigenvector reshaped to per-component lattices, scaled so the
    total mass (sum of values times cell_area) is 1."""

    components: np.ndarray
    cell_area: float
    eigen_residual: float
    iterations: int
    grid: GridSpec


@dataclass(frozen=True)
class DivergenceResult:
    alpha: float
    value: float
    method: str = "fredholm"
    diagnostics: dict = field(default_factory=dict)


def noncentral_chisq1_cdf(x, lam):
    """CDF of the noncentral chi-square with 1 degree of freedom.

    P(chi2_1(lam) <= x) = P(|Z + sqrt(lam)| <= sqrt(x))
                        = Phi(sqrt(x) - sqrt(lam)) - Phi(-sqrt(x) - sqrt(lam)),
    an exact identity for one degree of freedom; 0 for x <= 0.
    """
    x = np.asarray(x, dtype=float)
    lam = np.asarray(lam, dtype=float)
    if np.any(lam < 0):
        raise ValueError("noncentrality must be nonnegative")
    rx = np.sqrt(np.maximum(x, 0.0))
    rl = np.sqrt(lam)
    out = np.where(x > 0.0, ndtr(rx - rl) - ndtr(-rx - rl), 0.0)
    if out.ndim == 0:
        return float(out)
    return out


# ---------------------------------------------------------------------------
# Q on the chain form
#
# With predictive state probabilities pred_s = w T[0, s] + (1 - w) T[1, s]
# under the filter chain, the next weight is the posterior mass of the
# states ending in primitive state 0, and the event {W_t <= x} is {h(Y) <= 0}
# for the signed mixture
#
#   h(y) = sum_s sign_s pred_s f_s(y | u),   sign_s = 1 - x (s even), -x (s odd).
#
# Two states (family A) admit a closed form: h <= 0 says the density ratio
# f_0/f_1 is at most z = (x / (1 - x)) pred_1 / pred_0, a noncentral
# chi-square event. The pair lift (family B) shares one variance, so
# sign(h(y)) = sign(sum_r c_r exp(e_r y)): an exponential sum with at most
# 4 terms and hence at most 3 real roots. Roots of an exponential sum are
# separated by roots of its derivative, which is again an exponential sum
# with one term fewer, so a short cascade (closed form at 2 terms, bisection
# between critical points above) finds every root. Q is then the
# generating-density mass of the intervals where the sign is <= 0. This is
# exact up to CDF rounding, which the simulation oracles require; an
# indicator quadrature at realistic node counts is not.


def _sign_exp_sum(e, logmag, sgn, y):
    """Sign of sum_r sgn_r exp(logmag_r + e_r y) at y[..., None]-compatible
    shapes; stable via max-exponent factoring. The last axis has at most
    four terms, so its max and its left-to-right sum are unrolled: numpy's
    reductions over so short an axis cost more than the arithmetic."""
    expo = logmag + e * y[..., None]
    top = expo[..., 0]
    for r in range(1, expo.shape[-1]):
        top = np.maximum(top, expo[..., r])
    top = np.where(np.isfinite(top), top, 0.0)
    terms = sgn * np.exp(expo - top[..., None])
    val = terms[..., 0]
    for r in range(1, terms.shape[-1]):
        val = val + terms[..., r]
    return np.sign(val)


def _exp_sum_roots(e, c, lo, hi):
    """Roots of sum_r c_r exp(e_r y) inside [lo, hi], vectorized.

    e: (B, T) strictly increasing along the last axis; c: (B, T); lo, hi:
    (B,). Returns (B, T-1) roots sorted ascending, padded with hi. Roots
    outside [lo, hi] are dropped (their generating-density mass is
    negligible by the callers' choice of bounds).
    """
    B, T = c.shape
    if T == 1:
        return np.empty((B, 0))
    with np.errstate(divide="ignore", invalid="ignore"):
        logmag = np.where(c != 0.0, np.log(np.abs(c)), -np.inf)
    sgn = np.sign(c)

    if T == 2:
        valid = sgn[:, 0] * sgn[:, 1] < 0
        with np.errstate(invalid="ignore"):
            r = (logmag[:, 0] - logmag[:, 1]) / (e[:, 1] - e[:, 0])
        r = np.where(valid & np.isfinite(r), np.clip(r, lo, hi), hi)
        return r[:, None]

    # critical points: roots of d/dy [exp(-e_1 y) * sum], one term fewer
    crit = _exp_sum_roots(e[:, 1:] - e[:, :1], c[:, 1:] * (e[:, 1:] - e[:, :1]), lo, hi)
    nodes = np.sort(np.concatenate([lo[:, None], crit, hi[:, None]], axis=1), axis=1)
    signs = _sign_exp_sum(e[:, None, :], logmag[:, None, :], sgn[:, None, :], nodes)

    # bisect only the sign changes, gathered flat: (row, interval) pairs
    rows, cols = np.nonzero(signs[:, :-1] * signs[:, 1:] < 0)
    fa = signs[rows, cols]
    a, b = nodes[rows, cols], nodes[rows, cols + 1]
    e, logmag, sgn = e[rows], logmag[rows], sgn[rows]
    # at most 80 halvings; a step is a fixed map of each (a, b), so once one
    # changes no bracket end the rest would change none either
    for _ in range(80):
        mid = 0.5 * (a + b)
        left = _sign_exp_sum(e, logmag, sgn, mid) * fa >= 0
        a_next = np.where(left, mid, a)
        b_next = np.where(left, b, mid)
        if np.array_equal(a_next, a) and np.array_equal(b_next, b):
            break
        a, b = a_next, b_next
    roots = np.repeat(hi[:, None], T - 1, axis=1)
    roots[rows, cols] = 0.5 * (a + b)
    return np.sort(roots, axis=1)


def _chains(theta_gen, theta_filt) -> tuple[LinearGaussianChain, LinearGaussianChain]:
    """The chain forms of a model pair of one family; a mixed pair raises
    TypeError."""
    if not (type(theta_gen) is type(theta_filt)
            and isinstance(theta_gen, (ModelAParams, ModelBParams))):
        raise TypeError("theta_gen and theta_filt must both be family A "
                        "(per-state AR) or both family B (two-lag) parameters")
    return as_chain(theta_gen), as_chain(theta_filt)


def _q_batch(x, u, w, t: int, gen: LinearGaussianChain, filt: LinearGaussianChain):
    """Q(x; t, u, w) for flat arrays x, u, w of one length, x in (0, 1) and
    w in [0, 1]: Y drawn from state t of gen given Y_prev = u, the filter
    run under filt from weight w. Closed form for a two-state filter, the
    root cascade otherwise."""
    mg = gen.c[t] + gen.b[t] * u
    sg = gen.s[t]
    if filt.d == 2:
        pred = _predictive(filt.transition, w)
        z = (x / (1.0 - x)) * (pred[:, 1] / pred[:, 0])
        # log(f0/f1) is the quadratic zeta*y^2 + 2*eta*y + nu + log(s1/s0)
        s0, s1 = filt.s
        m0 = filt.c[0] + filt.b[0] * u
        m1 = filt.c[1] + filt.b[1] * u
        zeta = 1.0 / (2.0 * s1 * s1) - 1.0 / (2.0 * s0 * s0)
        eta = m0 / (2.0 * s0 * s0) - m1 / (2.0 * s1 * s1)
        nu = -(m0 * m0) / (2.0 * s0 * s0) + (m1 * m1) / (2.0 * s1 * s1)
        if abs(zeta) > 1e-12:
            thr = np.log(z * s0 / s1) / zeta + (eta / zeta) ** 2 - nu / zeta
            lam = ((mg + eta / zeta) / sg) ** 2
            cdf = noncentral_chisq1_cdf(thr / (sg * sg), lam)
            return cdf if zeta > 0 else 1.0 - cdf
        # equal filter variances: the log ratio is linear in y with slope 2*eta
        gap = np.log(z) - (math.log(s1 / s0) + nu)
        with np.errstate(divide="ignore", invalid="ignore"):
            up = ndtr((gap / (2.0 * eta) - mg) / sg)
        flat = np.where(gap >= 0.0, 1.0, 0.0)  # ratio constant in y
        return np.where(eta > 0, up, np.where(eta < 0, 1.0 - up, flat))

    # components with equal (c, b) merge; the grouping is structural, so it
    # is shared by the whole batch
    uniq, inverse = np.unique(np.stack([filt.c, filt.b], axis=1), axis=0, return_inverse=True)
    means = uniq[:, 0] + uniq[:, 1] * u[:, None]
    sf = filt.s[0]  # the pair lift has one variance
    coef = np.zeros(means.shape)
    sign = (1.0 - x, -x)  # chain state s ends in primitive state s % 2
    for s in range(filt.d):
        coef[:, inverse[s]] += (sign[s % 2] * filt.transition[0, s] * w
                                + sign[s % 2] * filt.transition[1, s] * (1.0 - w))
    coef = coef * np.exp(-(means ** 2) / (2.0 * sf * sf))
    expo = means / (sf * sf)

    span = 12.0 * max(sf, sg)
    lo = np.minimum(means.min(axis=1), mg) - span
    hi = np.maximum(means.max(axis=1), mg) + span

    roots = _exp_sum_roots(expo, coef, lo, hi)
    nodes = np.concatenate([lo[:, None], roots, hi[:, None]], axis=1)
    with np.errstate(divide="ignore"):
        logmag = np.where(coef != 0.0, np.log(np.abs(coef)), -np.inf)
    sgn = np.sign(coef)
    mids = 0.5 * (nodes[:, :-1] + nodes[:, 1:])
    sign_mid = _sign_exp_sum(expo[:, None, :], logmag[:, None, :], sgn[:, None, :], mids)
    sign_lo = _sign_exp_sum(expo, logmag, sgn, lo)
    sign_hi = _sign_exp_sum(expo, logmag, sgn, hi)

    cdf = ndtr((nodes - mg[:, None]) / sg)
    mass = np.sum((cdf[:, 1:] - cdf[:, :-1]) * (sign_mid <= 0), axis=1)
    mass += cdf[:, 0] * (sign_lo <= 0)
    mass += (1.0 - cdf[:, -1]) * (sign_hi <= 0)
    return np.clip(mass, 0.0, 1.0)


def q(x: float, u: float, w: float, t: int, theta_gen, theta_filt) -> float:
    """P(W_t <= x | state t, Y_{t-1} = u, previous weight w): Y_t drawn
    from state t of theta_gen's chain form, the filter run under
    theta_filt. For family B, t = 2j + k is the pair state (j, k). x <= 0
    gives 0 and x >= 1 gives 1, since the weight lies in [0, 1]."""
    if not 0.0 <= w <= 1.0:
        raise ValueError(f"w must lie in [0, 1], got {w}")
    gen, filt = _chains(theta_gen, theta_filt)
    if t not in range(gen.d):
        raise ValueError(f"t must be a state in 0..{gen.d - 1}, got {t}")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    return float(_q_batch(np.array([x]), np.array([u]), np.array([w]), t, gen, filt)[0])


# Indicator simulations of Q for the selftest and the tests: the share of
# `size` draws of Y (from rng's standard normals) whose filter event holds.


def simulate_q_two_state(x, u, w, j, tg: ModelAParams, tf: ModelAParams,
                         rng: np.random.Generator, size: int) -> float:
    y = tg.mu[j] + tg.psi[j] * u + tg.sigma[j] * rng.standard_normal(size)
    pf = transition_matrix(tf)
    f = [np.exp(-0.5 * ((y - tf.mu[i] - tf.psi[i] * u) / tf.sigma[i]) ** 2) / tf.sigma[i]
         for i in (0, 1)]
    g = ((1 - x) * (w * pf[0, 0] + (1 - w) * pf[1, 0]) * f[0]
         - x * (w * pf[0, 1] + (1 - w) * pf[1, 1]) * f[1])
    return float(np.mean(g <= 0))


def simulate_q_four_state(x, u, w, j, k, tg: ModelBParams, tf: ModelBParams,
                          rng: np.random.Generator, size: int) -> float:
    y = (tg.psi2 * tg.mu[j] + tg.psi1 * tg.mu[k] + tg.phi * u
         + tg.sigma * rng.standard_normal(size))
    pf = transition_matrix(tf)
    f = [np.exp(-0.5 * ((y - tf.psi2 * tf.mu[i] - tf.psi1 * tf.mu[jj] - tf.phi * u)
                        / tf.sigma) ** 2)
         for i in (0, 1) for jj in (0, 1)]
    g = ((1 - x) * pf[0, 0] * w * f[0] - x * pf[0, 1] * w * f[1]
         + (1 - x) * pf[1, 0] * (1 - w) * f[2] - x * pf[1, 1] * (1 - w) * f[3])
    return float(np.mean(g <= 0))


# ---------------------------------------------------------------------------
# kernel assembly


def _norm_pdf(y, mean, sd):
    z = (y - mean) / sd
    return np.exp(-0.5 * z * z) / (sd * math.sqrt(2.0 * math.pi))


def _predictive(transition: np.ndarray, w_nodes) -> np.ndarray:
    """Filter's predictive state probabilities w * T[0] + (1 - w) * T[1],
    shape (w, state); w is the filter weight of state 0. For the pair lift
    rows 0 and 1 are (0,0) and (0,1), which end in states 0 and 1."""
    return w_nodes[:, None] * transition[0] + (1.0 - w_nodes)[:, None] * transition[1]


def _emission_reps(chain: LinearGaussianChain) -> list[int]:
    """For each state, the first state whose emission (c, b, s) has the same
    numbers. Q, the emission densities and the quadrature terms of a state
    depend on its emission only, so states that share one share them."""
    keys = [np.array([chain.c[t], chain.b[t], chain.s[t]]).tobytes() for t in range(chain.d)]
    return [keys.index(k) for k in keys]


def _q_half(gen: LinearGaussianChain, filt: LinearGaussianChain, grid: GridSpec) -> np.ndarray:
    """Q at the half nodes, shape (state, u, half, w), tabulated once per
    distinct generating emission."""
    ug, xg, wg = np.meshgrid(grid.v_nodes, grid.x_half_nodes, grid.x_nodes, indexing="ij")
    tables = []
    for t, first in enumerate(_emission_reps(gen)):
        tables.append(tables[first] if first < t else
                      _q_batch(xg.ravel(), ug.ravel(), wg.ravel(), t, gen, filt).reshape(ug.shape))
    return np.stack(tables)


def _assemble(gen: LinearGaussianChain, q_half: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Kernel entry (target t, u, x; source s, v, w) =
    T1[s, t] * f_s(u | v) * dQ_t/dx(x; u, w) * cell area, with dQ/dx the
    central difference of Q between neighbouring half nodes. Blocks with
    T1[s, t] = 0 stay zero."""
    d, n1 = gen.d, grid.N - 1
    v = grid.v_nodes
    dq = np.diff(q_half, axis=2)
    np.clip(dq, 0.0, None, out=dq)
    rate = dq / (2.0 * grid.delta)  # (t, u_idx, x_idx, w_idx)
    # f_s(u | v): observation carried from lattice node v to u
    f_trans = [_norm_pdf(v[:, None], gen.c[s] + gen.b[s] * v[None, :], gen.s[s])
               for s in range(d)]

    k6 = np.zeros((d, n1, n1, d, n1, n1))
    for t in range(d):
        for s in range(d):
            if gen.transition[s, t] > 0.0:
                k6[t, :, :, s, :, :] = (
                    gen.transition[s, t]
                    * f_trans[s][:, None, :, None]
                    * rate[t][:, :, None, :]
                    * grid.cell_area
                )
    return k6.reshape(d * n1 * n1, d * n1 * n1)


def build_kernel(theta_gen, theta_filt, grid: GridSpec) -> KernelMatrix:
    """Assemble the discretized kernel and column-normalize it.

    Each entry couples a target lattice point (component, u, x) to a source
    point (component, v, w) as transition probability x generating density
    x central-difference dQ/dx x cell area. Exact column sums would be 1 for
    the untruncated operator; the truncation to [-a, a] and the finite
    difference leave sums near 1, which normalization makes exact. Sums far
    from 1, or not finite, mean the lattice cannot resolve the densities.
    Both models must be of one family; a mixed pair raises TypeError.
    """
    gen, filt = _chains(theta_gen, theta_filt)
    q_half = _q_half(gen, filt, grid)
    entries = _assemble(gen, q_half, grid)

    col_sums = entries.sum(axis=0)
    if not np.all((col_sums >= 0.5) & (col_sums <= 1.5)):
        worst = float(col_sums[np.argmax(np.abs(col_sums - 1.0))])
        raise GridTooCoarseError(
            f"pre-normalization column sum {worst:.4f} outside [0.5, 1.5]; "
            f"the lattice (N={grid.N}, a={grid.a}) is too coarse for these models"
        )
    entries = entries / col_sums[None, :]
    return KernelMatrix(
        dim=entries.shape[0],
        entries=entries,
        pre_norm_col_sums=col_sums,
        n_components=gen.d,
        grid=grid,
    )


def _power_iteration(entries: np.ndarray, tol: float, max_iters: int):
    """Perron vector of a column-stochastic matrix from the uniform start.
    Returns (m, residual, iterations) with ||m||_1 = 1; raises on cap."""
    m = np.full(entries.shape[0], 1.0 / entries.shape[0])
    residual = math.inf
    for it in range(1, max_iters + 1):
        km = entries @ m
        residual = float(np.abs(km - m).sum())
        m = km / km.sum()
        if residual <= tol:
            return m, residual, it
    raise NonConvergenceError(
        f"power iteration did not reach {tol:.1e} in {max_iters} iterations "
        f"(last residual {residual:.3e})"
    )


def solve_invariant(kernel: KernelMatrix, tol: float = 1e-12,
                    max_iters: int = 100000) -> InvariantDensityGrid:
    """Perron eigenvector of the column-stochastic kernel by power iteration.

    Starts from the uniform positive vector; K nonnegative keeps every
    iterate nonnegative. Stops when ||K m - m||_1 <= tol on the
    ||m||_1 = 1 normalization, then rescales so the lattice mass
    (values times cell_area) is 1.
    """
    m, residual, it = _power_iteration(kernel.entries, tol, max_iters)
    n1 = kernel.grid.N - 1
    comps = (m / kernel.grid.cell_area).reshape(kernel.n_components, n1, n1)
    return InvariantDensityGrid(
        components=comps,
        cell_area=kernel.grid.cell_area,
        eigen_residual=residual,
        iterations=it,
        grid=kernel.grid,
    )


# ---------------------------------------------------------------------------
# divergence functionals


def _simpson(lo: float, hi: float, n: int):
    nodes = np.linspace(lo, hi, n)
    h = (hi - lo) / (n - 1)
    wts = np.full(n, 2.0)
    wts[1::2] = 4.0
    wts[0] = wts[-1] = 1.0
    return nodes, wts * (h / 3.0)


def _log_gauss(y, mean, sd):
    z = (y - mean) / sd
    return -0.5 * z * z - math.log(sd) - _LOG_SQRT_2PI


def _emission_grid(chain: LinearGaussianChain, grid: GridSpec):
    """The Simpson nodes and weights on [-a, a], and log f_s(y | u) with u
    and y on those nodes, shape (s, u, y)."""
    nodes, wts = _simpson(-grid.a, grid.a, grid.quad_points)
    logf = np.stack([_log_gauss(nodes[None, :], chain.c[s] + chain.b[s] * nodes[:, None], chain.s[s])
                     for s in range(chain.d)])
    return nodes, wts, logf


_case = threading.local()


@contextlib.contextmanager
def case_mixtures():
    """Share the order-free grids of one case on this thread.

    Every order of a case reads the same grids: the predictive mixtures of
    theta1 and theta (`_mix_log`), their difference, the log ratio grid of
    `j_alpha`, and the order-free quadrature terms of theta1's chain
    (`_quadrature_terms`). Inside the block each is built once per (chain
    numbers, grid) and later `j_log` / `j_alpha` calls read it; all are
    dropped when the block exits. Each thread has its own store, so cases
    running at once keep their own grids, and outside a block every call
    builds anew.
    """
    _case.store = {}
    try:
        yield
    finally:
        _case.store = None


def _shared(key, build):
    """build() once per key inside a `case_mixtures` block on this thread;
    outside one, build() on every call."""
    store = getattr(_case, "store", None)
    if store is None:
        return build()
    if key not in store:
        store[key] = build()
    return store[key]


def _chain_key(chain: LinearGaussianChain) -> tuple:
    # the grids depend on the chain's numbers only, whatever the model type
    return (chain.transition.tobytes(), chain.c.tobytes(), chain.b.tobytes(),
            chain.s.tobytes())


def _mix_log(chain: LinearGaussianChain, grid: GridSpec) -> np.ndarray:
    """log of the one-step predictive density sum_s pred_s(w) * f_s(y | u)
    on the (w, u, y) grid, with w the filter weight of state 0 and u, y
    the quadrature nodes. Read-only, since `case_mixtures` shares it."""
    return _shared(("mixture", _chain_key(chain), grid), lambda: _build_mix_log(chain, grid))


def _build_mix_log(chain: LinearGaussianChain, grid: GridSpec) -> np.ndarray:
    """`_mix_log` built one filter weight at a time: the same bits as one
    logsumexp over the state axis of the full (w, s, u, y) array, without
    holding that array."""
    _, _, logf = _emission_grid(chain, grid)
    logpred = np.log(_predictive(chain.transition, grid.x_nodes))  # (w, s)
    out = np.stack([_logsumexp(lp[:, None, None] + logf, axis=0) for lp in logpred])
    out.flags.writeable = False
    return out


def _log_ratio(gen: LinearGaussianChain, filt: LinearGaussianChain,
               grid: GridSpec) -> np.ndarray:
    """_mix_log(gen) - _mix_log(filt), read-only: the log predictive
    density ratio that `j_alpha` raises to each order."""
    key = ("ratio", _chain_key(gen), _chain_key(filt), grid)
    return _shared(key, lambda: _build_log_ratio(gen, filt, grid))


def _build_log_ratio(gen: LinearGaussianChain, filt: LinearGaussianChain,
                     grid: GridSpec) -> np.ndarray:
    r = _mix_log(gen, grid) - _mix_log(filt, grid)
    r.flags.writeable = False
    return r


def _quadrature_terms(gen: LinearGaussianChain, grid: GridSpec) -> tuple:
    return _shared(("quadrature", _chain_key(gen), grid),
                   lambda: _build_quadrature_terms(gen, grid))


def _build_quadrature_terms(gen: LinearGaussianChain, grid: GridSpec) -> tuple:
    """The order-free terms of `_j_quadrature` under the generating chain:
    the Simpson weights (u and y share the nodes), `_emission_reps`,
    log f_t(y | u) as (t, u, y), and by distinct emission e the density
    f_e(y | u) on (u, y) and f_e(u | v) on (v, u); last, by (source,
    target) emission pair that a transition joins, the normalizer g0 of
    the contraction g, which folds in inner0, the y-integral of the
    target's density."""
    nodes, wts, log_gen = _emission_grid(gen, grid)
    v = grid.v_nodes
    reps = _emission_reps(gen)
    firsts = sorted(set(reps))
    dens = {e: np.exp(log_gen[e]) for e in firsts}
    f_emis = {e: np.exp(_log_gauss(nodes[None, :], gen.c[e] + gen.b[e] * v[:, None], gen.s[e]))
              for e in firsts}
    inner0 = {e: dens[e] @ wts for e in firsts}  # (u,)
    g0 = {(reps[s], reps[t]): f_emis[reps[s]] @ (wts * inner0[reps[t]])  # (v,)
          for t in range(gen.d) for s in range(gen.d) if gen.transition[s, t] > 0.0}
    return wts, reps, log_gen, dens, f_emis, g0


def _j_quadrature(gen: LinearGaussianChain, m: InvariantDensityGrid, grid: GridSpec,
                  r: np.ndarray, alpha: float | None) -> float:
    """Shared quadrature core for J^alpha and J_log.

    r is a log predictive density (or a difference of two) on the (w, u, y)
    grid. alpha set: integrand exp((alpha-1) * r). alpha None: integrand r.
    Data come from the generating chain gen: source state s carries the
    observation from v to u, target state t draws y given u. The inner
    conditional expectations are self-normalized by the integrand-free
    integral so that a constant integrand integrates to exactly itself
    regardless of grid truncation.
    The inner integral is taken once per distinct target emission and its
    contraction g once per (source, target) emission pair; the terms add up
    target-outer, source-inner.
    """
    wts, reps, log_gen, dens, f_emis, g0 = _quadrature_terms(gen, grid)
    # one integrand grid, filled in place: a fresh array of this size per
    # step costs more than the arithmetic does
    buf = np.empty(r.shape)
    inner, normed = {}, {}
    total = 0.0
    for t in range(gen.d):
        et = reps[t]
        if et not in inner:
            if alpha is not None:
                np.multiply(alpha - 1.0, r, out=buf)
                np.exp(np.add(buf, log_gen[et], out=buf), out=buf)
            else:
                np.multiply(r, dens[et], out=buf)
            inner[et] = buf @ wts  # (w, u)
        for s in range(gen.d):
            if gen.transition[s, t] > 0.0:
                pair = (reps[s], et)
                if pair not in normed:
                    g = np.einsum("u,vu,wu->vw", wts, f_emis[pair[0]], inner[et])
                    normed[pair] = g / g0[pair][:, None]
                total += gen.transition[s, t] * float(
                    np.sum(m.components[s] * normed[pair])
                ) * m.cell_area
    return float(total)


def j_alpha(theta1, theta, alpha: float, m: InvariantDensityGrid,
            grid: GridSpec) -> float:
    """J^alpha: expected (alpha-1) power of the one-step predictive-density
    ratio, against the invariant density m (solved with filter theta).
    The divergence is log(J^alpha)/(alpha-1)."""
    alpha = renyi_order(alpha)
    if alpha == 1.0:
        raise ValueError("alpha = 1 has no power functional; use j_log")
    gen, filt = as_chain(theta1), as_chain(theta)
    return _j_quadrature(gen, m, grid, _log_ratio(gen, filt, grid), alpha)


def j_log(theta_filt, theta1, m: InvariantDensityGrid, grid: GridSpec) -> float:
    """J_log: expected log predictive density under theta_filt, with data
    generated by theta1 and m solved with the matching theta_filt. The KL
    rate is j_log(theta1, theta1, m1) - j_log(theta, theta1, m_theta)."""
    gen, filt = as_chain(theta1), as_chain(theta_filt)
    return _j_quadrature(gen, m, grid, _mix_log(filt, grid), None)
