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

The engine sees only chain forms (`models.as_chain`): chains whose state s
emits N(c_s + b_s * y_prev, s_s^2), family B lifted to the four pair states
(X_{t-1}, X_t), with zero transitions where a pair (i, j) cannot move. Q and
the kernel take any two that one filter weight can track (`_filter_chain`),
of one family, of two, or chains as such. One assembler, one predictive
mixture and one quadrature serve them all, and Q (`q`) picks its evaluator
by the filter's variances: a noncentral chi-square CDF for two that differ;
for one, the exact mass where a signed Gaussian mixture is nonpositive,
from its sign changes (an exponential-sum root cascade).

Q, the emission densities and the quadrature's inner integrals depend on
a state only through its emission (c_s, b_s, s_s), so states whose
emissions have equal numbers (the pair lift with psi2 = 0 has two distinct
emissions among four states) share one evaluation, bit for bit; a
kernel's Q table is one batch over its distinct emissions, with one root
cascade (`_bracketed_roots`). The J quadratures make one pass over the
filter weights (`_quadrature_pass`): each weight's predictive-mixture rows
and log ratio row are formed once and reduced at once to (weight, u)
tables, so no (weight, u, y) grid is ever held. When no chain of a pass
has a slope (all b = 0, as in a classical HMM), no emission reads u and
the pass forms its grids and rows on one u row, copying each integrand
down the u axis only for its final product, bit for bit. The pass ends
with each functional's (v, w) tables, one per (source, target) emission
pair. Within a case (`case_functionals`) one pass serves every functional
the case declares, each call only contracts its tables against its
invariant density, and a call the case did not declare raises.

Throughout, theta1 denotes the data-generating model and theta the
alternative; filter weights track P(X_t = 0 | data). `hmmdiv.cli` combines
these pieces into divergence rates (`divergence_fredholm`).
"""

from __future__ import annotations

import contextlib
import math
import numbers
import threading
from dataclasses import dataclass, field

import numpy as np

from .models import (
    LinearGaussianChain,
    _logsumexp,
    as_chain,
    renyi_order,
    require_counts,
)

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
# `solve_invariant`'s residual goal and its power-iteration cap.
EIGEN_TOL = 1e-12
EIGEN_MAX_ITERS = 100000


class GridTooCoarseError(ValueError):
    """Discretization failed a sanity gate: a pre-normalization kernel
    column sum fell outside [0.5, 1.5] (increase N or a), the lattice
    keeps too few sds of an order's integrand tail (increase a), or the
    engine gave a divergence below zero, or one whose quadrature
    overflowed at an order whose rate is finite, which a finer lattice
    need not cure."""


class NonConvergenceError(RuntimeError):
    """Power iteration hit its iteration cap before reaching tolerance."""


@dataclass(frozen=True)
class GridSpec:
    """Discretization parameters.

    N is the lattice count per axis: interior observation nodes
    v_i = -a + 2ai/N and filter nodes x_i = w_i = i/N, i = 1..N-1, with the
    boundary values of the density clamped to zero. quad_points is the
    per-axis resolution of the Simpson rules used for the divergence
    quadratures. dQ/dx is the central difference of Q over one step 1/N
    between the half nodes (2i -+ 1)/(2N).
    """

    N: int = 16
    a: float = 15.0
    quad_points: int = 201

    def __post_init__(self):
        require_counts(N=self.N, quad_points=self.quad_points)
        if self.N < 4:
            raise ValueError(f"N must be at least 4, got {self.N}")
        if not 0.0 < self.a < math.inf:
            raise ValueError(f"a must be positive and finite, got {self.a}")
        if self.quad_points < 51 or self.quad_points % 2 == 0:
            raise ValueError(
                f"quad_points must be odd and at least 51, got {self.quad_points}"
            )

    @property
    def v_nodes(self) -> np.ndarray:
        i = np.arange(1, self.N)
        return -self.a + 2.0 * self.a * i / self.N

    @property
    def x_nodes(self) -> np.ndarray:
        return np.arange(1, self.N) / self.N

    @property
    def x_half_nodes(self) -> np.ndarray:
        # the points x_i +- 1/(2N), i = 1..N-1, collapse to (2m-1)/(2N), m = 1..N
        return (2.0 * np.arange(1, self.N + 1) - 1.0) / (2.0 * self.N)

    @property
    def cell_area(self) -> float:
        return (2.0 * self.a / self.N) * (1.0 / self.N)


@dataclass(frozen=True)
class KernelMatrix:
    """Discretized Fredholm kernel, column-normalized to stochastic form."""

    entries: np.ndarray
    pre_norm_col_sums: np.ndarray
    grid: GridSpec


@dataclass(frozen=True)
class InvariantDensityGrid:
    """Perron eigenvector reshaped to per-component lattices, scaled so the
    total mass (sum of values times grid.cell_area) is 1."""

    components: np.ndarray
    eigen_residual: float
    iterations: int
    grid: GridSpec


@dataclass(frozen=True)
class DivergenceResult:
    alpha: float
    value: float
    diagnostics: dict = field(default_factory=dict)


def _ndtr(x):
    """scipy.special.ndtr, imported at first use: a process that runs no
    Fredholm kernel loads no scipy."""
    from scipy.special import ndtr
    return ndtr(x)


def noncentral_chisq1_cdf(x, lam):
    """CDF of the noncentral chi-square with 1 degree of freedom.

    P(chi2_1(lam) <= x) = P(|Z + sqrt(lam)| <= sqrt(x))
                        = Phi(sqrt(x) - sqrt(lam)) - Phi(-sqrt(x) - sqrt(lam)),
    an exact identity for one degree of freedom; 0 for x <= 0, ValueError for a NaN
    or x = lam = inf (inf - inf).
    """
    x = np.asarray(x, dtype=float)
    lam = np.asarray(lam, dtype=float)
    for name, arg in (("x", x), ("lam", lam)):
        if np.isnan(arg).any():
            raise ValueError(f"{name} must not be NaN")
    if np.any(lam < 0):
        raise ValueError("noncentrality must be nonnegative")
    if np.any(np.isposinf(x) & np.isposinf(lam)):
        raise ValueError("x and lam must not both be inf")
    rx = np.sqrt(np.maximum(x, 0.0))
    rl = np.sqrt(lam)
    out = np.where(x > 0.0, _ndtr(rx - rl) - _ndtr(-rx - rl), 0.0)
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
# Two states of two variances admit a closed form: h <= 0 says the density
# ratio f_0/f_1 is at most z = (x / (1 - x)) pred_1 / pred_0, a noncentral
# chi-square event. A filter of one variance (the pair lift of family B, or
# family A with equal variances) has sign(h(y)) = sign(sum_r c_r exp(e_r y)):
# an exponential sum with at most 4 terms and hence at most 3 real roots.
# Roots of an exponential sum are separated by roots of its derivative,
# which is again an exponential sum with one term fewer, so a short cascade
# (closed form at 2 terms, bisection between critical points above) finds
# every root. Q is then the generating-density mass of the intervals where
# the sign is <= 0. This is exact up to CDF rounding, which the simulation
# oracles require; an indicator quadrature at realistic node counts is not.


def _sign_exp_sum(e, logmag, sgn, y):
    """Sign of sum_r sgn_r exp(logmag_r + e_r y) at y[..., None]-compatible
    shapes; stable via max-exponent factoring. The last axis has at most
    four terms, so its max and its left-to-right sum are unrolled: numpy's
    reductions over so short an axis cost more than the arithmetic. The
    terms are formed in one array, in place."""
    terms = e * y[..., None]
    terms += logmag
    top = terms[..., 0]
    for r in range(1, terms.shape[-1]):
        top = np.maximum(top, terms[..., r])
    top = np.where(np.isfinite(top), top, 0.0)
    terms -= top[..., None]
    np.exp(terms, out=terms)
    terms *= sgn
    val = terms[..., 0]
    for r in range(1, terms.shape[-1]):
        val = val + terms[..., r]
    return np.sign(val)


def _signs_at(e, logmag, sgn, nodes):
    """`_sign_exp_sum` at every node along the last axis of nodes, one
    node column at a time, so that no array holds every term at every
    node."""
    return np.stack([_sign_exp_sum(e, logmag, sgn, nodes[..., k])
                     for k in range(nodes.shape[-1])], axis=-1)


def _exp_sum_roots(e, c, lo, hi):
    """Roots of sum_r c_r exp(e_r y) inside [lo, hi], vectorized.

    e: (B, T) strictly increasing along the last axis; c: (B, T); lo, hi:
    (B,). Returns (B, T-1) roots sorted ascending, padded with hi. Roots
    outside [lo, hi] are dropped (their generating-density mass is
    negligible by the callers' choice of bounds). Each row's roots depend
    on that row alone, bit for bit, so batches may be stacked.
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
    signs = _signs_at(e, logmag, sgn, nodes)

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


def _q_batch(x, u, w, states, gen: LinearGaussianChain, filt: LinearGaussianChain):
    """Q(x; t, u, w) for each state t in the list `states` and flat arrays
    x, u, w of one length B, x in (0, 1) and w in [0, 1], shape
    (len(states), B): Y drawn from state t of gen given Y_prev = u, the
    filter run under filt from weight w. The chi-square closed form when the filter's two
    variances differ, the root cascade for one variance."""
    mg = gen.c[states][:, None] + gen.b[states][:, None] * u  # (state, B)
    sg = gen.s[states][:, None]
    s0, s1 = filt.s[0], filt.s[-1]  # differ only for two states (`_filter_chain`)
    zeta = 1.0 / (2.0 * s1 * s1) - 1.0 / (2.0 * s0 * s0)
    if abs(zeta) > 1e-12:
        pred = _predictive(filt.transition, w)
        z = (x / (1.0 - x)) * (pred[:, 1] / pred[:, 0])
        # log(f0/f1) is the quadratic zeta*y^2 + 2*eta*y + nu + log(s1/s0)
        m0 = filt.c[0] + filt.b[0] * u
        m1 = filt.c[1] + filt.b[1] * u
        eta = m0 / (2.0 * s0 * s0) - m1 / (2.0 * s1 * s1)
        nu = -(m0 * m0) / (2.0 * s0 * s0) + (m1 * m1) / (2.0 * s1 * s1)
        thr = np.log(z * s0 / s1) / zeta + (eta / zeta) ** 2 - nu / zeta
        lam = ((mg + eta / zeta) / sg) ** 2
        cdf = noncentral_chisq1_cdf(thr / (sg * sg), lam)
        return cdf if zeta > 0 else 1.0 - cdf

    # one variance s0 from here on; components with equal (c, b) merge, and
    # the grouping is structural, so it is shared by the whole batch. The
    # exponential sum depends on the filter alone, so it is formed once per
    # point for every state; only the bracket [lo, hi] is the state's.
    uniq, inverse = np.unique(np.stack([filt.c, filt.b], axis=1), axis=0, return_inverse=True)
    means = uniq[:, 0] + uniq[:, 1] * u[:, None]
    coef = np.zeros(means.shape)
    sign = (1.0 - x, -x)  # chain state s ends in primitive state s % 2
    for s in range(filt.d):
        coef[:, inverse[s]] += (sign[s % 2] * filt.transition[0, s] * w
                                + sign[s % 2] * filt.transition[1, s] * (1.0 - w))
    coef = coef * np.exp(-(means ** 2) / (2.0 * s0 * s0))
    expo = means / (s0 * s0)

    span = 12.0 * np.maximum(s0, sg)
    lo = np.minimum(means.min(axis=1), mg) - span  # (state, B)
    hi = np.maximum(means.max(axis=1), mg) + span
    roots = _bracketed_roots(expo, coef, lo, hi)
    nodes = np.concatenate([lo[..., None], roots, hi[..., None]], axis=-1)
    with np.errstate(divide="ignore"):
        logmag = np.where(coef != 0.0, np.log(np.abs(coef)), -np.inf)
    sgn = np.sign(coef)
    mids = 0.5 * (nodes[..., :-1] + nodes[..., 1:])
    sign_mid = _signs_at(expo, logmag, sgn, mids)
    sign_lo = _sign_exp_sum(expo, logmag, sgn, lo)
    sign_hi = _sign_exp_sum(expo, logmag, sgn, hi)

    cdf = _ndtr((nodes - mg[..., None]) / sg[..., None])
    mass = np.sum((cdf[..., 1:] - cdf[..., :-1]) * (sign_mid <= 0), axis=-1)
    mass += cdf[..., 0] * (sign_lo <= 0)
    mass += (1.0 - cdf[..., -1]) * (sign_hi <= 0)
    return np.clip(mass, 0.0, 1.0)


def _bracketed_roots(e, c, lo, hi):
    """`_exp_sum_roots` of the B rows of (e, c) in each of S brackets, lo
    and hi of shape (S, B), in one cascade: shape (S, B, T-1). The roots
    depend on the bracket, so each (bracket, row) is solved as such, rows
    stacked, and a bracket equal to an earlier one at the same row reuses
    its roots."""
    same = (lo[:, None] == lo[None]) & (hi[:, None] == hi[None])  # (S, S', B)
    first = np.argmax(same, axis=1)  # the first bracket equal to each
    own = first == np.arange(len(lo))[:, None]
    s, b = np.nonzero(own)
    roots = np.empty(lo.shape + (e.shape[1] - 1,))
    roots[s, b] = _exp_sum_roots(e[b], c[b], lo[s, b], hi[s, b])
    return roots[first, np.arange(lo.shape[1])]


def _filter_chain(theta) -> LinearGaussianChain:
    """theta's chain form, if one filter weight (the mass of the even
    states) tracks it: each row T[s] depends on s % 2 alone, as in both
    families' forms, and beyond two states Q's cascade needs one variance."""
    chain = as_chain(theta)
    if chain.d < 2 or np.any(chain.transition != chain.transition[np.arange(chain.d) % 2]):
        raise ValueError("one filter weight tracks a chain only when its rows depend on s % 2")
    if chain.d > 2 and np.any(chain.s != chain.s[0]):
        raise ValueError("Q's root cascade needs one variance beyond two states")
    return chain


def q(x: float, u: float, w: float, t: int, theta_gen, theta_filt) -> float:
    """P(W_t <= x | state t, Y_{t-1} = u, previous weight w): Y_t drawn
    from state t of theta_gen's chain form, the filter run under
    theta_filt's. For family B, t = 2j + k is the pair state (j, k). x <= 0
    gives 0 and x >= 1 gives 1, since the weight lies in [0, 1]; x or u
    not finite, and a t that is not an integer state, raise ValueError."""
    if not 0.0 <= w <= 1.0:
        raise ValueError(f"w must lie in [0, 1], got {w}")
    if not (math.isfinite(x) and math.isfinite(u)):
        raise ValueError(f"x and u must be finite, got x={x}, u={u}")
    gen, filt = _filter_chain(theta_gen), _filter_chain(theta_filt)
    if isinstance(t, bool) or not isinstance(t, numbers.Integral) or t not in range(gen.d):
        raise ValueError(f"t must be a state in 0..{gen.d - 1}, got {t!r}")
    if not 0.0 < x < 1.0:
        return float(x >= 1.0)
    return float(_q_batch(np.array([x]), np.array([u]), np.array([w]), [t], gen, filt)[0, 0])


# ---------------------------------------------------------------------------
# kernel assembly


def _norm_pdf(y, mean, sd):
    z = (y - mean) / sd
    return np.exp(-0.5 * z * z) / (sd * math.sqrt(2.0 * math.pi))


def _predictive(transition: np.ndarray, w_nodes) -> np.ndarray:
    """Filter's predictive state probabilities w * T[0] + (1 - w) * T[1],
    shape (w, state), w the mass of the even states (`_filter_chain`)."""
    return w_nodes[:, None] * transition[0] + (1.0 - w_nodes)[:, None] * transition[1]


def _q_half(gen: LinearGaussianChain, filt: LinearGaussianChain, grid: GridSpec) -> np.ndarray:
    """Q at the half nodes, shape (state, u, half, w), tabulated once per
    distinct generating emission, all of them in one `_q_batch`."""
    ug, xg, wg = np.meshgrid(grid.v_nodes, grid.x_half_nodes, grid.x_nodes, indexing="ij")
    reps = gen.emission_reps()
    firsts = sorted(set(reps))
    tables = _q_batch(xg.ravel(), ug.ravel(), wg.ravel(), firsts, gen, filt)
    return tables[[firsts.index(e) for e in reps]].reshape((gen.d,) + ug.shape)


def _assemble(gen: LinearGaussianChain, q_half: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Kernel entry (target t, u, x; source s, v, w) =
    T1[s, t] * f_s(u | v) * dQ_t/dx(x; u, w) * cell area, one product of
    the transition, the carry density of the observation from v to u and
    the rate dQ/dx, the central difference of Q between neighbouring half
    nodes. Blocks with T1[s, t] = 0 come out exactly 0."""
    d, n1 = gen.d, grid.N - 1
    v = grid.v_nodes
    dq = np.diff(q_half, axis=2)
    np.clip(dq, 0.0, None, out=dq)
    rate = dq / (1.0 / grid.N)  # (t, u, x, w); dq * N rounds differently
    carry = np.stack([_norm_pdf(v[:, None], gen.c[s] + gen.b[s] * v[None, :], gen.s[s])
                      for s in range(d)])  # (s, u, v)
    k6 = (gen.transition.T[:, None, None, :, None, None]  # (t, u, x, s, v, w)
          * carry.transpose(1, 0, 2)[None, :, None, :, :, None]
          * rate[:, :, :, None, None, :])
    k6 *= grid.cell_area
    return k6.reshape(d * n1 * n1, d * n1 * n1)


def build_kernel(theta_gen, theta_filt, grid: GridSpec) -> KernelMatrix:
    """Assemble the discretized kernel and column-normalize it.

    Each entry couples a target lattice point (component, u, x) to a source
    point (component, v, w) as transition probability x generating density
    x central-difference dQ/dx x cell area. Exact column sums would be 1 for
    the untruncated operator; the truncation to [-a, a] and the finite
    difference leave sums near 1, which normalization makes exact. Sums far
    from 1, or not finite, mean the lattice cannot resolve the densities.
    """
    gen, filt = _filter_chain(theta_gen), _filter_chain(theta_filt)
    entries = _assemble(gen, _q_half(gen, filt, grid), grid)

    col_sums = entries.sum(axis=0)
    if not np.all((col_sums >= 0.5) & (col_sums <= 1.5)):
        worst = float(col_sums[np.argmax(np.abs(col_sums - 1.0))])
        raise GridTooCoarseError(
            f"pre-normalization column sum {worst:.4f} outside [0.5, 1.5]; "
            f"the lattice (N={grid.N}, a={grid.a}) is too coarse for these models"
        )
    entries /= col_sums  # in place: one dense array per kernel
    return KernelMatrix(entries=entries, pre_norm_col_sums=col_sums, grid=grid)


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


def solve_invariant(kernel: KernelMatrix) -> InvariantDensityGrid:
    """Perron eigenvector of the column-stochastic kernel by power iteration.

    Starts from the uniform positive vector; K nonnegative keeps every
    iterate nonnegative. Stops when ||K m - m||_1 <= EIGEN_TOL on the
    ||m||_1 = 1 normalization, then rescales so the lattice mass
    (values times cell_area) is 1.
    """
    m, residual, it = _power_iteration(kernel.entries, EIGEN_TOL, EIGEN_MAX_ITERS)
    n1 = kernel.grid.N - 1
    comps = (m / kernel.grid.cell_area).reshape(-1, n1, n1)
    return InvariantDensityGrid(
        components=comps,
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


def _emission_grid(chain: LinearGaussianChain, grid: GridSpec, rows: int | None = None):
    """The Simpson nodes and weights on [-a, a], and log f_s(y | u) with y
    on those nodes and u on the first `rows` of them (all when None),
    shape (s, u, y)."""
    nodes, wts = _simpson(-grid.a, grid.a, grid.quad_points)
    logf = np.stack([_log_gauss(nodes[None, :], chain.c[s] + chain.b[s] * nodes[:rows, None], chain.s[s])
                     for s in range(chain.d)])
    return nodes, wts, logf


def _mix_log(chain: LinearGaussianChain, grid: GridSpec, logf: np.ndarray | None = None,
             rows: int | None = None):
    """Yield the log of the one-step predictive density
    sum_s pred_s(w) * f_s(y | u) on the (u, y) quadrature nodes, u on the
    first `rows` (`_emission_grid`), one filter weight w at a time: each
    row the bits of one logsumexp over the state axis of the (s, u, y)
    terms, read-only since every functional of a pass (`_quadrature_pass`)
    reads it. `logf` is the chain's log emission grid when the caller has
    it."""
    if logf is None:
        _, _, logf = _emission_grid(chain, grid, rows)
    terms = np.empty(logf.shape)  # one weight's terms, then their exponentials
    for lp in np.log(_predictive(chain.transition, grid.x_nodes)):
        row = _logsumexp(np.add(lp[:, None, None], logf, out=terms), axis=0, scratch=terms)
        row.flags.writeable = False
        yield row


def _quadrature_pass(gen: LinearGaussianChain, grid: GridSpec, functionals) -> list:
    """One pass over the filter weights for J functionals of data from
    gen: (filt, alpha) is J^alpha under the filter chain filt, (filt, None)
    J_log. Returns, for each functional in turn, its tables: (T1[s, t], s,
    g) for each (source s, target t) state pair that a transition joins,
    target-outer, source-inner, g the functional's (v, w) table of its
    (source, target) emission pair, one array shared by the state pairs of
    that emission pair.

    Source s carries the observation from v to u, target t draws y given
    u. By distinct target emission e the pass forms the (w, u) table of
    the y-integral of the integrand times f_e(y | u): exp((alpha - 1) * r),
    r the log ratio of gen's and filt's predictive mixtures, or filt's log
    mixture. Each weight's mixture row of every chain and its log ratio row
    of every filter are formed once and serve every functional; the
    integrand row is filled in place, and nothing of shape (w, u, y) is
    held. g is the u-integral of f_s(u | v) times the target's table,
    self-normalized by g0, the same integral of the integrand 1, so that
    a constant integrand integrates to exactly itself regardless of grid
    truncation.

    When no chain of the pass has a slope (every b is 0), no emission
    reads u, so every (u, y) grid is one u row repeated: the grids, the
    mixture rows and the integrands are formed on that one row, and each
    integrand is copied down the full (u, y) buffer before its product
    with the weights: that product gives the full grid's bits, and a
    product of the one row does not."""
    chains = list(dict.fromkeys(c for filt, alpha in functionals
                                for c in ((filt,) if alpha is None else (gen, filt))))
    r = grid.quad_points if any(np.any(c.b) for c in [gen, *chains]) else 1
    nodes, wts, log_gen = _emission_grid(gen, grid, r)
    reps = gen.emission_reps()
    firsts = sorted(set(reps))
    dens = {e: np.exp(log_gen[e]) for e in firsts}
    v = grid.v_nodes
    f_emis = {e: np.exp(_log_gauss(nodes[None, :], gen.c[e] + gen.b[e] * v[:, None], gen.s[e]))
              for e in firsts}  # (v, u)
    inner0 = {e: np.resize(dens[e], (len(nodes),) * 2) @ wts for e in firsts}  # (u,)
    pairs = [(s, t) for t in range(gen.d) for s in range(gen.d) if gen.transition[s, t] > 0.0]
    g0 = {(reps[s], reps[t]): f_emis[reps[s]] @ (wts * inner0[reps[t]]) for s, t in pairs}
    inner = {f: {e: np.empty((grid.N - 1, grid.quad_points)) for e in firsts}
             for f in functionals}
    plan = [(alpha, chains.index(filt), inner[filt, alpha]) for filt, alpha in functionals]
    buf = np.empty((grid.quad_points,) * 2)  # one integrand, formed in its first r rows
    head = buf[:r]
    rows = (_mix_log(c, grid, log_gen if c == gen else None, r) for c in chains)
    for w, mix in enumerate(zip(*rows)):
        ratios = {}
        for alpha, k, by_e in plan:
            if alpha is not None and k not in ratios:
                ratios[k] = mix[chains.index(gen)] - mix[k]
            for e in firsts:
                if alpha is None:
                    np.multiply(mix[k], dens[e], out=head)
                else:
                    np.multiply(alpha - 1.0, ratios[k], out=head)
                    np.exp(np.add(head, log_gen[e], out=head), out=head)
                buf[r:] = buf[0]
                by_e[e][w] = buf @ wts

    def normed(by_e):
        g = {(es, et): np.einsum("u,vu,wu->vw", wts, f_emis[es], by_e[et]) / g0[es, et][:, None]
             for es, et in g0}
        return tuple((gen.transition[s, t], s, g[reps[s], reps[t]]) for s, t in pairs)

    return [normed(inner[f]) for f in functionals]


_case = threading.local()


@contextlib.contextmanager
def case_functionals(theta1, theta, orders, grid: GridSpec):
    """Declare one case's J functionals on this thread: data from theta1,
    J^alpha under the filter theta for each order alpha != 1 in orders
    and, if 1 (KL) is among them, J_log under both filters. The block
    yields them, each once, as the case's plan: (filter model, order)
    pairs, order None for J_log, KL's two first; each filter model in the
    plan needs an invariant density of its own.

    Inside the block the thread's record is (theta1, grid, {functional:
    tables or None}). The first `j_log` or `j_alpha` call runs one
    `_quadrature_pass` for all of them, each distinct model put in chain
    form once, and keeps their tables, (N - 1)^2 floats per (source,
    target) emission pair; every call only contracts its tables against
    its invariant density. A call for other models (equal ones are the
    same), another grid or an undeclared order raises ValueError. The
    record is per thread, for callers that run cases on threads of their
    own; on exit the block restores the record it found.
    """
    wanted = [(theta1, None), (theta, None)] if 1.0 in orders else []
    wanted += [(theta, order) for order in orders if order != 1.0]
    outer = getattr(_case, "record", None)
    tables = dict.fromkeys(wanted)
    _case.record = (theta1, grid, tables)
    try:
        yield tuple(tables)
    finally:
        _case.record = outer


def _functional(theta1, theta_filt, alpha: float | None, m: InvariantDensityGrid,
                grid: GridSpec) -> float:
    """J^alpha (alpha set) or J_log (alpha None) under the filter
    theta_filt of data from theta1, against m: the contraction of its
    tables from this thread's case record (`case_functionals`), outside a
    block from a record of this functional alone. m must be solved on
    grid, the lattice of the tables; ValueError otherwise."""
    key = (theta_filt, alpha)
    case_theta1, case_grid, tables = (getattr(_case, "record", None)
                                      or (theta1, grid, {key: None}))
    if case_theta1 != theta1 or case_grid != grid or key not in tables:
        raise ValueError("this thread's case_functionals block declared no such functional "
                         "(models, grid and order)")
    if m.grid != grid:  # the tables would contract against another lattice's nodes
        raise ValueError(f"the invariant density was solved on {m.grid}, "
                         f"not on the functional's {grid}")
    if tables[key] is None:
        chains = {model: _filter_chain(model)
                  for model in dict.fromkeys([theta1, *(f for f, _ in tables)])}
        functionals = [(chains[f], a) for f, a in tables]
        tables.update(zip(tables, _quadrature_pass(chains[theta1], grid, functionals)))
    return _j_quadrature(tables[key], m)


def _j_quadrature(tables: tuple, m: InvariantDensityGrid) -> float:
    """The contraction of a functional's tables (`_quadrature_pass`)
    against m: the sum of T1[s, t] * <m_s, g> * cell area, in the tables'
    order."""
    total = 0.0
    for p, s, g in tables:
        total += p * float(np.sum(m.components[s] * g)) * m.grid.cell_area
    return float(total)


def j_alpha(theta1, theta, alpha: float, m: InvariantDensityGrid,
            grid: GridSpec) -> float:
    """J^alpha: expected (alpha-1) power of the one-step predictive-density
    ratio, against the invariant density m (solved with filter theta).
    The divergence is log(J^alpha)/(alpha-1), the one-step functional
    log E_pi[(p_theta1 / p_theta)^(alpha-1)] / (alpha - 1); that is the
    path-level rate lim (1/n) D_alpha(P^n_theta1 || P^n_theta) only for
    i.i.d. pairs and at KL (`hmmdiv.montecarlo`)."""
    alpha = renyi_order(alpha)
    if alpha == 1.0:
        raise ValueError("alpha = 1 has no power functional; use j_log")
    return _functional(theta1, theta, alpha, m, grid)


def j_log(theta_filt, theta1, m: InvariantDensityGrid, grid: GridSpec) -> float:
    """J_log: expected log predictive density under theta_filt, with data
    generated by theta1 and m solved with the matching theta_filt. The KL
    rate is j_log(theta1, theta1, m1) - j_log(theta, theta1, m_theta)."""
    return _functional(theta1, theta_filt, None, m, grid)
