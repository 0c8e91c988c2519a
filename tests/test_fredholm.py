"""Deterministic engine: Q functions, kernel assembly, eigensolve, functionals."""

import concurrent.futures
import dataclasses
import math

import numpy as np
import pytest
from scipy.special import logsumexp, ndtr
from scipy.stats import ncx2

from hmmdiv import (
    GridSpec,
    GridTooCoarseError,
    ModelAParams,
    ModelBParams,
    NonConvergenceError,
    build_kernel,
    divergence_fredholm,
    j_alpha,
    j_log,
    noncentral_chisq1_cdf,
    q_four_state,
    q_two_state,
    solve_invariant,
)
from hmmdiv import fredholm
from hmmdiv.cases import ALPHA_GRID, CASES
from hmmdiv.cli import _fredholm_values
from hmmdiv.fredholm import (
    _exp_sum_roots,
    _log_gauss,
    _mix_log,
    _power_iteration,
    _predictive,
    _q_half_four_state,
    _simpson,
    case_mixtures,
    simulate_q_four_state,
    simulate_q_two_state,
)
from hmmdiv.models import as_chain

CASE1_GEN, CASE1_ALT = CASES[1]
CASE7_GEN, CASE7_ALT = CASES[7]

WIDE_GEN = ModelAParams(p00=0.6, p11=0.55, mu=(0.3, -0.2), psi=(0.0, 0.0),
                        sigma=(3.0, 3.0))
WIDE_FILT = ModelAParams(p00=0.5, p11=0.5, mu=(0.5, -0.5), psi=(0.1, 0.0),
                         sigma=(3.0, 2.5))


def iid_model(mu, sigma):
    return ModelBParams(p01=0.4, p10=0.6, mu=(mu, mu), phi=0.0, psi1=1.0,
                        psi2=0.0, sigma=sigma)


# --- grid ----------------------------------------------------------------------


def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec(N=3)
    with pytest.raises(ValueError):
        GridSpec(a=0.0)
    with pytest.raises(ValueError):
        GridSpec(quad_points=100)  # must be odd
    with pytest.raises(ValueError):
        GridSpec(quad_points=31)


def test_grid_nodes():
    g = GridSpec(N=8, a=4.0)
    assert g.delta == 1.0 / 16.0
    np.testing.assert_allclose(g.v_nodes, -4.0 + np.arange(1, 8), atol=1e-15)
    np.testing.assert_allclose(g.x_nodes, np.arange(1, 8) / 8.0, atol=1e-15)
    np.testing.assert_allclose(
        g.x_half_nodes, (2 * np.arange(1, 9) - 1) / 16.0, atol=1e-15
    )
    assert math.isclose(g.cell_area, 1.0 / 8.0)
    # half nodes bracket each x node at +- delta
    np.testing.assert_allclose(g.x_half_nodes[:-1] + g.delta, g.x_nodes, atol=1e-15)
    np.testing.assert_allclose(g.x_half_nodes[1:] - g.delta, g.x_nodes, atol=1e-15)


# --- noncentral chi-square -------------------------------------------------------


def test_chisq_support_boundary():
    for lam in (0.0, 1.0, 17.3):
        assert noncentral_chisq1_cdf(0.0, lam) == 0.0
        assert noncentral_chisq1_cdf(-3.0, lam) == 0.0


def test_chisq_central_value():
    want = 2.0 * ndtr(1.0) - 1.0
    assert math.isclose(noncentral_chisq1_cdf(1.0, 0.0), want, abs_tol=1e-12)
    assert math.isclose(noncentral_chisq1_cdf(1.0, 0.0), 0.682689, abs_tol=1e-6)


def test_chisq_matched_noncentrality():
    # sqrt(x) = sqrt(lambda) = 2: Phi(0) - Phi(-4)
    want = 0.5 - ndtr(-4.0)
    assert math.isclose(noncentral_chisq1_cdf(4.0, 4.0), want, abs_tol=1e-12)
    assert math.isclose(noncentral_chisq1_cdf(4.0, 4.0), 0.499968, abs_tol=1e-6)


def test_chisq_identity_and_reference():
    rng = np.random.default_rng(42)
    for _ in range(200):
        x = float(rng.uniform(0, 30))
        lam = float(rng.uniform(0, 20))
        got = noncentral_chisq1_cdf(x, lam)
        ident = ndtr(math.sqrt(x) - math.sqrt(lam)) - ndtr(-math.sqrt(x) - math.sqrt(lam))
        assert abs(got - ident) <= 1e-12
        assert abs(got - ncx2.cdf(x, 1, lam)) <= 1e-9


# --- two-state Q -----------------------------------------------------------------


def test_q_two_state_zero_below_support():
    assert q_two_state(0.4, 0.0, 0, WIDE_GEN, WIDE_FILT) == 0.0
    assert q_two_state(0.4, -2.0, 1, WIDE_GEN, WIDE_FILT) == 0.0


def test_q_two_state_negative_threshold():
    # filter sigma0 > sigma1 puts the quadratic's branch upward; tiny z
    # drives the chi-square threshold negative
    tf = ModelAParams(p00=0.5, p11=0.5, mu=(0.0, 0.0), psi=(0.0, 0.0),
                      sigma=(2.0, 1.0))
    assert q_two_state(0.0, 1e-10, 0, WIDE_GEN, tf) == 0.0


def test_q_two_state_cdf_limits():
    tf = ModelAParams(p00=0.5, p11=0.5, mu=(0.0, 0.0), psi=(0.0, 0.0),
                      sigma=(2.0, 1.0))
    assert q_two_state(0.3, 1e300, 1, WIDE_GEN, tf) >= 1.0 - 1e-12


def test_q_two_state_simulation_oracle():
    rng = np.random.default_rng(7)
    for trial in range(4):
        u = float(rng.normal())
        z = float(math.exp(rng.uniform(-1.5, 1.5)))
        j = trial % 2
        got = q_two_state(u, z, j, WIDE_GEN, WIDE_FILT)
        mc = simulate_q_two_state(u, z, j, WIDE_GEN, WIDE_FILT,
                                  np.random.default_rng(trial), 10 ** 6)
        se = math.sqrt(max(got * (1 - got), 1e-12) / 1e6)
        assert abs(got - mc) <= 3 * se + 1e-6


def test_q_two_state_equal_variance_branch():
    # equal filter variances make the log ratio linear in y: a single
    # Gaussian CDF, exercised against simulation
    tf = ModelAParams(p00=0.5, p11=0.5, mu=(1.0, -1.0), psi=(0.2, -0.1),
                      sigma=(1.5, 1.5))
    for seed, (u, z) in enumerate([(0.3, 1.0), (-0.8, 2.5), (1.2, 0.4)]):
        got = q_two_state(u, z, seed % 2, WIDE_GEN, tf)
        mc = simulate_q_two_state(u, z, seed % 2, WIDE_GEN, tf,
                                  np.random.default_rng(100 + seed), 10 ** 6)
        se = math.sqrt(max(got * (1 - got), 1e-12) / 1e6)
        assert abs(got - mc) <= 3 * se + 1e-6


# --- four-state Q -----------------------------------------------------------------


def test_q_four_state_endpoints():
    for (j, k) in ((0, 0), (0, 1), (1, 0), (1, 1)):
        assert q_four_state(0.0, 0.4, 0.6, j, k, CASE1_GEN, CASE1_ALT) == 0.0
        assert q_four_state(1.0, 0.4, 0.6, j, k, CASE1_GEN, CASE1_ALT) == 1.0


def test_q_four_state_rejects_bad_weight():
    with pytest.raises(ValueError):
        q_four_state(0.5, 0.0, 1.2, 0, 0, CASE1_GEN, CASE1_ALT)


def test_q_four_state_monotone_in_x():
    xs = np.linspace(0.05, 0.95, 10)
    vals = [q_four_state(x, 0.5, 0.5, 0, 0, CASE1_GEN, CASE1_ALT) for x in xs]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    assert all(0.0 <= v <= 1.0 for v in vals)


def test_q_four_state_simulation_oracle_benchmark_pair():
    got = q_four_state(0.5, 0.5, 0.5, 0, 0, CASE1_GEN, CASE1_ALT)
    mc = simulate_q_four_state(0.5, 0.5, 0.5, 0, 0, CASE1_GEN, CASE1_ALT,
                               np.random.default_rng(1), 10 ** 6)
    se = math.sqrt(max(got * (1 - got), 1e-12) / 1e6)
    assert abs(got - mc) <= 3 * se + 1e-6


def test_q_four_state_simulation_oracle_two_lag_pair():
    # distinct base means (psi2 != 0) exercise the multi-root sign cascade
    rng = np.random.default_rng(11)
    for trial in range(4):
        x = float(rng.uniform(0.1, 0.9))
        u = float(rng.normal())
        w = float(rng.uniform(0.05, 0.95))
        j, k = int(rng.integers(0, 2)), int(rng.integers(0, 2))
        got = q_four_state(x, u, w, j, k, CASE7_GEN, CASE7_ALT)
        mc = simulate_q_four_state(x, u, w, j, k, CASE7_GEN, CASE7_ALT,
                                   np.random.default_rng(200 + trial), 10 ** 6)
        se = math.sqrt(max(got * (1 - got), 1e-12) / 1e6)
        assert abs(got - mc) <= 3 * se + 1e-6


# The root cascade as first written: a fixed 80-step bisection and sign
# evaluation by numpy reductions over the term axis. The cascade now stops
# once a step changes no bracket and unrolls those reductions; its roots
# must keep every bit.


def _sign_exp_sum_reference(e, logmag, sgn, y):
    expo = logmag + e * y[..., None]
    top = np.max(expo, axis=-1, keepdims=True)
    top = np.where(np.isfinite(top), top, 0.0)
    val = np.sum(sgn * np.exp(expo - top), axis=-1)
    return np.sign(val)


def _exp_sum_roots_reference(e, c, lo, hi):
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
    crit = _exp_sum_roots_reference(e[:, 1:] - e[:, :1],
                                    c[:, 1:] * (e[:, 1:] - e[:, :1]), lo, hi)
    nodes = np.sort(np.concatenate([lo[:, None], crit, hi[:, None]], axis=1), axis=1)
    signs = _sign_exp_sum_reference(e[:, None, :], logmag[:, None, :], sgn[:, None, :], nodes)
    fa = signs[:, :-1]
    bracket = fa * signs[:, 1:] < 0
    hi_pad = np.broadcast_to(hi[:, None], bracket.shape)
    a = np.where(bracket, nodes[:, :-1], hi_pad)
    b = np.where(bracket, nodes[:, 1:], hi_pad)
    for _ in range(80):
        mid = 0.5 * (a + b)
        fm = _sign_exp_sum_reference(e[:, None, :], logmag[:, None, :], sgn[:, None, :], mid)
        left = fm * fa >= 0
        a = np.where(left, mid, a)
        b = np.where(left, b, mid)
    roots = np.where(bracket, 0.5 * (a + b), hi[:, None])
    return np.sort(roots, axis=1)


def assert_same_bits(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("terms", [3, 4])
def test_exp_sum_roots_match_fixed_bisection_random(terms):
    rng = np.random.default_rng(terms)
    B = 4000
    e = np.cumsum(rng.uniform(0.05, 3.0, size=(B, terms)), axis=1) - 2.0
    c = rng.normal(size=(B, terms)) * np.exp(rng.uniform(-10.0, 10.0, size=(B, terms)))
    c[rng.random((B, terms)) < 0.05] = 0.0  # absent terms, as merged components leave
    lo = -rng.uniform(5.0, 40.0, size=B)
    hi = rng.uniform(5.0, 40.0, size=B)
    roots = _exp_sum_roots(e, c, lo, hi)
    assert np.any(roots < hi[:, None])  # some sums do change sign
    assert_same_bits(roots, _exp_sum_roots_reference(e, c, lo, hi))


def test_exp_sum_roots_without_any_sign_change():
    # every coefficient positive: no row has a bracket, the gather is empty
    rng = np.random.default_rng(7)
    for terms in (3, 4):
        e = np.cumsum(rng.uniform(0.1, 2.0, size=(50, terms)), axis=1)
        c = rng.uniform(0.5, 2.0, size=(50, terms))
        lo, hi = np.full(50, -10.0), np.full(50, 10.0)
        roots = _exp_sum_roots(e, c, lo, hi)
        assert np.array_equal(roots, np.repeat(hi[:, None], terms - 1, axis=1))
        assert_same_bits(roots, _exp_sum_roots_reference(e, c, lo, hi))


def test_exp_sum_roots_with_several_brackets_per_row():
    # (x - 1)(x - 2)(x - 3) and 1 - 3x + x^2 in x = exp(y): three and two
    # real roots per row, mixed with rows of none and one
    cubic = np.array([-6.0, 11.0, -6.0, 1.0])
    e = np.tile(np.arange(4.0), (4, 1))
    c = np.array([cubic, [1.0, -3.0, 1.0, 0.0], [1.0, 1.0, 1.0, 1.0],
                  [-1.0, 0.0, 0.0, 2.0]])
    lo, hi = np.full(4, -5.0), np.full(4, 5.0)
    roots = _exp_sum_roots(e, c, lo, hi)
    assert (roots < hi[:, None]).sum(axis=1).tolist() == [3, 2, 0, 1]
    np.testing.assert_allclose(roots[0], np.log([1.0, 2.0, 3.0]), atol=1e-12)
    np.testing.assert_allclose(roots[1, :2], np.log((3.0 + np.array([-1, 1]) * math.sqrt(5.0)) / 2),
                               atol=1e-12)
    assert_same_bits(roots, _exp_sum_roots_reference(e, c, lo, hi))


def test_exp_sum_roots_match_fixed_bisection_case7(monkeypatch):
    # every cascade call of case 7's half-node Q batch, under both filters
    calls = []
    real = fredholm._exp_sum_roots

    def recording(e, c, lo, hi):
        roots = real(e, c, lo, hi)
        calls.append((e, c, lo, hi, roots))
        return roots

    monkeypatch.setattr(fredholm, "_exp_sum_roots", recording)
    for filt in (CASE7_ALT, CASE7_GEN):
        _q_half_four_state(CASE7_GEN, filt, GridSpec())
    assert any(c.shape[1] == 4 for _, c, _, _, _ in calls)
    for e, c, lo, hi, roots in calls:
        assert_same_bits(roots, _exp_sum_roots_reference(e, c, lo, hi))


# --- kernel assembly ---------------------------------------------------------------


def test_kernel_dimension_family_a():
    k = build_kernel(WIDE_GEN, WIDE_FILT, GridSpec(N=4))
    assert k.dim == 2 * 9
    assert k.n_components == 2


def test_kernel_columns_stochastic():
    k = build_kernel(CASE1_GEN, CASE1_ALT, GridSpec(N=8))
    np.testing.assert_allclose(k.entries.sum(axis=0), 1.0, atol=1e-12)
    assert np.all(k.entries >= 0)
    assert np.all(k.pre_norm_col_sums > 0.5) and np.all(k.pre_norm_col_sums < 1.5)


def test_kernel_single_entry_hand_assembled():
    grid = GridSpec(N=8)
    k = build_kernel(WIDE_GEN, WIDE_FILT, grid)
    n1 = grid.N - 1
    j, u_i, x_i = 1, 2, 3
    i, v_i, w_i = 0, 1, 4
    row = j * n1 * n1 + u_i * n1 + x_i
    col = i * n1 * n1 + v_i * n1 + w_i

    v = grid.v_nodes
    wn = grid.x_nodes
    half = grid.x_half_nodes
    p = 1.0 - WIDE_GEN.p00  # state 0 -> state 1 under the generator
    mean = WIDE_GEN.mu[i] + WIDE_GEN.psi[i] * v[v_i]
    g = math.exp(-0.5 * ((v[u_i] - mean) / WIDE_GEN.sigma[i]) ** 2) / (
        WIDE_GEN.sigma[i] * math.sqrt(2 * math.pi)
    )
    pred0 = WIDE_FILT.p00 * wn[w_i] + (1 - WIDE_FILT.p11) * (1 - wn[w_i])
    pred1 = (1 - WIDE_FILT.p00) * wn[w_i] + WIDE_FILT.p11 * (1 - wn[w_i])

    def z_at(xx):
        return (xx / (1 - xx)) * pred1 / pred0

    q_hi = q_two_state(v[u_i], z_at(half[x_i + 1]), j, WIDE_GEN, WIDE_FILT)
    q_lo = q_two_state(v[u_i], z_at(half[x_i]), j, WIDE_GEN, WIDE_FILT)
    rate = max(q_hi - q_lo, 0.0) / (2 * grid.delta)
    want = p * g * rate * grid.cell_area

    got = k.entries[row, col] * k.pre_norm_col_sums[col]
    assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-300)


def test_kernel_family_type_checks():
    # the family follows from the parameter types; a mixed pair has none
    with pytest.raises(TypeError):
        build_kernel(CASE1_GEN, WIDE_FILT, GridSpec(N=8))
    with pytest.raises(TypeError):
        build_kernel(WIDE_GEN, CASE1_ALT, GridSpec(N=8))


def test_kernel_too_coarse_raises():
    with pytest.raises(GridTooCoarseError):
        build_kernel(CASE1_GEN, CASE1_ALT, GridSpec(N=16, a=1.0))


# --- eigensolve -----------------------------------------------------------------


def test_power_iteration_toy():
    m, residual, its = _power_iteration(np.array([[0.5, 0.5], [0.5, 0.5]]),
                                        tol=1e-12, max_iters=100)
    np.testing.assert_allclose(m, [0.5, 0.5], atol=1e-12)
    assert residual <= 1e-12


def test_solve_invariant_properties():
    k = build_kernel(CASE1_GEN, CASE1_ALT, GridSpec(N=8))
    m = solve_invariant(k)
    assert m.eigen_residual <= 1e-12
    assert np.all(m.components >= 0)
    mass = m.components.sum() * m.cell_area
    assert abs(mass - 1.0) <= 1e-10
    assert m.components.shape == (4, 7, 7)
    assert m.iterations >= 1


def test_solve_invariant_iteration_cap():
    k = build_kernel(CASE1_GEN, CASE1_ALT, GridSpec(N=8))
    with pytest.raises(NonConvergenceError):
        solve_invariant(k, tol=1e-15, max_iters=1)


# --- divergence functionals -------------------------------------------------------


def test_j_alpha_identity_is_one():
    grid = GridSpec()
    k = build_kernel(CASE1_GEN, CASE1_GEN, grid)
    m = solve_invariant(k)
    for alpha in (0.5, 2.0):
        j = j_alpha(CASE1_GEN, CASE1_GEN, alpha, m, grid)
        assert abs(j - 1.0) <= 1e-11


def test_j_alpha_rejects_alpha_one():
    grid = GridSpec(N=8)
    k = build_kernel(CASE1_GEN, CASE1_ALT, grid)
    m = solve_invariant(k)
    with pytest.raises(ValueError):
        j_alpha(CASE1_GEN, CASE1_ALT, 1.0, m, grid)


def test_j_log_iid_entropy():
    m = iid_model(0.7, 1.3)
    grid = GridSpec()
    k = build_kernel(m, m, grid)
    dens = solve_invariant(k)
    got = j_log(m, m, dens, grid)
    want = -0.5 * math.log(2 * math.pi * 1.3 ** 2) - 0.5
    assert abs(got - want) <= 1e-8


def test_divergence_identity_exact_zero():
    for alpha in (0.5, 1.0, "kl", 2.0):
        res = divergence_fredholm(CASE1_GEN, CASE1_GEN, alpha)
        assert res.value == 0.0
        assert res.diagnostics.get("identity") is True


def test_divergence_kl_routing():
    a = divergence_fredholm(CASE1_GEN, CASE1_ALT, "kl")
    b = divergence_fredholm(CASE1_GEN, CASE1_ALT, "KL")
    c = divergence_fredholm(CASE1_GEN, CASE1_ALT, 1.0)
    assert a.value == b.value == c.value
    assert a.alpha == 1.0
    assert a.method == "fredholm"


def test_divergence_rejects_orders_outside_the_domain(monkeypatch):
    # rejected before any kernel is built
    monkeypatch.setattr("hmmdiv.cli.build_kernel", None)
    for alpha in (-0.5, 0.0, math.inf, math.nan, "q", None):
        with pytest.raises(ValueError):
            divergence_fredholm(CASE1_GEN, CASE1_ALT, alpha)


def test_divergence_diagnostics_present():
    res = divergence_fredholm(CASE1_GEN, CASE1_ALT, 0.5, GridSpec(N=8))
    d = res.diagnostics
    assert d["eigen_residual"] <= 1e-10
    assert d["max_col_sum_deviation"] < 0.2
    assert d["iterations"] >= 1
    assert d["grid"]["N"] == 8


# Cases 1 and 6 have psi2 = 0, so their emissions depend on the current
# state only and each has an exact family-A mirror (p00 = 1 - p01,
# p11 = 1 - p10, per-state copies of phi and sigma). The chi-square Q path
# and the root-cascade path must then give the same rates.
FAMILY_A_MIRRORS = {
    1: (ModelAParams(0.59, 0.4, (2.0, 1.0), (0.0, 0.0), (1.5, 1.5)),
        ModelAParams(0.59, 0.4, (1.0, 0.0), (0.0, 0.0), (2.0, 2.0))),
    6: (ModelAParams(0.401, 0.6, (2.0, 1.0), (0.3, 0.3), (1.1, 1.1)),
        ModelAParams(0.401, 0.6, (1.0, 0.0), (0.2, 0.2), (1.0, 1.0))),
}


@pytest.mark.parametrize("cid", sorted(FAMILY_A_MIRRORS))
def test_family_a_mirror_matches_family_b(cid):
    grid = GridSpec(N=8, quad_points=101)
    for alpha in ("kl", 0.5, 2.0):
        want = divergence_fredholm(*CASES[cid], alpha, grid).value
        got = divergence_fredholm(*FAMILY_A_MIRRORS[cid], alpha, grid).value
        assert math.isclose(got, want, rel_tol=1e-12), (cid, alpha, got, want)


def test_divergence_reference_values(fredholm_results):
    assert abs(fredholm_results[(1, "kl")] - 0.1773) <= 0.01
    assert abs(fredholm_results[(1, 0.5)] - 0.1091) <= 0.01
    assert abs(fredholm_results[(6, 2.0)] - 1.5699) <= max(0.01, 0.05 * 1.5699)
    assert abs(fredholm_results[(8, "kl")] - 0.5104) <= 0.01


def test_divergence_alpha_continuity(fredholm_results):
    for cid in CASES:
        kl = fredholm_results[(cid, "kl")]
        near = fredholm_results[(cid, 0.999)]
        assert abs(near - kl) <= 0.01 * max(1.0, kl)


# --- shared predictive mixture ----------------------------------------------------


def _mix_log_reference(theta, grid):
    """The predictive mixture as one logsumexp over the state axis of the
    full (w, s, u, y) array."""
    chain = as_chain(theta)
    nodes, _ = _simpson(-grid.a, grid.a, grid.quad_points)
    logf = np.stack(
        [_log_gauss(nodes[None, :], chain.c[s] + chain.b[s] * nodes[:, None], chain.s[s])
         for s in range(chain.d)]
    )
    logpred = np.log(_predictive(chain.transition, grid.x_nodes))
    return logsumexp(logpred[:, :, None, None] + logf[None, :, :, :], axis=1)


@pytest.mark.parametrize("theta", [FAMILY_A_MIRRORS[6][0], CASE1_GEN, CASE1_ALT,
                                   CASE7_GEN, CASE7_ALT],
                         ids=["a-case6", "case1-gen", "case1-alt", "case7-gen", "case7-alt"])
def test_mix_log_read_only_and_equal_to_one_reduction(theta):
    grid = GridSpec()
    got = _mix_log(theta, grid)
    assert not got.flags.writeable
    with pytest.raises(ValueError):
        got[0, 0, 0] = 0.0
    assert_same_bits(got, _mix_log_reference(theta, grid))


def count_builds(monkeypatch):
    """Record the models of every mixture grid actually built."""
    built = []
    real = fredholm._build_mix_log

    def counting(chain, grid):
        built.append(chain)
        return real(chain, grid)

    monkeypatch.setattr(fredholm, "_build_mix_log", counting)
    return built


def test_functionals_equal_inside_and_outside_a_case(monkeypatch):
    grid = GridSpec(quad_points=101)
    m = solve_invariant(build_kernel(CASE7_GEN, CASE7_ALT, grid))
    calls = [lambda: j_alpha(CASE7_GEN, CASE7_ALT, 0.5, m, grid),
             lambda: j_alpha(CASE7_GEN, CASE7_ALT, 2.0, m, grid),
             lambda: j_log(CASE7_ALT, CASE7_GEN, m, grid)]
    built = count_builds(monkeypatch)
    alone = [call() for call in calls]
    assert len(built) == 5  # outside a case every call builds its own grids
    with case_mixtures():
        shared = [call() for call in calls]
        assert len(built) == 7  # the two models' grids, once each
        again = [call() for call in calls]
        assert len(built) == 7
    assert repr(shared) == repr(alone) == repr(again)


def test_case_builds_each_mixture_grid_once(monkeypatch):
    grid = GridSpec(N=8, quad_points=101)
    assert sum(a != "kl" for a in ALPHA_GRID) == 8
    built = count_builds(monkeypatch)
    _fredholm_values(CASE1_GEN, CASE1_ALT, ALPHA_GRID, grid)
    assert len(built) == 2
    # the lattice count is part of the key: N=16 and N=32 get their own grids
    with case_mixtures():
        a = _mix_log(CASE1_ALT, GridSpec(N=16, quad_points=101))
        b = _mix_log(CASE1_ALT, GridSpec(N=32, quad_points=101))
        assert _mix_log(CASE1_ALT, GridSpec(N=16, quad_points=101)) is a
    assert len(built) == 4
    assert a.shape == (15, 101, 101) and b.shape == (31, 101, 101)
    # the grids go with the case: a later call builds anew
    assert _mix_log(CASE1_ALT, GridSpec(N=16, quad_points=101)) is not a
    assert len(built) == 5


def test_concurrent_cases_each_build_their_grids_once(monkeypatch):
    # one store per thread: cases running at once never evict each other's
    grid = GridSpec(N=8, quad_points=101)
    pairs = [CASES[1], CASES[2], CASES[6]]
    built = count_builds(monkeypatch)
    with concurrent.futures.ThreadPoolExecutor(3) as pool:
        got = list(pool.map(lambda p: _fredholm_values(*p, ("kl", 0.5, 2.0), grid)[0],
                            pairs))
    assert len(built) == 6
    assert repr(got) == repr([_fredholm_values(*p, ("kl", 0.5, 2.0), grid)[0]
                              for p in pairs])


def test_array_and_chain_models_reach_the_functionals():
    # models with list or array fields become tuples, so `==` between them is
    # a plain bool; the chain form, which holds arrays, needs no hashing
    as_array = dataclasses.replace(CASE1_GEN, mu=np.array(CASE1_GEN.mu))
    listed = ModelAParams(0.6, 0.7, [0.5, -0.5], np.array([0.2, -0.1]), [1.0, 1.4])
    assert as_array == CASE1_GEN and isinstance(as_array.mu, tuple)
    assert all(isinstance(v, tuple) for v in (listed.mu, listed.psi, listed.sigma))
    grid = GridSpec(N=8, quad_points=101)
    m = solve_invariant(build_kernel(CASE1_GEN, CASE1_ALT, grid))
    want = repr(j_alpha(CASE1_GEN, CASE1_ALT, 0.5, m, grid))
    chains = (as_chain(CASE1_GEN), as_chain(CASE1_ALT))
    assert repr(j_alpha(as_array, CASE1_ALT, 0.5, m, grid)) == want
    assert repr(j_alpha(*chains, 0.5, m, grid)) == want
    with case_mixtures():
        assert repr(j_alpha(*chains, 0.5, m, grid)) == want
        assert repr(j_alpha(as_array, CASE1_ALT, 0.5, m, grid)) == want
    want = divergence_fredholm(CASE1_GEN, CASE1_ALT, 0.5, grid).value
    assert repr(divergence_fredholm(as_array, CASE1_ALT, 0.5, grid).value) == repr(want)
