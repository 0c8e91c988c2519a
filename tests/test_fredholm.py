"""Deterministic engine: Q functions, kernel assembly, eigensolve, functionals."""

import math

import numpy as np
import pytest
from scipy.special import ndtr
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
from hmmdiv.cases import CASES
from hmmdiv.fredholm import _power_iteration

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


def _mc_q_two_state(u, z, j, tg, tf, size=10 ** 6, seed=0):
    rng = np.random.default_rng(seed)
    y = tg.mu[j] + tg.psi[j] * u + tg.sigma[j] * rng.standard_normal(size)
    num = np.exp(-0.5 * ((y - tf.mu[0] - tf.psi[0] * u) / tf.sigma[0]) ** 2) / tf.sigma[0]
    den = np.exp(-0.5 * ((y - tf.mu[1] - tf.psi[1] * u) / tf.sigma[1]) ** 2) / tf.sigma[1]
    return float(np.mean(num / den <= z))


def test_q_two_state_simulation_oracle():
    rng = np.random.default_rng(7)
    for trial in range(4):
        u = float(rng.normal())
        z = float(math.exp(rng.uniform(-1.5, 1.5)))
        j = trial % 2
        got = q_two_state(u, z, j, WIDE_GEN, WIDE_FILT)
        mc = _mc_q_two_state(u, z, j, WIDE_GEN, WIDE_FILT, seed=trial)
        se = math.sqrt(max(got * (1 - got), 1e-12) / 1e6)
        assert abs(got - mc) <= 3 * se + 1e-6


def test_q_two_state_equal_variance_branch():
    # equal filter variances make the log ratio linear in y: a single
    # Gaussian CDF, exercised against simulation
    tf = ModelAParams(p00=0.5, p11=0.5, mu=(1.0, -1.0), psi=(0.2, -0.1),
                      sigma=(1.5, 1.5))
    for seed, (u, z) in enumerate([(0.3, 1.0), (-0.8, 2.5), (1.2, 0.4)]):
        got = q_two_state(u, z, seed % 2, WIDE_GEN, tf)
        mc = _mc_q_two_state(u, z, seed % 2, WIDE_GEN, tf, seed=100 + seed)
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


def _mc_q_four_state(x, u, w, j, k, tg, tf, size=10 ** 6, seed=0):
    rng = np.random.default_rng(seed)
    mu = np.asarray(tg.mu)
    y = (tg.psi2 * mu[j] + tg.psi1 * mu[k] + tg.phi * u
         + tg.sigma * rng.standard_normal(size))
    pf = np.array([[1 - tf.p01, tf.p01], [tf.p10, 1 - tf.p10]])
    muf = np.asarray(tf.mu)
    f = [
        np.exp(-0.5 * ((y - tf.psi2 * muf[i] - tf.psi1 * muf[jj] - tf.phi * u) / tf.sigma) ** 2)
        for i in (0, 1)
        for jj in (0, 1)
    ]
    g = ((1 - x) * pf[0, 0] * w * f[0] - x * pf[0, 1] * w * f[1]
         + (1 - x) * pf[1, 0] * (1 - w) * f[2] - x * pf[1, 1] * (1 - w) * f[3])
    return float(np.mean(g <= 0))


def test_q_four_state_simulation_oracle_benchmark_pair():
    got = q_four_state(0.5, 0.5, 0.5, 0, 0, CASE1_GEN, CASE1_ALT)
    mc = _mc_q_four_state(0.5, 0.5, 0.5, 0, 0, CASE1_GEN, CASE1_ALT, seed=1)
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
        mc = _mc_q_four_state(x, u, w, j, k, CASE7_GEN, CASE7_ALT, seed=200 + trial)
        se = math.sqrt(max(got * (1 - got), 1e-12) / 1e6)
        assert abs(got - mc) <= 3 * se + 1e-6


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
