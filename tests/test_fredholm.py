"""Deterministic engine: Q functions, kernel assembly, eigensolve, functionals."""

import collections
import concurrent.futures
import contextlib
import dataclasses
import math
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
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
    q,
    solve_invariant,
)
from hmmdiv import fredholm
from hmmdiv.cases import ALPHA_GRID, CASES
from hmmdiv.cli import _fredholm_values, _orders
from hmmdiv.fredholm import (
    _exp_sum_roots,
    _j_quadrature,
    _log_gauss,
    _mix_log,
    _power_iteration,
    _predictive,
    _q_half,
    _simpson,
    case_functionals,
)
from hmmdiv.models import LinearGaussianChain, as_chain

from oracles import FAMILY_A_PAIR, simulate_q

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
    for bad in (dict(a=math.inf), dict(a=math.nan), dict(quad_points=201.0), dict(N=16.0),
                dict(N=True)):
        with pytest.raises(ValueError):
            GridSpec(**bad)


def test_grid_nodes():
    g = GridSpec(N=8, a=4.0)
    np.testing.assert_allclose(g.v_nodes, -4.0 + np.arange(1, 8), atol=1e-15)
    np.testing.assert_allclose(g.x_nodes, np.arange(1, 8) / 8.0, atol=1e-15)
    np.testing.assert_allclose(
        g.x_half_nodes, (2 * np.arange(1, 9) - 1) / 16.0, atol=1e-15
    )
    assert math.isclose(g.cell_area, 1.0 / 8.0)
    # half nodes bracket each x node at +- 1/(2N)
    np.testing.assert_allclose(g.x_half_nodes[:-1] + 1.0 / 16.0, g.x_nodes, atol=1e-15)
    np.testing.assert_allclose(g.x_half_nodes[1:] - 1.0 / 16.0, g.x_nodes, atol=1e-15)


# --- noncentral chi-square -------------------------------------------------------


def test_chisq_support_boundary():
    for lam in (0.0, 1.0, 17.3):
        assert noncentral_chisq1_cdf(0.0, lam) == 0.0
        assert noncentral_chisq1_cdf(-3.0, lam) == 0.0


def test_chisq_central_value():
    want = 2.0 * ndtr(1.0) - 1.0
    assert math.isclose(noncentral_chisq1_cdf(1.0, 0.0), want, abs_tol=1e-12)
    assert math.isclose(noncentral_chisq1_cdf(1.0, 0.0), 0.682689, abs_tol=1e-6)


def test_chisq_rejects_negative_noncentrality():
    for lam in (-1e-12, [0.5, -2.0]):
        with pytest.raises(ValueError, match="noncentrality must be nonnegative"):
            noncentral_chisq1_cdf(1.0, lam)


@pytest.mark.filterwarnings("error")
def test_chisq_rejects_nan_and_keeps_infinite_limits():
    # unchecked, a NaN x takes the x <= 0 branch and reads as a plausible 0.0
    for x, lam, name in ((math.nan, 1.0, "x"), ([1.0, math.nan], 1.0, "x"),
                         (1.0, math.nan, "lam"), (1.0, [0.5, math.nan], "lam")):
        with pytest.raises(ValueError, match=f"^{name} must not be NaN$"):
            noncentral_chisq1_cdf(x, lam)
    # unchecked, sqrt(x) - sqrt(lam) is inf - inf: nan and a RuntimeWarning
    for x, lam in ((math.inf, math.inf), ([1.0, math.inf], math.inf)):
        with pytest.raises(ValueError, match="^x and lam must not both be inf$"):
            noncentral_chisq1_cdf(x, lam)
    assert noncentral_chisq1_cdf(math.inf, 2.0) == 1.0
    assert noncentral_chisq1_cdf(-math.inf, 2.0) == 0.0
    assert noncentral_chisq1_cdf(3.0, math.inf) == 0.0
    assert noncentral_chisq1_cdf(-math.inf, math.inf) == 0.0


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
    for t in (0, 1):
        assert q(0.0, 0.4, 0.6, t, WIDE_GEN, WIDE_FILT) == 0.0
        assert q(-2.0, 0.4, 0.6, t, WIDE_GEN, WIDE_FILT) == 0.0
        assert q(1.0, 0.4, 0.6, t, WIDE_GEN, WIDE_FILT) == 1.0


def test_q_two_state_negative_threshold():
    # filter sigma0 > sigma1 puts the quadratic's branch upward; a tiny
    # weight threshold x drives the chi-square threshold negative
    tf = ModelAParams(p00=0.5, p11=0.5, mu=(0.0, 0.0), psi=(0.0, 0.0),
                      sigma=(2.0, 1.0))
    assert q(1e-10, 0.0, 0.5, 0, WIDE_GEN, tf) == 0.0


def test_q_two_state_cdf_limits():
    # x -> 1 sends the density-ratio level to its largest value, 2^53
    tf = ModelAParams(p00=0.5, p11=0.5, mu=(0.0, 0.0), psi=(0.0, 0.0),
                      sigma=(2.0, 1.0))
    narrow = dataclasses.replace(WIDE_GEN, sigma=(1.0, 1.0))
    assert q(np.nextafter(1.0, 0.0), 0.3, 0.5, 1, narrow, tf) >= 1.0 - 1e-12


def test_q_two_state_simulation_oracle():
    rng = np.random.default_rng(7)
    for trial in range(4):
        x = float(rng.uniform(0.1, 0.9))
        u = float(rng.normal())
        w = float(rng.uniform(0.05, 0.95))
        j = trial % 2
        got = q(x, u, w, j, WIDE_GEN, WIDE_FILT)
        mc = simulate_q(x, u, w, j, WIDE_GEN, WIDE_FILT,
                        np.random.default_rng(trial), 10 ** 6)
        se = math.sqrt(max(got * (1 - got), 1e-12) / 1e6)
        assert abs(got - mc) <= 3 * se + 1e-6


def test_q_two_state_equal_variance_branch():
    # equal filter variances take the root cascade, as the pair lift does:
    # the log ratio is linear in y, so a two-term exponential sum with one
    # root, exercised against simulation
    tf = ModelAParams(p00=0.5, p11=0.5, mu=(1.0, -1.0), psi=(0.2, -0.1),
                      sigma=(1.5, 1.5))
    for seed, (x, u, w) in enumerate([(0.5, 0.3, 0.5), (0.7, -0.8, 0.2), (0.3, 1.2, 0.9)]):
        got = q(x, u, w, seed % 2, WIDE_GEN, tf)
        mc = simulate_q(x, u, w, seed % 2, WIDE_GEN, tf,
                        np.random.default_rng(100 + seed), 10 ** 6)
        se = math.sqrt(max(got * (1 - got), 1e-12) / 1e6)
        assert abs(got - mc) <= 3 * se + 1e-6


def test_q_nearly_equal_variances_match_equal_ones():
    # variances this close (|zeta| <= 1e-12) take the cascade with one
    # variance, as equal ones do, not the closed form's 1/zeta terms
    tf = ModelAParams(p00=0.5, p11=0.5, mu=(1.0, -1.0), psi=(0.2, -0.1),
                      sigma=(1.5, 1.5))
    near = dataclasses.replace(tf, sigma=(1.5, 1.5 * (1 + 1e-13)))
    rng = np.random.default_rng(5)
    for _ in range(20):
        x, w = rng.uniform(0.01, 0.99, size=2)
        u = float(rng.normal(scale=3.0))
        for t in (0, 1):
            assert abs(q(x, u, w, t, WIDE_GEN, near) - q(x, u, w, t, WIDE_GEN, tf)) <= 1e-12


def test_q_identical_emissions_step_at_the_next_weight():
    # a filter whose states emit alike learns nothing from Y: the next
    # weight is the predictive mass pred_0 = w p00 + (1 - w)(1 - p11), so Q
    # is a step there
    tf = ModelAParams(p00=0.7, p11=0.6, mu=(0.4, 0.4), psi=(0.3, 0.3), sigma=(1.2, 1.2))
    for w in (0.0, 0.25, 0.9, 1.0):
        nxt = w * tf.p00 + (1 - w) * (1 - tf.p11)
        for u in (-2.0, 0.5):
            for t in (0, 1):
                assert q(nxt + 1e-9, u, w, t, WIDE_GEN, tf) == 1.0
                assert q(nxt - 1e-9, u, w, t, WIDE_GEN, tf) == 0.0


# --- four-state Q -----------------------------------------------------------------


def test_q_four_state_endpoints():
    for t in range(4):
        assert q(0.0, 0.4, 0.6, t, CASE1_GEN, CASE1_ALT) == 0.0
        assert q(1.0, 0.4, 0.6, t, CASE1_GEN, CASE1_ALT) == 1.0


def test_q_four_state_rejects_bad_weight():
    with pytest.raises(ValueError):
        q(0.5, 0.0, 1.2, 0, CASE1_GEN, CASE1_ALT)
    with pytest.raises(ValueError):
        q(0.5, 0.0, -0.1, 0, WIDE_GEN, WIDE_FILT)
    with pytest.raises(ValueError):
        q(0.5, 0.0, 0.5, 4, CASE1_GEN, CASE1_ALT)  # four pair states
    # 1.0 and True equal a state but are not an index; both Q paths
    for pair in ((WIDE_GEN, WIDE_FILT), (CASE1_GEN, CASE1_ALT)):
        for t in (1.0, True, "1"):
            with pytest.raises(ValueError, match="t must be a state"):
                q(0.5, 0.0, 0.5, t, *pair)


def test_q_rejects_values_that_are_not_finite():
    # both Q paths: the two-state closed form and the four-state cascade
    for pair in ((WIDE_GEN, WIDE_FILT), (CASE1_GEN, CASE1_ALT), (CASE7_GEN, CASE7_ALT)):
        for x, u in ((math.nan, 0.0), (math.inf, 0.0), (-math.inf, 0.0),
                     (0.5, math.nan), (0.5, math.inf), (0.0, -math.inf)):
            with pytest.raises(ValueError, match="finite"):
                q(x, u, 0.5, 0, *pair)


def test_q_four_state_monotone_in_x():
    xs = np.linspace(0.05, 0.95, 10)
    vals = [q(x, 0.5, 0.5, 0, CASE1_GEN, CASE1_ALT) for x in xs]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    assert all(0.0 <= v <= 1.0 for v in vals)


def test_q_four_state_simulation_oracle_benchmark_pair():
    got = q(0.5, 0.5, 0.5, 0, CASE1_GEN, CASE1_ALT)
    mc = simulate_q(0.5, 0.5, 0.5, 0, CASE1_GEN, CASE1_ALT,
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
        got = q(x, u, w, 2 * j + k, CASE7_GEN, CASE7_ALT)
        mc = simulate_q(x, u, w, 2 * j + k, CASE7_GEN, CASE7_ALT,
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


@given(st.lists(st.tuples(st.integers(1, 40), st.integers(0, 2**32 - 1)),
                min_size=2, max_size=4),
       st.integers(2, 4))
@settings(max_examples=25)
def test_exp_sum_roots_of_stacked_batches_are_each_batchs_roots(batches, terms):
    # the cascade stacks the rows of several brackets into one call
    parts = []
    for rows, seed in batches:
        rng = np.random.default_rng(seed)
        e = np.cumsum(rng.uniform(0.05, 3.0, size=(rows, terms)), axis=1) - 2.0
        c = rng.normal(size=(rows, terms)) * np.exp(rng.uniform(-10.0, 10.0, size=(rows, terms)))
        c[rng.random((rows, terms)) < 0.05] = 0.0
        lo, hi = -rng.uniform(5.0, 40.0, size=rows), rng.uniform(5.0, 40.0, size=rows)
        parts.append((e, c, lo, hi))
    stacked = _exp_sum_roots(*(np.concatenate(arrays) for arrays in zip(*parts)))
    start = 0
    for part in parts:
        rows = len(part[2])
        assert_same_bits(stacked[start:start + rows], _exp_sum_roots(*part))
        start += rows


@pytest.mark.parametrize("terms", [1, 2, 3, 4])
def test_bracketed_roots_are_each_brackets_roots(terms):
    # four brackets per row, some equal to an earlier one and some not; the
    # narrow ones cut roots off, so the clips of the closed form show
    rng = np.random.default_rng(terms)
    B = 2000
    e = np.cumsum(rng.uniform(0.05, 3.0, size=(B, terms)), axis=1) - 2.0
    c = rng.normal(size=(B, terms)) * np.exp(rng.uniform(-10.0, 10.0, size=(B, terms)))
    lo = -rng.choice([1.0, 5.0, 40.0], size=(4, B))
    hi = rng.choice([1.0, 5.0, 40.0], size=(4, B))
    roots = fredholm._bracketed_roots(e, c, lo, hi)
    assert roots.shape == (4, B, terms - 1)
    for k in range(4):
        assert_same_bits(roots[k], _exp_sum_roots(e, c, lo[k], hi[k]))
    if terms > 1:
        assert np.any(roots < hi[..., None]) and np.any(roots[0] != roots[1])


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
        _q_half(as_chain(CASE7_GEN), as_chain(filt), GridSpec())
    assert any(c.shape[1] == 4 for _, c, _, _, _ in calls)
    for e, c, lo, hi, roots in calls:
        assert_same_bits(roots, _exp_sum_roots_reference(e, c, lo, hi))


# --- kernel assembly ---------------------------------------------------------------


def test_kernel_dimension_family_a():
    k = build_kernel(WIDE_GEN, WIDE_FILT, GridSpec(N=4))
    assert k.entries.shape == (2 * 9, 2 * 9)
    assert solve_invariant(k).components.shape == (2, 3, 3)


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
    q_hi = q(half[x_i + 1], v[u_i], wn[w_i], j, WIDE_GEN, WIDE_FILT)
    q_lo = q(half[x_i], v[u_i], wn[w_i], j, WIDE_GEN, WIDE_FILT)
    rate = max(q_hi - q_lo, 0.0) / (1.0 / grid.N)
    want = p * g * rate * grid.cell_area

    got = k.entries[row, col] * k.pre_norm_col_sums[col]
    assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-300)


def _assemble_block_loop(gen, q_half, grid):
    """`_assemble` as first written: a zeros array filled block by block,
    skipping the blocks with T1[s, t] = 0."""
    d, n1 = gen.d, grid.N - 1
    v = grid.v_nodes
    dq = np.diff(q_half, axis=2)
    np.clip(dq, 0.0, None, out=dq)
    rate = dq / (1.0 / grid.N)
    f_trans = [fredholm._norm_pdf(v[:, None], gen.c[s] + gen.b[s] * v[None, :], gen.s[s])
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


@pytest.mark.parametrize("pair", [CASES[1], CASES[7], (WIDE_GEN, WIDE_FILT)],
                         ids=["case1", "case7", "family-a"])
def test_assemble_matches_block_loop(pair):
    grid = GridSpec(N=10)
    gen, filt = as_chain(pair[0]), as_chain(pair[1])
    q_half = _q_half(gen, filt, grid)
    got = fredholm._assemble(gen, q_half, grid)
    assert_same_bits(got, _assemble_block_loop(gen, q_half, grid))
    # the pair lift has zero transitions, and their blocks are +0.0
    n1 = grid.N - 1
    blocks = got.reshape(gen.d, n1 * n1, gen.d, n1 * n1)
    zero = list(zip(*np.nonzero(gen.transition == 0.0)))
    assert len(zero) == (8 if gen.d == 4 else 0)
    for s, t in zero:
        assert_same_bits(blocks[t, :, s, :], np.zeros((n1 * n1, n1 * n1)))


def test_kernel_and_q_reject_non_models():
    with pytest.raises(TypeError):
        build_kernel(CASE1_GEN, (0.4, 0.6), GridSpec(N=8))
    with pytest.raises(TypeError):
        build_kernel("case1", CASE1_ALT, GridSpec(N=8))
    with pytest.raises(TypeError):
        q(0.5, 0.0, 0.5, 0, CASE1_GEN, None)
    with pytest.raises(TypeError):
        q(0.0, 0.0, 0.5, 0, None, WIDE_FILT)  # even where Q needs no model


def test_engine_rejects_chains_one_filter_weight_cannot_track():
    # the kernel's filter state is one weight, the mass of the even states:
    # exact only when each transition row depends on s % 2 alone, and the
    # root cascade beyond two states needs one variance
    grid = GridSpec(N=8, quad_points=101)
    lifted = as_chain(CASE1_ALT)
    t3 = np.array([[0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.3, 0.3, 0.4]])
    mixed_rows = dataclasses.replace(lifted, transition=lifted.transition[[0, 1, 3, 2]])
    three = LinearGaussianChain(np.full(3, 1 / 3), t3, [0.0, 1.0, 2.0], np.zeros(3),
                                np.ones(3))
    two_sds = dataclasses.replace(lifted, s=[1.0, 1.0, 2.0, 2.0])
    single = LinearGaussianChain([1.0], [[1.0]], [0.0], [0.0], [1.0])
    for bad, match in ((mixed_rows, "s % 2"), (three, "s % 2"), (single, "s % 2"),
                       (two_sds, "one variance")):
        for pair in ((CASE1_GEN, bad), (bad, CASE1_ALT)):
            with pytest.raises(ValueError, match=match):
                build_kernel(*pair, grid)
            with pytest.raises(ValueError, match=match):
                q(0.5, 0.0, 0.5, 0, *pair)
            with pytest.raises(ValueError, match=match):
                divergence_fredholm(*pair, 0.5, grid)


def test_kernel_too_coarse_raises():
    with pytest.raises(GridTooCoarseError):
        build_kernel(CASE1_GEN, CASE1_ALT, GridSpec(N=16, a=1.0))
    # 2a overflows: every column sum is nan, which no bound comparison catches
    with pytest.raises(GridTooCoarseError, match="column sum nan"), np.errstate(all="ignore"):
        build_kernel(CASE1_GEN, CASE1_ALT, GridSpec(a=1e308))


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
    mass = m.components.sum() * m.grid.cell_area
    assert abs(mass - 1.0) <= 1e-10
    assert m.components.shape == (4, 7, 7)
    assert m.iterations >= 1


def test_solve_invariant_iteration_cap(monkeypatch):
    k = build_kernel(CASE1_GEN, CASE1_ALT, GridSpec(N=8))
    monkeypatch.setattr(fredholm, "EIGEN_MAX_ITERS", 1)
    with pytest.raises(NonConvergenceError):
        solve_invariant(k)


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


def test_divergence_rejects_orders_outside_the_domain(monkeypatch):
    # rejected before any kernel is built
    monkeypatch.setattr("hmmdiv.cli.build_kernel", None)
    for alpha in (-0.5, 0.0, math.inf, math.nan, "q", None):
        with pytest.raises(ValueError):
            divergence_fredholm(CASE1_GEN, CASE1_ALT, alpha)
        with pytest.raises(ValueError):
            j_alpha(CASE1_GEN, CASE1_ALT, alpha, None, GridSpec())
    # an order within 1e-8 of 1 is the KL limit, which has no power functional
    with pytest.raises(ValueError, match="use j_log"):
        j_alpha(CASE1_GEN, CASE1_ALT, 1.0 + 1e-9, None, GridSpec())


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
# and the root-cascade path must then give the same rates, and so must the
# mixed pairs of a mirror and a family-B model, in both directions.
FAMILY_A_MIRRORS = {
    1: (ModelAParams(0.59, 0.4, (2.0, 1.0), (0.0, 0.0), (1.5, 1.5)),
        ModelAParams(0.59, 0.4, (1.0, 0.0), (0.0, 0.0), (2.0, 2.0))),
    6: (ModelAParams(0.401, 0.6, (2.0, 1.0), (0.3, 0.3), (1.1, 1.1)),
        ModelAParams(0.401, 0.6, (1.0, 0.0), (0.2, 0.2), (1.0, 1.0))),
}


@pytest.mark.parametrize("cid", sorted(FAMILY_A_MIRRORS))
def test_family_a_mirror_matches_family_b(cid):
    grid = GridSpec(N=8, quad_points=101)
    (b1, b), (a1, a) = CASES[cid], FAMILY_A_MIRRORS[cid]
    for alpha in ("kl", 0.5, 2.0):
        want = divergence_fredholm(b1, b, alpha, grid).value
        for pair in ((a1, a), (a1, b), (b1, a)):
            got = divergence_fredholm(*pair, alpha, grid).value
            assert math.isclose(got, want, rel_tol=1e-12), (cid, alpha, pair, got, want)


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
    # one row per filter weight, read-only since every functional of a pass
    # reads it
    grid = GridSpec()
    rows = list(_mix_log(as_chain(theta), grid))
    assert len(rows) == grid.N - 1
    for row in rows:
        assert not row.flags.writeable
        with pytest.raises(ValueError):
            row[0, 0] = 0.0
    assert_same_bits(np.stack(rows), _mix_log_reference(theta, grid))


def mixture(chain, grid):
    """A chain's whole log predictive mixture grid, (w, u, y)."""
    return np.stack(list(_mix_log(chain, grid)))


def count_passes(monkeypatch, before_pass=lambda: None):
    """Record every quadrature pass as (thread, gen, functionals), and the
    chain of every mixture row formed; before_pass runs ahead of each pass."""
    built = {"pass": [], "rows": []}
    real_pass, real_mix = fredholm._quadrature_pass, fredholm._mix_log

    def passing(gen, grid, functionals):
        before_pass()
        built["pass"].append((threading.get_ident(), gen, list(functionals)))
        return real_pass(gen, grid, functionals)

    def mixing(chain, grid, logf=None, rows=None):
        for row in real_mix(chain, grid, logf, rows):
            built["rows"].append(chain)
            yield row

    monkeypatch.setattr(fredholm, "_quadrature_pass", passing)
    monkeypatch.setattr(fredholm, "_mix_log", mixing)
    return built


def test_pass_evaluates_each_emission_grid_once(monkeypatch):
    # the generating chain's log emission grid serves both the quadrature
    # terms and its own mixture rows; the filter chain's is evaluated once
    grid = GridSpec(N=8, quad_points=51)
    gen, alt = as_chain(CASE7_GEN), as_chain(CASE7_ALT)
    want = fredholm._quadrature_pass(gen, grid, [(gen, None), (alt, None), (alt, 0.5)])
    grids, real = [], fredholm._emission_grid
    monkeypatch.setattr(fredholm, "_emission_grid",
                        lambda chain, g, rows=None: grids.append(chain) or real(chain, g, rows))
    got = fredholm._quadrature_pass(gen, grid, [(gen, None), (alt, None), (alt, 0.5)])
    assert grids == [gen, alt]
    assert len(got) == len(want) == 3
    for tables, want_tables in zip(got, want):
        assert_same_tables(tables, want_tables)


def assert_same_tables(got, want):
    """One functional's pass tables: the same (T1[s, t], s) terms in the
    same order, and the same bits in each (v, w) table."""
    assert [(p, s) for p, s, _ in got] == [(p, s) for p, s, _ in want]
    for (_, _, g), (_, _, h) in zip(got, want):
        assert_same_bits(g, h)


def fredholm_values(theta1, theta, alphas, grid):
    """The per-case Fredholm driver's values on the case's order table."""
    return _fredholm_values(theta1, theta, _orders(theta1, theta, alphas), grid)[0]


def test_functionals_equal_inside_and_outside_a_case(monkeypatch):
    grid = GridSpec(quad_points=101)
    gen, alt = as_chain(CASE7_GEN), as_chain(CASE7_ALT)
    m = solve_invariant(build_kernel(CASE7_GEN, CASE7_ALT, grid))
    mix1, mix = mixture(gen, grid), mixture(alt, grid)
    want = [repr(_j_quadrature_per_state(gen, m, grid, mix1 - mix, 0.5)),
            repr(_j_quadrature_per_state(gen, m, grid, mix1 - mix, 2.0)),
            repr(_j_quadrature_per_state(gen, m, grid, mix, None))]
    calls = [lambda: j_alpha(CASE7_GEN, CASE7_ALT, 0.5, m, grid),
             lambda: j_alpha(CASE7_GEN, CASE7_ALT, 2.0, m, grid),
             lambda: j_log(CASE7_ALT, CASE7_GEN, m, grid)]
    built = count_passes(monkeypatch)
    alone = [repr(call()) for call in calls]
    # outside a case every call runs a pass for its own functional
    assert [fs for _, _, fs in built["pass"]] == [[(alt, 0.5)], [(alt, 2.0)], [(alt, None)]]
    assert len(built["rows"]) == 5 * (grid.N - 1)
    with case_functionals(CASE7_GEN, CASE7_ALT, [1.0, 0.5, 2.0], grid):
        inside = [repr(call()) for call in calls]
        # the first call ran one pass for every declared functional
        assert len(built["pass"]) == 4
        assert built["pass"][3][1:] == (gen, [(gen, None), (alt, None), (alt, 0.5), (alt, 2.0)])
        assert len(built["rows"]) == 7 * (grid.N - 1)
        again = [repr(call()) for call in calls]
        assert len(built["pass"]) == 4
        # a functional the block did not declare raises, and runs no pass
        with pytest.raises(ValueError, match="declared no such functional"):
            j_alpha(CASE7_GEN, CASE7_ALT, 3.0, m, grid)
        assert len(built["pass"]) == 4
    assert inside == alone == again == want
    # the record goes with the case
    assert fredholm._case.record is None
    calls[0]()
    assert len(built["pass"]) == 5


def test_case_builds_each_mixture_grid_once(monkeypatch):
    # one pass per case and 2 (N - 1) mixture rows, whatever the orders
    grid = GridSpec(N=8, quad_points=101)
    assert sum(a != "kl" for a in ALPHA_GRID) == 8
    gen, alt = as_chain(CASE1_GEN), as_chain(CASE1_ALT)
    built = count_passes(monkeypatch)
    for alphas in (ALPHA_GRID, ("kl",), (0.5,), (0.5, 2.0, 3.0)):
        built["pass"].clear()
        built["rows"].clear()
        fredholm_values(CASE1_GEN, CASE1_ALT, alphas, grid)
        assert [p[1] for p in built["pass"]] == [gen]
        assert collections.Counter(built["rows"]) == {gen: 7, alt: 7}
    # the models and the lattice are the key: a call on another grid, or
    # with a model in chain form, raises and runs no pass; equal models
    # are the same
    coarse, fine = GridSpec(N=8, quad_points=101), GridSpec(N=16, quad_points=101)
    m_coarse, m_fine = (solve_invariant(build_kernel(CASE1_GEN, CASE1_ALT, g))
                        for g in (coarse, fine))
    built["pass"].clear()
    with case_functionals(CASE1_GEN, CASE1_ALT, [0.5], coarse):
        with pytest.raises(ValueError):
            j_alpha(CASE1_GEN, CASE1_ALT, 0.5, m_fine, fine)
        assert len(built["pass"]) == 0
        want = j_alpha(CASE1_GEN, CASE1_ALT, 0.5, m_coarse, coarse)
        assert j_alpha(dataclasses.replace(CASE1_GEN), CASE1_ALT, 0.5, m_coarse, coarse) == want
        assert len(built["pass"]) == 1
        with pytest.raises(ValueError):
            j_alpha(as_chain(CASE1_GEN), CASE1_ALT, 0.5, m_coarse, coarse)
        assert len(built["pass"]) == 1
        # (N - 1)^2 floats per (source, target) emission pair: the pair
        # lift with psi2 = 0 emits by its second state, so 8 transitions
        # join 4 emission pairs
        (tables,) = fredholm._case.record[2].values()
        assert len(tables) == 8 and {g.shape for _, _, g in tables} == {(7, 7)}
        assert len({id(g) for _, _, g in tables}) == 4
    # the tables go with the case: a later call runs a pass anew
    j_alpha(CASE1_GEN, CASE1_ALT, 0.5, m_coarse, coarse)
    assert len(built["pass"]) == 2


def test_undeclared_calls_inside_a_case_raise(monkeypatch):
    # inside a block a call is one of the declared functionals or an
    # error, never a second pass; outside a block a call runs one pass for
    # its own functional
    grid, other = GridSpec(N=8, quad_points=101), GridSpec(N=10, quad_points=101)
    theta1, theta = CASES[1]
    m = solve_invariant(build_kernel(theta1, theta, grid))
    built = count_passes(monkeypatch)
    want = j_alpha(theta1, theta, 0.5, m, grid)
    assert [fs for _, _, fs in built["pass"]] == [[(as_chain(theta), 0.5)]]
    with case_functionals(theta1, theta, [1.0, 0.5], grid):
        undeclared = [
            lambda: j_alpha(theta1, theta, 2.0, m, grid),  # an order
            lambda: j_alpha(theta1, theta, 0.5, m, other),  # a grid
            lambda: j_alpha(as_chain(theta1), theta, 0.5, m, grid),  # chain forms
            lambda: j_alpha(theta1, as_chain(theta), 0.5, m, grid),
            lambda: j_alpha(theta, theta1, 0.5, m, grid),  # swapped models
            lambda: j_log(theta1, theta, m, grid),
        ]
        for call in undeclared:
            with pytest.raises(ValueError, match="declared no such functional"):
                call()
        assert len(built["pass"]) == 1
        assert j_alpha(theta1, theta, 0.5, m, grid) == want
        assert [len(fs) for _, _, fs in built["pass"]] == [1, 3]
    assert j_alpha(theta1, theta, 0.5, m, grid) == want
    assert [len(fs) for _, _, fs in built["pass"]] == [1, 3, 1]


def test_a_functional_refuses_a_density_from_another_lattice(monkeypatch):
    # the tables are built on the functional's grid: against a density solved
    # on another a, the contraction gave a plausible wrong number, and on
    # another N a broadcast error
    theta1, theta = CASES[6]
    grid = GridSpec(N=8, quad_points=101)
    m = solve_invariant(build_kernel(theta1, theta, grid))
    built = count_passes(monkeypatch)
    for other in (dataclasses.replace(grid, a=12.0), dataclasses.replace(grid, N=10)):
        for call in (lambda: j_alpha(theta1, theta, 0.5, m, other),
                     lambda: j_log(theta, theta1, m, other)):
            with pytest.raises(ValueError, match="solved on") as info:
                call()
            assert str(grid) in str(info.value) and str(other) in str(info.value)
    assert built["pass"] == []


def test_a_nested_case_restores_the_enclosing_record(monkeypatch):
    # a case run inside another's block (divergence_fredholm enters a
    # block of its own) leaves the enclosing case's tables in place, so
    # each case runs one pass
    grid = GridSpec(N=8, quad_points=101)
    m = solve_invariant(build_kernel(*CASES[1], grid))
    want = [j_alpha(*CASES[1], a, m, grid) for a in (0.5, 2.0)]
    built = count_passes(monkeypatch)
    with case_functionals(*CASES[1], [0.5, 2.0], grid):
        got = [j_alpha(*CASES[1], 0.5, m, grid)]
        divergence_fredholm(*CASES[2], 0.5, grid)
        got.append(j_alpha(*CASES[1], 2.0, m, grid))
    assert [len(fs) for _, _, fs in built["pass"]] == [2, 1]
    assert got == want
    assert fredholm._case.record is None


def test_concurrent_cases_each_build_their_grids_once(monkeypatch):
    # one store per thread: three cases held inside their blocks at once,
    # on three threads, run three passes and never evict each other's tables
    grid = GridSpec(N=8, quad_points=101)
    pairs = [CASES[1], CASES[2], CASES[6]]
    all_in = threading.Barrier(3, timeout=60)
    built = count_passes(monkeypatch, before_pass=all_in.wait)
    with concurrent.futures.ThreadPoolExecutor(3) as pool:
        got = list(pool.map(lambda p: fredholm_values(*p, ("kl", 0.5, 2.0), grid), pairs))
        # each worker's record went with its case
        assert list(pool.map(lambda _: getattr(fredholm._case, "record", None), range(3))) \
            == [None] * 3
    assert len({thread for thread, _, _ in built["pass"]}) == len(built["pass"]) == 3
    assert {gen for _, gen, _ in built["pass"]} == {as_chain(t1) for t1, _ in pairs}
    assert len(built["rows"]) == 3 * 2 * (grid.N - 1)
    monkeypatch.undo()
    assert repr(got) == repr([fredholm_values(*p, ("kl", 0.5, 2.0), grid) for p in pairs])


def j_stage_peak(theta1, theta, grid):
    """The traced peak bytes of a case's J stage, every order of the table."""
    m = solve_invariant(build_kernel(theta1, theta, grid))
    m1 = solve_invariant(build_kernel(theta1, theta1, grid))
    orders = [1.0 if a == "kl" else a for a in ALPHA_GRID]
    tracemalloc.start()
    try:
        with case_functionals(theta1, theta, orders, grid):
            j_log(theta1, theta1, m1, grid)
            j_log(theta, theta1, m, grid)
            for order in orders:
                if order != 1.0:
                    j_alpha(theta1, theta, order, m, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_j_stage_holds_no_full_grid():
    # case 7's J stage at the defaults, every order of the table: one pass
    # keeps (w, u) tables and one weight's rows, never a (w, u, y) grid
    grid = GridSpec()
    grid_bytes = (grid.N - 1) * grid.quad_points ** 2 * 8
    peak = j_stage_peak(CASE7_GEN, CASE7_ALT, grid)
    assert peak <= 3 * grid_bytes


def test_j_stage_without_slopes_holds_one_u_row():
    # case 1 has no slope: its grids and mixture rows hold one u row each,
    # and the largest arrays left are the (u, y) integrand buffer and the
    # (w, u) tables (9.0 MB when every grid held every u row)
    assert j_stage_peak(CASE1_GEN, CASE1_ALT, GridSpec()) < 3e6


# --- one u row when no emission reads the previous observation ----------------------


def _quadrature_pass_full(gen, grid, functionals):
    """`_quadrature_pass` with every grid, mixture row and integrand on all
    (u, y) nodes, whether an emission reads u or not, and each (source,
    target) state pair's table formed on its own: its tables."""
    nodes, wts = _simpson(-grid.a, grid.a, grid.quad_points)
    log_gen = np.stack([_log_gauss(nodes[None, :], gen.c[s] + gen.b[s] * nodes[:, None],
                                   gen.s[s]) for s in range(gen.d)])
    v = grid.v_nodes
    reps = gen.emission_reps()
    firsts = sorted(set(reps))
    dens = {e: np.exp(log_gen[e]) for e in firsts}
    f_emis = {e: np.exp(_log_gauss(nodes[None, :], gen.c[e] + gen.b[e] * v[:, None], gen.s[e]))
              for e in firsts}
    inner0 = {e: dens[e] @ wts for e in firsts}
    mix = {c: mixture(c, grid) for c in [gen] + [f for f, _ in functionals]}
    out = []
    for filt, alpha in functionals:
        inner = {e: np.stack([
            (mix[filt][w] * dens[e] if alpha is None
             else np.exp((alpha - 1.0) * (mix[gen][w] - mix[filt][w]) + log_gen[e])) @ wts
            for w in range(grid.N - 1)]) for e in firsts}
        tables = []
        for t in range(gen.d):
            for s in range(gen.d):
                if gen.transition[s, t] > 0.0:
                    es, et = reps[s], reps[t]
                    g = np.einsum("u,vu,wu->vw", wts, f_emis[es], inner[et])
                    g0 = f_emis[es] @ (wts * inner0[et])
                    tables.append((gen.transition[s, t], s, g / g0[:, None]))
        out.append(tuple(tables))
    return out


@pytest.mark.parametrize("pair, one_row", [
    (CASES[1], True), (CASES[6], False), (CASES[7], False), (CASES[8], True),
    (FAMILY_A_MIRRORS[1], True), (FAMILY_A_PAIR, False),
    # the generating chain has no slope but the filter has one
    ((CASE1_GEN, CASES[6][1]), False),
], ids=["case1", "case6", "case7", "case8", "a-case1", "a-selftest", "case1-gen-case6-filt"])
def test_pass_on_one_u_row_equals_the_full_grid_pass(monkeypatch, pair, one_row):
    theta1, theta = pair
    grid = GridSpec()
    gen, filt = as_chain(theta1), as_chain(theta)
    orders = (0.5, 0.999, 2.0)
    functionals = [(gen, None), (filt, None)] + [(filt, a) for a in orders]
    want = _quadrature_pass_full(gen, grid, functionals)
    u_rows, real = [], fredholm._emission_grid

    def emission_grid(chain, g, rows=None):
        nodes, wts, logf = real(chain, g, rows)
        u_rows.append(logf.shape[1])
        return nodes, wts, logf

    monkeypatch.setattr(fredholm, "_emission_grid", emission_grid)
    got = fredholm._quadrature_pass(gen, grid, functionals)
    monkeypatch.undo()
    assert set(u_rows) == {1 if one_row else grid.quad_points}
    assert len(got) == len(want)
    for tables, want_tables in zip(got, want):
        assert_same_tables(tables, want_tables)
    m = solve_invariant(build_kernel(theta1, theta, grid))
    with case_functionals(theta1, theta, (1.0,) + orders, grid):
        got = [j_log(theta1, theta1, m, grid), j_log(theta, theta1, m, grid)]
        got += [j_alpha(theta1, theta, a, m, grid) for a in orders]
    assert_same_bits(np.array(got), np.array([_j_quadrature(tables, m) for tables in want]))


@pytest.mark.parametrize("pair, one_row", [(CASES[1], True), (CASES[6], False)],
                         ids=["case1", "case6"])
def test_pass_reduces_one_u_row_without_slopes(monkeypatch, pair, one_row):
    grid = GridSpec()
    gen, filt = as_chain(pair[0]), as_chain(pair[1])
    shapes, real = [], fredholm._logsumexp
    monkeypatch.setattr(fredholm, "_logsumexp",
                        lambda a, axis, **kw: shapes.append(a.shape) or real(a, axis, **kw))
    fredholm._quadrature_pass(gen, grid, [(gen, None), (filt, None), (filt, 0.5)])
    rows = 1 if one_row else grid.quad_points
    assert shapes == [(gen.d, rows, grid.quad_points)] * (2 * (grid.N - 1))


# --- work shared between equal emissions -------------------------------------------


def count_q_batches(monkeypatch):
    calls = []
    real = fredholm._q_batch

    def counting(x, u, w, states, gen, filt):
        calls.append(list(states))
        return real(x, u, w, states, gen, filt)

    monkeypatch.setattr(fredholm, "_q_batch", counting)
    return calls


def count_cascades(monkeypatch):
    """The (rows, terms) of every top-level `_exp_sum_roots` call; the
    cascade's own recursive calls are not counted."""
    calls, depth = [], [0]
    real = fredholm._exp_sum_roots

    def counting(e, c, lo, hi):
        if depth[0] == 0:
            calls.append(c.shape)
        depth[0] += 1
        try:
            return real(e, c, lo, hi)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(fredholm, "_exp_sum_roots", counting)
    return calls


@pytest.mark.parametrize("pair, tabulated", [
    (CASES[1], [0, 1]),  # psi2 = 0: the pair (j, k) emits by k alone
    (CASES[7], [0, 1, 2, 3]),  # psi2 != 0: four distinct emissions
    (FAMILY_A_MIRRORS[6], [0, 1]),
], ids=["case1", "case7", "a-case6"])
def test_q_tabulated_once_per_distinct_emission(monkeypatch, pair, tabulated):
    # one batch of every distinct emission per kernel
    calls = count_q_batches(monkeypatch)
    build_kernel(*pair, GridSpec(N=16, quad_points=51))
    assert calls == [tabulated]


def test_one_cascade_per_kernel(monkeypatch):
    # N = 16: 15 u x 16 half nodes x 15 w = 3,600 lattice points. Case 7's
    # KL kernel filters with the generating chain, so all four states share
    # each point's bracket and its roots; under theta, brackets that differ
    # are solved as such, in the same call
    calls = count_cascades(monkeypatch)
    build_kernel(CASE7_GEN, CASE7_GEN, GridSpec(N=16, quad_points=51))
    assert calls == [(3600, 4)]
    calls.clear()
    build_kernel(CASE7_GEN, CASE7_ALT, GridSpec(N=16, quad_points=51))
    assert len(calls) == 1 and 3600 < calls[0][0] < 4 * 3600


def test_one_dense_kernel_alive_at_a_time():
    # case 7's KL rate builds two kernels of dim 4 * 23^2 (36 MB each); each
    # is dropped once solved, and normalized in place
    grid = GridSpec(N=24)
    dense = (4 * (grid.N - 1) ** 2) ** 2 * 8
    tracemalloc.start()
    try:
        divergence_fredholm(*CASES[7], "kl", grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * dense


def _q_half_per_state(gen, filt, grid):
    """`_q_half` with one `_q_batch` per state: each state's own bracket,
    nothing shared between states."""
    ug, xg, wg = np.meshgrid(grid.v_nodes, grid.x_half_nodes, grid.x_nodes, indexing="ij")
    return np.stack([fredholm._q_batch(xg.ravel(), ug.ravel(), wg.ravel(), [t], gen, filt)[0]
                     .reshape(ug.shape) for t in range(gen.d)])


# every kind of pair the kernel takes: family B with psi2 = 0 and not, the
# family-A mirrors (one variance), the family-A pair (chi-square), and
# mixed pairs in both directions
MIXED_A = ModelAParams(0.401, 0.6, (1.0, 0.0), (0.2, 0.2), (1.0, 1.0))
Q_HALF_PAIRS = {
    **{f"case{k}": CASES[k] for k in (1, 6, 7, 8)},
    "a-case1": FAMILY_A_MIRRORS[1], "a-selftest": FAMILY_A_PAIR,
    "b7-a": (CASE7_GEN, MIXED_A), "a-b7": (MIXED_A, CASE7_GEN),
    "b1-a": (CASE1_GEN, FAMILY_A_PAIR[1]), "a-b6": (FAMILY_A_PAIR[0], CASES[6][1]),
}


@pytest.mark.parametrize("name", sorted(Q_HALF_PAIRS))
def test_q_half_matches_per_state_batches(name):
    theta1, theta = Q_HALF_PAIRS[name]
    grid = GridSpec(N=10)
    gen = as_chain(theta1)
    for filt in (as_chain(theta), gen):  # the theta-filter and the KL kernel
        assert_same_bits(_q_half(gen, filt, grid), _q_half_per_state(gen, filt, grid))


def _j_quadrature_per_state(gen, m, grid, r, alpha):
    """`_j_quadrature` with every term built per state and per call."""
    nodes, wts = _simpson(-grid.a, grid.a, grid.quad_points)
    log_gen = np.stack([_log_gauss(nodes[None, :], gen.c[s] + gen.b[s] * nodes[:, None],
                                   gen.s[s]) for s in range(gen.d)])
    v = grid.v_nodes
    f_emis = [np.exp(_log_gauss(nodes[None, :], gen.c[s] + gen.b[s] * v[:, None], gen.s[s]))
              for s in range(gen.d)]
    total = 0.0
    for t in range(gen.d):
        dens = np.exp(log_gen[t])
        inner0 = dens @ wts
        if alpha is not None:
            inner = np.exp((alpha - 1.0) * r + log_gen[t][None, :, :]) @ wts
        else:
            inner = (r * dens[None, :, :]) @ wts
        for s in range(gen.d):
            if gen.transition[s, t] > 0.0:
                g = np.einsum("u,vu,wu->vw", wts, f_emis[s], inner)
                g0 = f_emis[s] @ (wts * inner0)
                total += gen.transition[s, t] * float(
                    np.sum(m.components[s] * (g / g0[:, None]))
                ) * m.grid.cell_area
    return float(total)


@pytest.mark.parametrize("pair", [CASES[1], CASES[7], FAMILY_A_MIRRORS[6]],
                         ids=["case1", "case7", "a-case6"])
def test_shared_emission_work_matches_per_state_loops(pair):
    theta1, theta = pair
    grid = GridSpec(N=16, quad_points=101)
    gen, filt = as_chain(theta1), as_chain(theta)
    assert_same_bits(_q_half(gen, filt, grid), _q_half_per_state(gen, filt, grid))
    m = solve_invariant(build_kernel(theta1, theta, grid))
    mix1, mix = mixture(gen, grid), mixture(filt, grid)
    want = [repr(_j_quadrature_per_state(gen, m, grid, mix1 - mix, a))
            for a in (0.5, 0.999, 2.0)]
    want.append(repr(_j_quadrature_per_state(gen, m, grid, mix, None)))
    for shared in (False, True):
        with (case_functionals(theta1, theta, [0.5, 0.999, 2.0, 1.0], grid) if shared
              else contextlib.nullcontext()):
            got = [repr(j_alpha(theta1, theta, a, m, grid)) for a in (0.5, 0.999, 2.0)]
            got.append(repr(j_log(theta, theta1, m, grid)))
        assert got == want, shared


def test_array_and_chain_models_reach_the_functionals():
    # models with list or array fields become tuples, so `==` between them is
    # a plain bool
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
    with case_functionals(CASE1_GEN, CASE1_ALT, [0.5], grid):
        with pytest.raises(ValueError):
            j_alpha(*chains, 0.5, m, grid)
        assert repr(j_alpha(as_array, CASE1_ALT, 0.5, m, grid)) == want
    want = divergence_fredholm(CASE1_GEN, CASE1_ALT, 0.5, grid).value
    assert repr(divergence_fredholm(as_array, CASE1_ALT, 0.5, grid).value) == repr(want)


def test_chain_forms_run_the_engine_bit_for_bit():
    # a chain is a value: equal numbers compare equal and hash alike, and
    # the engine gives it its model's kernel entries and rates
    grid = GridSpec(N=16, quad_points=101)
    for theta1, theta in (CASES[7], FAMILY_A_MIRRORS[6], (FAMILY_A_MIRRORS[6][0], CASE7_ALT)):
        c1, c = as_chain(theta1), as_chain(theta)
        assert c1 == as_chain(theta1) and hash(c1) == hash(as_chain(theta1))
        assert c1 != c and c1 != theta1
        assert np.array_equal(build_kernel(c1, c, grid).entries,
                              build_kernel(theta1, theta, grid).entries)
        alphas = ("kl", 0.5, 2.0)
        want = fredholm_values(theta1, theta, alphas, grid)
        assert repr(fredholm_values(c1, c, alphas, grid)) == repr(want)
        assert all(divergence_fredholm(c1, c1, a, grid).value == 0.0 for a in alphas)
    with pytest.raises(ValueError):
        c1.c[0] = 1.0  # read-only, so the hash cannot go stale
