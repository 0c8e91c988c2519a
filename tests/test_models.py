"""Parameter containers, their checks, the chain form, and path sampling."""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st
from scipy.special import logsumexp

from hmmdiv import (
    ModelAParams,
    ModelBParams,
    as_chain,
    sample_path,
    transition_matrix,
)
from hmmdiv.models import (
    _DRAW_BLOCKS,
    _TIME_BLOCK,
    _logsumexp,
    _standard_normals,
    PathSample,
    mix_seed,
    path_blocks,
    sample_paths,
)
from hmmdiv.cases import CASES

from oracles import emission_log_pdf

CASE1_GEN, CASE1_ALT = CASES[1]


def model_b(**overrides):
    base = dict(p01=0.4, p10=0.6, mu=(2.0, 1.0), phi=0.1, psi1=1.0,
                psi2=0.0, sigma=1.0)
    base.update(overrides)
    return ModelBParams(**base)


valid_model_b = st.builds(
    ModelBParams,
    p01=st.floats(0.05, 0.95),
    p10=st.floats(0.05, 0.95),
    mu=st.tuples(st.floats(-3, 3), st.floats(-3, 3)),
    phi=st.floats(-0.9, 0.9),
    psi1=st.floats(-1.5, 1.5),
    psi2=st.floats(-1.5, 1.5),
    sigma=st.floats(0.2, 3.0),
)


# --- checks at construction ----------------------------------------------------


def test_zero_sigma_is_rejected():
    with pytest.raises(ValueError, match="sigma must be positive"):
        model_b(sigma=0.0)


def test_unit_phi_is_rejected():
    with pytest.raises(ValueError, match=re.escape("|phi| < 1 required")):
        model_b(phi=1.0)


def test_benchmark_params_build():
    # dataclasses.replace builds each model anew from its fields
    assert dataclasses.replace(CASE1_ALT) == CASE1_ALT
    for t1, t in CASES.values():
        assert dataclasses.replace(t1) == t1 and dataclasses.replace(t) == t


def test_one_error_names_every_violation():
    with pytest.raises(ValueError) as exc:
        model_b(p01=1.5, phi=2.0, sigma=-1.0)
    assert str(exc.value) == ("invalid model: 0 < p01 < 1 required, got 1.5; "
                              "|phi| < 1 required, got 2.0; "
                              "sigma must be positive and finite, got -1.0")


def model_a(**overrides):
    base = dict(p00=0.6, p11=0.7, mu=(0.5, -0.5), psi=(0.2, -0.1), sigma=(1.0, 1.4))
    base.update(overrides)
    return ModelAParams(**base)


def chain_a(**overrides):
    return dataclasses.replace(as_chain(model_a()), **overrides)


@pytest.mark.parametrize(
    "build, needle",
    [
        (lambda: model_a(mu=(math.nan, 1.0)), "mu[0] must be finite"),
        (lambda: model_a(sigma=(1.0, math.inf)), "sigma[1] must be positive and finite"),
        (lambda: model_a(mu=(0.0, 1.0, 2.0)), "mu must have exactly 2 entries"),
        (lambda: model_a(sigma=(1.0,)), "sigma must have exactly 2 entries"),
        (lambda: model_b(mu=(1.0,)), "mu must have exactly 2 entries"),
        (lambda: model_b(mu=(1.0, -math.inf)), "mu[1] must be finite"),
        (lambda: model_b(psi1=math.nan), "psi1 must be finite"),
        (lambda: model_b(psi2=math.inf), "psi2 must be finite"),
        (lambda: model_b(sigma=math.inf), "sigma must be positive and finite"),
        (lambda: chain_a(pi=[math.nan, 0.5]), "pi must be finite"),
        (lambda: chain_a(transition=[[0.6, 0.4], [math.inf, 0.7]]), "transition must be finite"),
        (lambda: chain_a(c=[math.nan, -0.5]), "c must be finite"),
        (lambda: chain_a(b=[0.2, -math.inf]), "b must be finite"),
        (lambda: chain_a(s=[1.0, math.inf]), "s must be finite"),
        (lambda: chain_a(transition=[[1.5, -0.5], [0.3, 0.7]]), "must lie in [0, 1]"),
        (lambda: model_a(p00=1.0), "0 < p00 < 1 required"),
        (lambda: model_a(p11=0.0), "0 < p11 < 1 required"),
        (lambda: model_a(psi=(0.2, -1.0)), "|psi[1]| < 1 required"),
        (lambda: chain_a(pi=[0.7, 0.7]), "pi must be a probability vector"),
        (lambda: chain_a(pi=[1.2, -0.2]), "pi must be a probability vector"),
        (lambda: model_b(mu=(1e308, 1.0), psi1=1.5, psi2=1.5),
         "pair mean psi2 * mu[0] + psi1 * mu[0] must be finite, got inf"),
    ],
)
def test_construction_rejects_nonfinite_and_wrong_lengths(build, needle):
    with pytest.raises(ValueError) as exc:
        build()
    assert needle in str(exc.value)


@pytest.mark.parametrize("fields, message", [
    (dict(transition=[[0.6, 0.4, 0.0], [0.3, 0.7, 0.0]]), "transition shape"),
    (dict(c=[0.5]), "length d"),
    (dict(b=[0.2, -0.1, 0.0]), "length d"),
    (dict(s=[1.0, 0.0]), "must be positive"),
    (dict(s=[-1.0, 1.4]), "must be positive"),
    (dict(pi=0.5, transition=[[1.0]], c=[0.0], b=[0.0], s=[1.0]),
     re.escape("pi must be a vector, got shape ()")),
])
def test_chain_form_rejects_bad_shapes_and_scales(fields, message):
    with pytest.raises(ValueError, match=message):
        chain_a(**fields)


def test_path_sample_needs_equal_lengths():
    with pytest.raises(ValueError, match="equal length"):
        PathSample(y=np.zeros(4), x=np.zeros(3))


# --- stationary laws of the chain form ----------------------------------------


def test_stationary_symmetric_chain():
    pi = as_chain(model_a(p00=0.5, p11=0.5)).pi
    np.testing.assert_allclose(pi, [0.5, 0.5], atol=1e-12)


def test_stationary_two_state_case1():
    # balance: pi0 * p01 = pi1 * p10 => pi = (p10, p01) / (p01 + p10); the
    # lifted pi4[(i, j)] = pi[i] * P[i, j] sums over j to pi[i]
    pi = as_chain(CASE1_GEN).pi.reshape(2, 2).sum(axis=1)
    np.testing.assert_allclose(pi, [0.6 / 1.01, 0.41 / 1.01], atol=1e-12)
    np.testing.assert_allclose(pi, [0.594059, 0.405941], atol=1e-6)
    mirror = as_chain(model_a(p00=1.0 - 0.41, p11=1.0 - 0.6)).pi
    np.testing.assert_allclose(mirror, [0.6 / 1.01, 0.41 / 1.01], atol=1e-15)


def test_stationary_four_state_lift_case1():
    chain = as_chain(CASE1_GEN)
    np.testing.assert_allclose(
        chain.pi, [0.350495, 0.243564, 0.243564, 0.162376], atol=1e-6
    )
    # cross-check against the eigenvector of the transposed matrix
    vals, vecs = np.linalg.eig(chain.transition.T)
    v = np.real(vecs[:, np.argmin(np.abs(vals - 1.0))])
    np.testing.assert_allclose(chain.pi, v / v.sum(), atol=1e-10)


def test_stationary_fixed_point_for_all_benchmark_chains():
    models = [m for pair in CASES.values() for m in pair]
    models += [model_a(), model_a(p00=0.05, p11=0.97)]
    for m in models:
        chain = as_chain(m)
        assert np.max(np.abs(chain.pi @ chain.transition - chain.pi)) <= 1e-15
        if isinstance(m, ModelBParams):  # and its 2-state marginal
            pi = chain.pi.reshape(2, 2).sum(axis=1)
            assert np.max(np.abs(pi @ transition_matrix(m) - pi)) <= 1e-15


def test_transition_matrix_rejects_bad_rows():
    for rows in ([[0.7, 0.7], [0.5, 0.5]], [[1.2, -0.2], [0.5, 0.5]]):
        with pytest.raises(ValueError):
            chain_a(transition=rows)


# --- four-state lift ----------------------------------------------------------


def test_lift_case1_first_row():
    chain = as_chain(CASE1_GEN)
    np.testing.assert_allclose(chain.transition[0], [0.59, 0.41, 0.0, 0.0], atol=1e-12)
    # a pair (i, j) moves only to (j, k), with the 2-state probability P[j, k]
    p = transition_matrix(CASE1_GEN)
    for i, j, jj, k in np.ndindex(2, 2, 2, 2):
        want = p[j, k] if jj == j else 0.0
        assert chain.transition[2 * i + j, 2 * jj + k] == want


@given(valid_model_b)
def test_lift_rows_and_pi_normalized(m):
    chain = as_chain(m)
    np.testing.assert_allclose(chain.transition.sum(axis=1), 1.0, atol=1e-12)
    assert abs(chain.pi.sum() - 1.0) <= 1e-12
    assert np.all(chain.pi >= 0)


def test_lift_pi_is_stationary():
    for t1, t in CASES.values():
        for m in (t1, t):
            chain = as_chain(m)
            np.testing.assert_allclose(chain.pi @ chain.transition, chain.pi, atol=1e-12)


def test_lift_marginal_matches_two_state_stationary():
    # frequencies of the current regime from the lifted sampler agree with
    # the 2-state stationary law
    m = CASE1_GEN
    path = sample_path(m, 100000, seed=11)
    pi0 = m.p10 / (m.p01 + m.p10)
    freq = np.mean(path.x == 0)
    se = math.sqrt(pi0 * (1 - pi0) / path.x.size)
    assert abs(freq - pi0) <= 3 * se


# --- emission densities of the chain form ---------------------------------------


def pair_pdf(m, i, j, y, y_prev):
    """Family B's density f(y | X_{t-1}=i, X_t=j, y_prev) from its chain."""
    return float(np.exp(emission_log_pdf(as_chain(m), y, y_prev))[2 * i + j])


def test_emission_peak_value():
    m = model_b(sigma=0.7)
    mean = m.psi2 * m.mu[0] + m.psi1 * m.mu[1] + m.phi * 0.3
    val = pair_pdf(m, 0, 1, mean, 0.3)
    assert math.isclose(val, 1.0 / (0.7 * math.sqrt(2 * math.pi)), rel_tol=1e-12)


@given(valid_model_b, st.floats(-5, 5), st.floats(0, 4))
def test_emission_symmetric_about_mean(m, y_prev, c):
    mean = m.psi2 * m.mu[1] + m.psi1 * m.mu[0] + m.phi * y_prev
    left = pair_pdf(m, 1, 0, mean - c, y_prev)
    right = pair_pdf(m, 1, 0, mean + c, y_prev)
    assert math.isclose(left, right, rel_tol=1e-12)


def test_emission_case1_value():
    # alternative model of pair 1: mean psi1*mu[0] = 1, sd 2, y = 3
    val = pair_pdf(CASE1_ALT, 0, 0, 3.0, 0.0)
    expect = math.exp(-0.5) / (2.0 * math.sqrt(2 * math.pi))
    assert math.isclose(val, expect, rel_tol=1e-12)
    assert math.isclose(val, 0.120985, abs_tol=1e-6)


@given(valid_model_b, st.integers(0, 1), st.integers(0, 1),
       st.floats(-4, 4), st.floats(-4, 4))
def test_emission_positive_and_finite(m, i, j, y, y_prev):
    # ranges chosen so the density stays above the double-precision floor
    assume(m.sigma >= 0.5)
    val = pair_pdf(m, i, j, y, y_prev)
    assert val > 0 and math.isfinite(val)


def test_family_a_emission_ignores_previous_state():
    # family A is not lifted: one chain state per regime, emitting
    # N(mu[j] + psi[j] * y_prev, sigma[j]^2)
    m = ModelAParams(p00=0.7, p11=0.6, mu=(1.0, -1.0), psi=(0.2, 0.1),
                     sigma=(1.0, 1.5))
    chain = as_chain(m)
    assert chain.d == 2
    for j in (0, 1):
        z = (0.4 - m.mu[j] - m.psi[j] * 0.9) / m.sigma[j]
        want = math.exp(-0.5 * z * z) / (m.sigma[j] * math.sqrt(2 * math.pi))
        assert math.isclose(np.exp(emission_log_pdf(chain, 0.4, 0.9))[j], want, rel_tol=1e-12)


# --- sampling ----------------------------------------------------------------


def test_sample_path_deterministic():
    a = sample_path(CASE1_GEN, 500, burn_in=50, seed=42)
    b = sample_path(CASE1_GEN, 500, burn_in=50, seed=42)
    assert np.array_equal(a.y, b.y) and np.array_equal(a.x, b.x)
    assert a.y_prev == b.y_prev
    c = sample_path(CASE1_GEN, 500, burn_in=50, seed=43)
    assert not np.array_equal(a.y, c.y)


def test_sample_path_rejects_negative_burn_in():
    for burn_in in (-1, -20):
        with pytest.raises(ValueError, match="burn_in"):
            sample_path(CASE1_GEN, 10, burn_in=burn_in)


def test_sample_paths_rejects_no_steps():
    for n in (0, -3):
        with pytest.raises(ValueError, match="n must be at least 1"):
            sample_paths([as_chain(CASE1_GEN)], [0], n, 0)


@pytest.mark.parametrize("kwargs, match", [
    ({"n": 2.5}, "n must be an integer"), ({"n": 10.0}, "n must be an integer"),
    ({"n": True}, "n must be an integer"),
    ({"burn_in": 0.5}, "burn_in must be an integer"),
    ({"burn_in": False}, "burn_in must be an integer"),
    ({"seed": 0.5}, "seed must be an integer"), ({"seed": True}, "seed must be an integer"),
    ({"seed": "1"}, "seed must be an integer"),
    ({"seed": -1}, "seed must be nonnegative, got -1"),
])
def test_sampling_rejects_non_integer_counts(kwargs, match):
    # named before any draw stream is set up, not a TypeError deep in the
    # sampler or numpy's unnamed "expected non-negative integer"; a bool
    # seed is not silently taken as 0 or 1
    args = {"n": 10, "burn_in": 5, "seed": 3, **kwargs}
    with pytest.raises(ValueError, match=match):
        sample_path(CASE1_GEN, **args)
    with pytest.raises(ValueError, match=match):
        sample_paths([as_chain(CASE1_GEN)], [0, args["seed"]], args["n"], args["burn_in"])
    with pytest.raises(ValueError, match=match):
        next(path_blocks([as_chain(CASE1_GEN)], [args["seed"]], args["n"], args["burn_in"]))
    # numpy integers are counts
    path = sample_path(CASE1_GEN, np.int64(10), burn_in=np.int32(5), seed=np.uint64(3))
    assert np.array_equal(path.y, sample_path(CASE1_GEN, 10, burn_in=5, seed=3).y)


def test_sampling_needs_a_chain():
    # no chains is a named error before any draw stream is set up, not an
    # empty max() deep in the table build
    with pytest.raises(ValueError, match="at least one chain"):
        sample_paths([], [0], 5, 0)
    with pytest.raises(ValueError, match="at least one chain"):
        next(path_blocks([], [0, 1], 5, 2))


def test_sample_path_is_the_batch_row():
    seeds = [mix_seed(3, r) for r in range(3)]
    y, y_prev, x = sample_paths([as_chain(CASE1_GEN)], seeds, 400, 30)
    assert y.shape == x.shape == (1, 3, 400) and x.dtype == np.int8
    for r, seed in enumerate(seeds):
        path = sample_path(CASE1_GEN, 400, burn_in=30, seed=seed)
        assert np.array_equal(path.y, y[0, r]) and path.y_prev == y_prev[0, r]
        assert np.array_equal(path.x, x[0, r] % 2)


def step_loop_sample_paths(chain, seeds, n, burn_in):
    """The path sampler one time step at a time, every operation per step,
    each row's draws read from its seed's one stream in order: the
    reference that the table-driven, block-streamed sampler must match
    bit for bit."""
    rows = len(seeds)
    total = burn_in + n
    u_state = np.empty((rows, total + 1))
    eps = np.empty((rows, total))
    for r, seed in enumerate(seeds):
        rng = np.random.Generator(np.random.PCG64(seed))
        u_state[r] = rng.random(total + 1)
        eps[r] = _standard_normals(rng.random(total))
    cum = np.cumsum(chain.transition, axis=1)
    cum_pi = np.cumsum(chain.pi)
    z = np.minimum((cum_pi[None, :] <= u_state[:, 0:1]).sum(axis=1), chain.d - 1)
    y = np.zeros(rows)
    ys = np.empty((rows, total))
    states = np.empty((rows, total), dtype=np.int8)
    c, b, s = chain.c, chain.b, chain.s
    for t in range(total):
        z = np.minimum((cum[z] <= u_state[:, t + 1, None]).sum(axis=1), chain.d - 1)
        y = c[z] + b[z] * y + s[z] * eps[:, t]
        ys[:, t] = y
        states[:, t] = z
    y_prev = ys[:, burn_in - 1] if burn_in > 0 else np.zeros(rows)
    return ys[:, burn_in:], y_prev, states[:, burn_in:]


FAMILY_A = ModelAParams(p00=0.6, p11=0.7, mu=(0.5, -0.5), psi=(0.2, -0.1),
                        sigma=(1.0, 1.4))


# 263 steps of burn-in: many whole time blocks and a partial one
@pytest.mark.parametrize("m", [CASES[7][0], FAMILY_A], ids=["B", "A"])
@pytest.mark.parametrize("burn_in", [0, 1, 263])
@pytest.mark.parametrize("rows", [1, 5])
def test_sample_paths_match_step_loop_bitwise(m, burn_in, rows):
    chain = as_chain(m)
    seeds = [mix_seed(burn_in, r) for r in range(rows)]
    n = _TIME_BLOCK + 50
    got = sample_paths([chain], seeds, n, burn_in)
    want = step_loop_sample_paths(chain, seeds, n, burn_in)
    for g, w in zip(got, want):
        assert g.shape == (1, *w.shape) and g.dtype == w.dtype
        assert np.array_equal(g[0], w)
    y, _, x = got
    assert y.flags.c_contiguous and x.flags.c_contiguous and x.dtype == np.int8


# the uniforms are drawn _DRAW_BLOCKS time blocks per call: a burn-in of 7
# steps ends inside the first draw, a longer one in a later draw, and the
# observed steps run over several draws and end in a partial block
@pytest.mark.parametrize("burn_in", [7, _DRAW_BLOCKS * _TIME_BLOCK + 7])
def test_sample_paths_match_step_loop_across_draws(burn_in):
    chain = as_chain(CASES[7][0])
    seeds = [mix_seed(5, r) for r in range(3)]
    n = (2 * _DRAW_BLOCKS + 1) * _TIME_BLOCK + 5
    got = sample_paths([chain], seeds, n, burn_in)
    want = step_loop_sample_paths(chain, seeds, n, burn_in)
    for g, w in zip(got, want):
        assert np.array_equal(g[0], w)


@pytest.mark.parametrize("burn_in", [0, 2 * _TIME_BLOCK + 5])
def test_multi_chain_rows_equal_one_chain_calls(burn_in):
    # chains of 4 and 2 states sampled together read one draw stream per
    # seed; each row is the one-chain call's and the step loop's, bit for
    # bit, the normals streamed from a second generator included
    chains = [as_chain(m) for m in (CASES[7][0], FAMILY_A, CASE1_GEN, CASES[7][0])]
    seeds = [mix_seed(11, r) for r in range(4)]
    n = 3 * _TIME_BLOCK + 11
    y, y_prev, x = sample_paths(chains, seeds, n, burn_in)
    assert y.shape == x.shape == (4, 4, n) and y_prev.shape == (4, 4)
    for i, chain in enumerate(chains):
        alone = sample_paths([chain], seeds, n, burn_in)
        want = step_loop_sample_paths(chain, seeds, n, burn_in)
        for g, a, w in zip((y, y_prev, x), alone, want):
            assert np.array_equal(g[i], a[0]) and np.array_equal(g[i], w)
    assert np.array_equal(y[0], y[3])


def test_sample_path_regime_frequencies():
    path = sample_path(CASE1_GEN, 100000, seed=3)
    p0 = 0.594059
    se = math.sqrt(p0 * (1 - p0) / path.x.size)
    assert abs(np.mean(path.x == 0) - p0) <= 3 * se


def test_sample_path_iid_reduction():
    # equal regime means with no feedback collapse to i.i.d. Gaussian draws
    m = model_b(mu=(1.3, 1.3), phi=0.0, psi1=1.0, psi2=0.0, sigma=0.8)
    path = sample_path(m, 40000, seed=5)
    assert abs(path.y.mean() - 1.3) <= 3 * 0.8 / math.sqrt(path.y.size)
    assert abs(path.y.std(ddof=1) - 0.8) <= 0.02


def test_sample_path_records_regimes_not_pair_states():
    path = sample_path(CASE1_GEN, 1000, seed=9)
    assert set(np.unique(path.x)) <= {0, 1}


def test_mix_seed_spreads_replicates():
    seeds = {mix_seed(0, r) for r in range(1000)}
    assert len(seeds) == 1000
    assert mix_seed(7, 3) == mix_seed(7, 3)
    assert mix_seed(7, 3) != mix_seed(8, 3)


# --- chain reduction -----------------------------------------------------------


def test_as_chain_four_state_intercepts():
    m = model_b(mu=(2.0, -1.0), psi1=0.7, psi2=0.3)
    chain = as_chain(m)
    mu = np.array(m.mu)
    expect = [0.3 * mu[i] + 0.7 * mu[j] for i in (0, 1) for j in (0, 1)]
    np.testing.assert_allclose(chain.c, expect, atol=1e-12)
    assert chain.d == 4


def test_as_chain_family_a_dimension():
    m = ModelAParams(p00=0.7, p11=0.6, mu=(1.0, -1.0), psi=(0.2, 0.1),
                     sigma=(1.0, 1.5))
    chain = as_chain(m)
    assert chain.d == 2
    np.testing.assert_allclose(chain.c, m.mu, atol=1e-15)


def test_as_chain_rejects_invalid():
    # a model is checked when built; what is not a model is refused here
    for m in ((0.4, 0.6), "case1", None):
        with pytest.raises(TypeError, match="not a model"):
            as_chain(m)


# --- log-sum-exp ------------------------------------------------------------------


def assert_same_bits(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def test_logsumexp_matches_scipy_bitwise_on_edge_cases():
    a = np.random.default_rng(41).normal(scale=30.0, size=(8, 9))
    a[1, 2] = a[1, 5] = a[1].max() + 1.0  # tied maxima along axis 1
    a[0, 1] = a[2, 1] = a[:, 1].max() + 1.0  # and along axis 0
    a[3] = 0.25  # an all-equal row, as a p = q row of log ratios gives
    a[4, ::2] = -np.inf
    a[5] = -np.inf  # an all -inf slice
    a[6, 3] = np.inf
    a[7, [0, 4]] = np.inf  # two +inf entries
    a[2, 7] = np.nan
    for axis in (0, 1):
        assert_same_bits(_logsumexp(a, axis=axis), logsumexp(a, axis=axis))
    for axis in (0, 1):  # without the nan: a slice of -inf alone, one with +inf
        assert_same_bits(_logsumexp(a[4:7], axis=axis), logsumexp(a[4:7], axis=axis))
    rows = _logsumexp(a, axis=1)
    assert np.isnan(rows[2]) and np.isneginf(rows[5]) and np.isposinf(rows[6])


def test_logsumexp_matches_scipy_bitwise_on_engine_inputs():
    # the lifted chain's log mixture terms: with psi2 = 0 the pair states
    # (0, j) and (1, j) emit alike, so maxima tie along the state axis
    chain = as_chain(CASE1_GEN)
    nodes = np.linspace(-15.0, 15.0, 41)
    logf = emission_log_pdf(chain, nodes[None, :], nodes[:, None]).transpose(2, 0, 1)
    assert np.array_equal(logf[0], logf[2]) and np.array_equal(logf[1], logf[3])
    assert_same_bits(_logsumexp(logf, axis=0), logsumexp(logf, axis=0))
    for w in (0.1, 0.5, 0.9):
        lp = np.log(w * chain.transition[0] + (1.0 - w) * chain.transition[1])
        terms = lp[:, None, None] + logf
        assert_same_bits(_logsumexp(terms, axis=0), logsumexp(terms, axis=0))
    rng = np.random.default_rng(42)
    rho = rng.normal(scale=0.4, size=(6, 500))
    rho[2] = 0.0  # p = q: every ratio is zero
    for alpha in (0.5, 0.999, 1.001, 2.0):
        x = (alpha - 1.0) * rho
        assert_same_bits(_logsumexp(x, axis=1), logsumexp(x, axis=1))
