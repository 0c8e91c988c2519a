"""Likelihood engines: normalized filter, matrix product, path-sum oracle."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hmmdiv import (
    DegenerateInputError,
    LinearGaussianChain,
    ModelAParams,
    ModelBParams,
    as_chain,
    log_likelihood,
    per_step_log_ratios,
    sample_path,
)
from hmmdiv.cases import CASES
from hmmdiv.forward import (
    _UNDERFLOW,
    _fill_emission_pdfs,
    _path_log_normalizers,
    batch_log_normalizers,
)
from hmmdiv.models import _TIME_BLOCK, mix_seed, sample_paths

from oracles import (
    FAMILY_A_PAIR,
    brute_force_log_likelihood,
    emission_log_pdf,
    matrix_log_likelihood,
)

CASE1_GEN, CASE1_ALT = CASES[1]


def chain_with_pdf_values(values, at_y=0.0):
    """A 1-step chain whose emission pdfs at y=at_y equal `values` exactly:
    center every state at at_y and set the scale to 1/(value*sqrt(2pi))."""
    values = np.asarray(values, dtype=float)
    d = values.size
    return LinearGaussianChain(
        pi=np.full(d, 1.0 / d),
        transition=np.full((d, d), 1.0 / d),
        c=np.full(d, at_y),
        b=np.zeros(d),
        s=1.0 / (values * math.sqrt(2.0 * math.pi)),
    )


def iid_model(mu, sigma):
    return ModelBParams(p01=0.4, p10=0.6, mu=(mu, mu), phi=0.0, psi1=1.0,
                        psi2=0.0, sigma=sigma)


def random_model(rng, family):
    if family == "A":
        return ModelAParams(
            p00=rng.uniform(0.1, 0.9),
            p11=rng.uniform(0.1, 0.9),
            mu=(rng.uniform(-2, 2), rng.uniform(-2, 2)),
            psi=(rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8)),
            sigma=(rng.uniform(0.4, 2.5), rng.uniform(0.4, 2.5)),
        )
    return ModelBParams(
        p01=rng.uniform(0.1, 0.9),
        p10=rng.uniform(0.1, 0.9),
        mu=(rng.uniform(-2, 2), rng.uniform(-2, 2)),
        phi=rng.uniform(-0.8, 0.8),
        psi1=rng.uniform(-1.2, 1.2),
        psi2=rng.uniform(-1.2, 1.2),
        sigma=rng.uniform(0.4, 2.5),
    )


def matrix_prefix_log_normalizers(m, y, y_prev=0.0):
    """Per-step log normalizers of one path from the matrix-product route:
    differences of its log likelihoods of the prefixes y[:1], y[:2], ..."""
    prefixes = [matrix_log_likelihood(m, y[:t + 1], y_prev) for t in range(len(y))]
    return np.diff(prefixes, prepend=0.0)


def filter_paths(chains, y, y_prev, paths=None, ends=None, carry=None):
    """The block filter over whole path sets: y of shape (sets, reps, n)
    and y_prev of shape (sets, reps), or one set as (reps, n) and (reps,),
    fed as time-major blocks ending at the steps `ends` (every _TIME_BLOCK
    steps by default) with one carry. Chain i reads set paths[i], by
    default set 0 of one set and set i of several. Returns the (k, reps, n)
    normalizers; an underflow is left in carry["dead_at"]."""
    y, y_prev = np.asarray(y, dtype=float), np.asarray(y_prev, dtype=float)
    if y.ndim == 2:
        y, y_prev = y[None], y_prev[None]
    if paths is None:
        paths = [0] * len(chains) if len(y) == 1 else range(len(chains))
    n = y.shape[-1]
    if ends is None:
        ends = range(_TIME_BLOCK, n + _TIME_BLOCK, _TIME_BLOCK)
    blocks = np.moveaxis(np.concatenate((y_prev[..., None], y), axis=-1), -1, 0)
    carry = {} if carry is None else carry
    pieces, t0 = [], 0
    for t1 in ends:
        pieces.append(batch_log_normalizers(chains, blocks[t0:t1 + 1], list(paths), carry))
        t0 = t1
    return np.concatenate(pieces, axis=-1)


def filter_log_normalizers(m, y, y_prev=0.0):
    return filter_paths([as_chain(m)], [y], [y_prev])[0, 0]


# --- initialization -----------------------------------------------------------


def test_forward_init_equal_emissions_returns_pi():
    # every pair state emits alike, so the first step keeps the weights at
    # pi and the second normalizer is that common density too
    m = iid_model(1.0, 1.0)
    y = np.array([0.3, -0.2])
    common = emission_log_pdf(as_chain(m), y, [0.0, 0.3])[:, 0]
    np.testing.assert_allclose(filter_log_normalizers(m, y), common, atol=1e-14)


def test_forward_init_hand_case():
    chain = chain_with_pdf_values([0.3, 0.1])
    assert math.isclose(log_likelihood(chain, np.array([0.0])), math.log(0.2),
                        abs_tol=1e-12)
    assert math.isclose(matrix_log_likelihood(chain, np.array([0.0])), math.log(0.2),
                        abs_tol=1e-12)


def test_forward_init_matches_oracle_on_length_one():
    y1 = 0.7
    got = log_likelihood(CASE1_GEN, np.array([y1]))
    want = brute_force_log_likelihood(CASE1_GEN, np.array([y1]))
    assert abs(got - want) <= 1e-12


# --- stepping -----------------------------------------------------------------


def test_forward_step_hand_case():
    # states centred at -1 and 1 emit alike at y1 = 0, so the weights after
    # step 1 stay at pi = (0.75, 0.25) and step 2 predicts
    # (0.75, 0.25) @ P = (0.65, 0.35) before weighing y2 = 1
    chain = LinearGaussianChain(
        pi=np.array([0.75, 0.25]),
        transition=np.array([[0.8, 0.2], [0.2, 0.8]]),
        c=np.array([-1.0, 1.0]),
        b=np.zeros(2),
        s=np.ones(2),
    )

    def pdf(z):
        return math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)

    want = [math.log(pdf(1.0)), math.log(0.65 * pdf(2.0) + 0.35 * pdf(0.0))]
    y = np.array([0.0, 1.0])
    np.testing.assert_allclose(filter_log_normalizers(chain, y), want, atol=1e-12)
    np.testing.assert_allclose(matrix_prefix_log_normalizers(chain, y), want, atol=1e-12)


def test_forward_step_deterministic():
    path = sample_path(CASE1_GEN, 20, seed=1)
    first = filter_log_normalizers(CASE1_GEN, path.y, path.y_prev)
    again = filter_log_normalizers(CASE1_GEN, path.y, path.y_prev)
    assert np.array_equal(first, again)


@given(st.integers(0, 2 ** 31), st.integers(2, 25))
@settings(max_examples=40)
def test_forward_weights_stay_normalized(seed, n):
    # a filter whose weights drifted off the simplex would price every later
    # step by that drift; the matrix route rescales by the max instead
    rng = np.random.default_rng(seed)
    m = random_model(rng, "B")
    path = sample_path(m, n, burn_in=5, seed=seed)
    got = filter_log_normalizers(m, path.y, path.y_prev)
    want = matrix_prefix_log_normalizers(m, path.y, path.y_prev)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


# --- full-sequence likelihoods --------------------------------------------------


def test_log_likelihood_length_one():
    chain = as_chain(CASE1_GEN)
    y1 = -0.4
    want = math.log(float((chain.pi * np.exp(emission_log_pdf(chain, y1, 0.0))).sum()))
    assert abs(log_likelihood(CASE1_GEN, np.array([y1])) - want) <= 1e-12


def test_log_likelihood_matches_path_sum():
    rng = np.random.default_rng(7)
    m = random_model(rng, "B")
    y = rng.normal(size=6)
    assert abs(log_likelihood(m, y) - brute_force_log_likelihood(m, y)) <= 1e-9


def test_log_likelihood_iid_reduction():
    m = iid_model(0.7, 1.3)
    rng = np.random.default_rng(8)
    y = rng.normal(0.7, 1.3, size=200)
    want = sum(
        -0.5 * ((v - 0.7) / 1.3) ** 2 - math.log(1.3 * math.sqrt(2 * math.pi))
        for v in y
    )
    assert abs(log_likelihood(m, y) - want) <= 1e-9


def test_log_likelihood_long_sequence_finite():
    # the eight generating chains' 100,000-step paths in one sampler call,
    # and both models of every case filtered together over them, block by
    # block, as the simulation engine runs them; each row's sum is that
    # model's log likelihood
    pairs = list(CASES.values())
    y, y_prev, _ = sample_paths([as_chain(t1) for t1, _ in pairs], [13], 100000, 100)
    assert np.array_equal(y[0, 0], sample_path(pairs[0][0], 100000, seed=13).y)
    chains = [as_chain(m) for pair in pairs for m in pair]
    paths = [i // 2 for i in range(len(chains))]
    log_s = filter_paths(chains, y, y_prev, paths)
    assert log_s.shape == (16, 1, 100000)
    assert np.all(np.isfinite(log_s[:, 0].sum(axis=1)))


def test_underflow_raises_degenerate_error():
    # emission scale so small that every state's density underflows
    m = iid_model(0.0, 1e-160)
    with np.errstate(over="ignore"), pytest.raises(DegenerateInputError):
        log_likelihood(m, np.array([50.0]))


def test_matrix_route_underflow_names_the_step():
    # the first observation is at the emission's center; the second is
    # 5e161 scales away, where every state's density is 0
    m = iid_model(0.0, 1e-160)
    with np.errstate(over="ignore"), pytest.raises(DegenerateInputError,
                                                   match="underflowed at step 2"):
        matrix_log_likelihood(m, np.array([0.0, 50.0]))


# --- per-step ratios -------------------------------------------------------------


def test_ratios_zero_for_identical_models():
    path = sample_path(CASE1_GEN, 300, seed=2)
    r = per_step_log_ratios(CASE1_GEN, CASE1_GEN, path.y, path.y_prev)
    assert np.all(r == 0.0)


def test_ratio_partial_sums_match_likelihood_difference():
    path = sample_path(CASE1_GEN, 400, seed=21)
    r = per_step_log_ratios(CASE1_GEN, CASE1_ALT, path.y, path.y_prev)
    diff = log_likelihood(CASE1_GEN, path.y, path.y_prev) - log_likelihood(
        CASE1_ALT, path.y, path.y_prev
    )
    assert abs(r.sum() - diff) <= 1e-12


def test_ratios_iid_reduction():
    p, q = iid_model(0.5, 1.0), iid_model(-0.2, 1.5)
    rng = np.random.default_rng(3)
    y = rng.normal(0.5, 1.0, size=100)

    def logpdf(v, mu, sd):
        return -0.5 * ((v - mu) / sd) ** 2 - math.log(sd * math.sqrt(2 * math.pi))

    want = logpdf(y, 0.5, 1.0) - logpdf(y, -0.2, 1.5)
    got = per_step_log_ratios(p, q, y)
    np.testing.assert_allclose(got, want, atol=1e-10)


# --- path-sum oracle ----------------------------------------------------------


def test_brute_force_hand_expansion():
    m = CASE1_GEN
    chain = as_chain(m)
    y = np.array([0.9])
    want = math.log(
        sum(
            chain.pi[z] * float(np.exp(emission_log_pdf(chain, 0.9, 0.0))[z])
            for z in range(chain.d)
        )
    )
    assert abs(brute_force_log_likelihood(m, y) - want) <= 1e-12


def test_brute_force_single_state_chain():
    chain = LinearGaussianChain(
        pi=np.array([1.0]),
        transition=np.array([[1.0]]),
        c=np.array([0.3]),
        b=np.array([0.5]),
        s=np.array([1.1]),
    )
    y = np.array([0.2, -0.4, 1.0])
    want = 0.0
    prev = 0.0
    for v in y:
        z = (v - 0.3 - 0.5 * prev) / 1.1
        want += -0.5 * z * z - math.log(1.1 * math.sqrt(2 * math.pi))
        prev = v
    assert abs(brute_force_log_likelihood(chain, y) - want) <= 1e-12


def test_all_routes_agree_on_an_empty_path():
    # the likelihood of no observations is the empty product, 1
    for m in (CASE1_GEN, as_chain(CASE1_ALT), FAMILY_A_PAIR[0]):
        for route in (log_likelihood, matrix_log_likelihood, brute_force_log_likelihood):
            assert route(m, np.array([]), 0.4) == 0.0, route.__name__


@pytest.mark.parametrize("route", [log_likelihood, matrix_log_likelihood,
                                   brute_force_log_likelihood, per_step_log_ratios])
@pytest.mark.parametrize("y, y_prev, message", [
    (np.zeros((2, 3)), 0.0, r"1-D, got shape \(2, 3\)"),
    (np.array([0.1, math.nan]), 0.0, r"finite, got y\[1\] = nan"),
    (np.array([math.inf, 0.2]), 0.0, r"finite, got y\[0\] = inf"),
    (np.array([0.1]), math.nan, "y_prev must be finite"),
    (np.array([0.1]), -math.inf, "y_prev must be finite"),
])
def test_likelihood_routes_reject_bad_observations(route, y, y_prev, message):
    # a 2-D y read as its first row, a nan likelihood and an "underflow"
    # at an infinite observation were each a plausible wrong answer
    models = (CASE1_GEN, CASE1_ALT) if route is per_step_log_ratios else (CASE1_GEN,)
    with pytest.raises(ValueError, match=message):
        route(*models, y, y_prev)


def test_brute_force_rejects_huge_path_counts():
    y = np.zeros(12)
    with pytest.raises(ValueError):
        brute_force_log_likelihood(CASE1_GEN, y)  # 4^13 paths


# --- matrix-product route --------------------------------------------------------


def test_matrix_route_base_case():
    y1 = 1.2
    got = matrix_log_likelihood(CASE1_GEN, np.array([y1]))
    want = log_likelihood(CASE1_GEN, np.array([y1]))
    assert abs(got - want) <= 1e-12


def test_matrix_route_medium_sequence():
    path = sample_path(CASE1_GEN, 50, seed=4)
    got = matrix_log_likelihood(CASE1_GEN, path.y, path.y_prev)
    want = log_likelihood(CASE1_GEN, path.y, path.y_prev)
    assert abs(got - want) <= 1e-9


def test_matrix_route_matches_oracle():
    rng = np.random.default_rng(5)
    m = random_model(rng, "A")
    y = rng.normal(size=6)
    assert abs(matrix_log_likelihood(m, y) - brute_force_log_likelihood(m, y)) <= 1e-9


# --- batch filter ----------------------------------------------------------------


def test_batch_normalizers_match_scalar_filter():
    # reference: the matrix-product route over every prefix of each path;
    # its log-likelihood increments are the per-step log normalizers
    rng = np.random.default_rng(6)
    chain = as_chain(CASE1_GEN)
    y = rng.normal(1.5, 1.2, size=(5, 60))
    y_prev = rng.normal(size=5)
    batch = filter_paths([chain], y, y_prev)[0]
    assert batch.shape == (5, 60)
    for r in range(5):
        steps = matrix_prefix_log_normalizers(chain, y[r], float(y_prev[r]))
        np.testing.assert_allclose(batch[r], steps, rtol=1e-12, atol=1e-12)


def step_loop_log_normalizers(chain, y, y_prev):
    """The batch filter one time step at a time, every operation per step:
    the reference that the blocked filter must match bit for bit."""
    reps, n = y.shape
    p = chain.transition
    w = np.broadcast_to(chain.pi, (reps, chain.d)).copy()
    prev = np.asarray(y_prev, dtype=float).copy()
    out = np.empty((reps, n))
    for t in range(n):
        base = w if t == 0 else w @ p
        unnorm = base * np.exp(emission_log_pdf(chain, y[:, t], prev))
        s = unnorm.sum(axis=1)
        if np.any(np.all(unnorm < _UNDERFLOW, axis=1)):
            raise DegenerateInputError(
                f"all forward weights underflowed at step {t + 1} in a batch path"
            )
        out[:, t] = np.log(s)
        w = unnorm / s[:, None]
        prev = y[:, t]
    return out


def shared_emission_pair(kind):
    """A model pair in which states of one or both chain forms share an
    emission, so the filter computes their densities once and copies them."""
    rng = np.random.default_rng(33)
    if kind == "A-equal":  # family A with one emission for both states
        return (ModelAParams(0.7, 0.6, (0.4, 0.4), (0.3, 0.3), (1.2, 1.2)),
                ModelAParams(0.55, 0.8, (-0.2, -0.2), (0.1, 0.1), (0.9, 0.9)))
    gen = dataclasses.replace(random_model(rng, "B"), psi2=0.0)
    alt = random_model(rng, "B")
    # psi2 = 0: the pair states (0, j) and (1, j) emit alike, 2 emissions over 4 states
    return gen, (dataclasses.replace(alt, psi2=0.0) if kind == "B-psi2-0" else alt)


@pytest.mark.parametrize("family", ["A", "B", "A-equal", "B-psi2-0", "B-one-shares"])
@pytest.mark.parametrize("reps", [1, 6])
def test_blocked_filter_matches_step_loop_bitwise(family, reps):
    # two full time blocks and a partial third; d = 2 (A) and d = 4 (B)
    rng = np.random.default_rng(31)
    if family in ("A", "B"):
        gen, alt = random_model(rng, family), random_model(rng, family)
    else:
        gen, alt = shared_emission_pair(family)
    n = 2 * _TIME_BLOCK + 3
    y, y_prev, _ = sample_paths([as_chain(gen)], [mix_seed(5, r) for r in range(reps)],
                                n, 20)
    y, y_prev = y[0], y_prev[0]
    # both filters in one call per block (as the simulation engine runs
    # them) and each alone must give the step loop's rows
    chains = [as_chain(gen), as_chain(alt)]
    stacked = filter_paths(chains, y, y_prev)
    assert stacked.shape == (2, reps, n)
    for i, chain in enumerate(chains):
        want = step_loop_log_normalizers(chain, y, y_prev)
        assert np.array_equal(filter_paths([chain], y, y_prev)[0], want)
        assert np.array_equal(stacked[i], want)
        # the likelihoods' whole-path collector, C-ordered as their sums need
        one = _path_log_normalizers(chain, y[0], y_prev[0])
        assert one.flags.c_contiguous and np.array_equal(one, want[0])


@pytest.mark.parametrize("m, distinct", [
    (CASE1_GEN, 2),  # psi2 = 0: (0, j) and (1, j) emit alike
    (CASES[8][0], 1),  # equal means: every pair state emits alike
    (CASES[7][0], 4),  # psi2 != 0
    (shared_emission_pair("A-equal")[0], 1),
])
def test_emission_densities_filled_once_per_distinct_emission(m, distinct):
    # the filter's in-place fill gives exp(emission_log_pdf)'s bits, for
    # the states that share an emission too
    chain = as_chain(m)
    assert len(set(chain.emission_reps())) == distinct
    y, y_prev = np.random.default_rng(36).normal(1.0, 1.5, size=(2, 40, 7))
    got = np.empty((40, chain.d, 7))
    _fill_emission_pdfs(chain, y, y_prev, got, np.empty((40, 7)))
    want = np.exp(emission_log_pdf(chain, y, y_prev)).transpose(0, 2, 1)
    assert np.array_equal(got, want)


def test_filter_in_pieces_over_own_paths_matches_one_call():
    # each chain filters its own path set, fed in blocks that do not align
    # with the time blocks: with a carry, they give the time blocks' values
    # bit for bit, and an underflow is recorded, not raised
    rng = np.random.default_rng(37)
    chains = [as_chain(random_model(rng, "B")) for _ in range(3)]
    n = 3 * _TIME_BLOCK + 5
    sets = rng.normal(1.0, 1.5, size=(2, 4, n))
    prev = rng.normal(size=(2, 4))
    paths = [1, 0, 1]
    whole = filter_paths(chains, sets, prev, paths)
    for i, chain in enumerate(chains):
        alone = filter_paths([chain], sets[paths[i]], prev[paths[i]])
        assert np.array_equal(whole[i], alone[0])
    carry = {}
    pieces = filter_paths(chains, sets, prev, paths, (7, _TIME_BLOCK + 9, n), carry)
    assert np.array_equal(pieces, whole)
    assert carry["dead_at"] == {} and carry["steps"] == n
    dead = sets.copy()
    dead[0, 2, _TIME_BLOCK + 3] = 1e4  # chain 1 reads set 0; dies at this step
    for ends in (range(20, n + 20, 20), None):
        carry = {}
        filter_paths(chains, dead, prev, paths, ends, carry)
        assert carry["dead_at"] == {1: (_TIME_BLOCK + 4, 2)}


def test_uneven_blocks_give_the_bits_of_time_blocks():
    # the block length is the caller's: blocks of 1, 5 and 40 steps, then
    # the rest, give the values of _TIME_BLOCK-step blocks, for a stack of
    # four-state chains and a two-state chain alone
    rng = np.random.default_rng(38)
    n = 3 * _TIME_BLOCK + 11
    for family in ("A", "B"):
        gen, alt = random_model(rng, family), random_model(rng, family)
        chains = [as_chain(gen), as_chain(alt)] if family == "B" else [as_chain(gen)]
        y, y_prev, _ = sample_paths([as_chain(gen)], [mix_seed(6, r) for r in range(5)], n, 10)
        want = filter_paths(chains, y[0], y_prev[0])
        carry = {}
        got = filter_paths(chains, y[0], y_prev[0], ends=(1, 6, 46, n), carry=carry)
        assert np.array_equal(got, want)
        assert carry["steps"] == n and carry["dead_at"] == {}


def random_chain(rng, d, scale=(0.4, 2.5)):
    """A chain of d states with random positive masses and emission
    standard deviations drawn from `scale`."""
    pi, transition = rng.uniform(0.05, 1.0, size=d), rng.uniform(0.05, 1.0, size=(d, d))
    return LinearGaussianChain(pi=pi / pi.sum(),
                               transition=transition / transition.sum(axis=1, keepdims=True),
                               c=rng.uniform(-2, 2, d), b=rng.uniform(-0.8, 0.8, d),
                               s=rng.uniform(*scale, size=d))


def test_stacked_filters_of_any_state_counts_match_their_solo_calls():
    # chains of 1 to 10 states, each count twice, four per call over two
    # path sets and blocks that do not align with the time blocks: every
    # chain is padded to its stack's widest and, over several paths, gives
    # its one-chain call's values bit for bit; over one path, the padded
    # vector-matrix product agrees with it to rounding
    rng = np.random.default_rng(34)
    n = 2 * _TIME_BLOCK + 7
    ends = (7, _TIME_BLOCK + 9, n)
    counts = rng.permutation(np.tile(np.arange(1, 11), 2)).reshape(5, 4)
    for reps in (4, 1):
        sets = rng.normal(0.5, 1.5, size=(2, reps, n))
        prev = rng.normal(size=(2, reps))
        for stack in counts:
            chains = [random_chain(rng, int(d)) for d in stack]
            paths = [int(p) for p in rng.integers(0, 2, size=len(chains))]
            carry = {}
            stacked = filter_paths(chains, sets, prev, paths, ends, carry)
            assert carry["steps"] == n and carry["dead_at"] == {}
            for i, chain in enumerate(chains):
                alone = filter_paths([chain], sets[paths[i]], prev[paths[i]], ends=ends)[0]
                if reps > 1:
                    assert np.array_equal(stacked[i], alone)
                else:
                    np.testing.assert_allclose(stacked[i], alone, rtol=1e-13, atol=1e-13)
    # a padded chain that underflows records its solo call's step and path,
    # and the chains beside it, wider and narrower, keep their values
    narrow = as_chain(iid_model(0.0, 0.5))  # 4 states
    chains = [random_chain(rng, 10, (50.0, 100.0)), narrow, random_chain(rng, 1, (50.0, 100.0))]
    y = rng.normal(scale=0.5, size=(3, n))
    step = _TIME_BLOCK + 4
    y[2, step - 1] = 1e3  # the narrow chain's densities underflow to 0 here
    carry = {}
    stacked = filter_paths(chains, y, np.zeros(3), ends=ends, carry=carry)
    alone = {}
    filter_paths([narrow], y, np.zeros(3), ends=ends, carry=alone)
    assert carry["dead_at"] == {1: (step, 2)} and alone["dead_at"] == {0: (step, 2)}
    for i in (0, 2):
        assert np.array_equal(stacked[i], filter_paths([chains[i]], y, np.zeros(3), ends=ends)[0])


def test_blocked_filter_underflow_names_the_reference_step():
    chain = as_chain(iid_model(0.0, 0.5))
    n = 2 * _TIME_BLOCK + 3
    y = np.random.default_rng(32).normal(scale=0.5, size=(3, n))
    step = _TIME_BLOCK + 6  # inside the second block
    y[1, step - 1] = 1e3  # every state's density underflows to 0 here
    with pytest.raises(DegenerateInputError, match=f"at step {step} in"):
        step_loop_log_normalizers(chain, y, np.zeros(3))
    carry = {}
    filter_paths([chain], y, np.zeros(3), carry=carry)
    assert carry["dead_at"] == {0: (step, 1)}
    with pytest.raises(DegenerateInputError, match=f"at step {step} in batch path 0"):
        log_likelihood(chain, y[1])


def test_stacked_filters_report_the_first_chain_that_underflows():
    # the narrow chain dies at a 1e3 spike in the first block, the wide one
    # only at a 1e5 spike in the third; the stack records each dead chain's
    # first dead step and path, as a one-chain filter records its own, and
    # the one-path likelihood raises at that step
    narrow, wide = as_chain(iid_model(0.0, 0.5)), as_chain(iid_model(0.0, 100.0))
    n = 2 * _TIME_BLOCK + 3
    y = np.random.default_rng(35).normal(scale=0.5, size=(3, n))
    early, late = 7, 2 * _TIME_BLOCK + 2
    y[1, early - 1] = 1e3
    only_narrow = y.copy()
    y[2, late - 1] = 1e5
    cases = [((wide, narrow), y, {0: (late, 2), 1: (early, 1)}),
             ((narrow, wide), y, {0: (early, 1), 1: (late, 2)}),
             ((wide, narrow), only_narrow, {1: (early, 1)}),
             ((narrow, narrow), y, {0: (early, 1), 1: (early, 1)})]
    for chains, data, want in cases:
        carry = {}
        filter_paths(chains, data, np.zeros(3), carry=carry)
        assert carry["dead_at"] == want
        for i, chain in enumerate(chains):
            alone = {}
            filter_paths([chain], data, np.zeros(3), carry=alone)
            assert alone["dead_at"] == ({0: want[i]} if i in want else {})
    for chain, path, step in ((narrow, 1, early), (wide, 2, late)):
        with pytest.raises(DegenerateInputError, match=f"at step {step} in batch path 0"):
            log_likelihood(chain, y[path])


def test_four_state_reduces_to_two_state_when_memoryless():
    # psi2 = 0 makes the emission depend on the current regime only, so the
    # lifted four-state filter must price data exactly like the two-state one
    m = ModelBParams(p01=0.3, p10=0.55, mu=(1.0, -0.5), phi=0.4, psi1=0.9,
                     psi2=0.0, sigma=1.1)
    two_state = LinearGaussianChain(
        pi=np.array([0.55, 0.3]) / 0.85,
        transition=np.array([[0.7, 0.3], [0.55, 0.45]]),
        c=0.9 * np.array([1.0, -0.5]),
        b=np.array([0.4, 0.4]),
        s=np.array([1.1, 1.1]),
    )
    path = sample_path(m, 300, seed=17)
    four = log_likelihood(m, path.y, path.y_prev)
    two = log_likelihood(two_state, path.y, path.y_prev)
    assert abs(four - two) <= 1e-10


# --- oracle equivalence (module-scale sample) -------------------------------------


def test_three_routes_agree_on_random_instances():
    rng = np.random.default_rng(123)
    for _ in range(40):
        family = "A" if rng.random() < 0.5 else "B"
        m = random_model(rng, family)
        n = int(rng.integers(1, 9 if family == "A" else 6))
        y = rng.normal(scale=1.5, size=n)
        y0 = float(rng.normal())
        bf = brute_force_log_likelihood(m, y, y0)
        assert abs(log_likelihood(m, y, y0) - bf) <= 1e-9
        assert abs(matrix_log_likelihood(m, y, y0) - bf) <= 1e-9
