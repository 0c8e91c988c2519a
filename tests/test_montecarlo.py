"""Simulation engine: estimator construction, identities, reference cells."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import logsumexp

from hmmdiv import (
    DegenerateInputError,
    DivergenceEstimate,
    McConfig,
    ModelBParams,
    as_chain,
    estimate_renyi_mc,
    per_step_log_ratios,
)
from hmmdiv.cases import ALPHA_GRID, CASES, REFERENCE
from hmmdiv.models import mix_seed, renyi_order, sample_paths
from hmmdiv.montecarlo import estimate_from_log_ratios, replication_log_ratios

from oracles import FAMILY_A_PAIR, gaussian_kl, gaussian_renyi

CASE1_GEN, CASE1_ALT = CASES[1]
FAST = McConfig(n=200, reps=5, burn_in=20, seed=3)


def iid_model(mu, sigma):
    return ModelBParams(p01=0.4, p10=0.6, mu=(mu, mu), phi=0.0, psi1=1.0,
                        psi2=0.0, sigma=sigma)


def test_config_validation():
    with pytest.raises(ValueError):
        McConfig(n=0)
    with pytest.raises(ValueError):
        McConfig(reps=0)
    with pytest.raises(ValueError):
        McConfig(burn_in=-1)
    # counts must be integers: seed 1.5 would silently run seed 1
    for bad in (dict(seed=1.5), dict(n=200.0), dict(reps=5.5), dict(burn_in=True)):
        with pytest.raises(ValueError, match="must be an integer"):
            McConfig(**bad)
    # mix_seed reads the seed mod 2**64: seed -1 would run seed 2**64 - 1
    for bad in (-1, 2 ** 64, -2 ** 64):
        with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*64\), got"):
            McConfig(seed=bad)
    top = McConfig(n=20, reps=2, burn_in=0, seed=2 ** 64 - 1)
    assert estimate_renyi_mc(CASE1_GEN, CASE1_ALT, "kl", top) != estimate_renyi_mc(
        CASE1_GEN, CASE1_ALT, "kl", McConfig(n=20, reps=2, burn_in=0, seed=0))


def test_identity_is_exact_zero():
    for alpha in (0.5, 1.001, 2.0):
        est = estimate_renyi_mc(CASE1_GEN, CASE1_GEN, alpha, FAST)
        assert est.mean == 0.0 and est.std_dev == 0.0
    est = estimate_renyi_mc(CASE1_GEN, CASE1_GEN, "kl", FAST)
    assert est.mean == 0.0 and est.std_dev == 0.0


def test_identity_ratios_bitwise_zero():
    [rho] = replication_log_ratios([(CASE1_GEN, CASE1_GEN)], FAST)
    assert rho.shape == (FAST.reps, FAST.n)
    assert np.all(rho == 0.0)


def test_kl_branch_agrees_with_explicit_kl():
    for a in (1.0 - 1e-9, 1.0 + 1e-9):
        renyi = estimate_renyi_mc(CASE1_GEN, CASE1_ALT, a, FAST)
        kl = estimate_renyi_mc(CASE1_GEN, CASE1_ALT, "kl", FAST)
        assert abs(renyi.mean - kl.mean) <= 1e-6
        assert abs(renyi.std_dev - kl.std_dev) <= 1e-6


def test_reproducibility():
    a = estimate_renyi_mc(CASE1_GEN, CASE1_ALT, 1.5, FAST)
    b = estimate_renyi_mc(CASE1_GEN, CASE1_ALT, 1.5, FAST)
    assert a == b
    c = estimate_renyi_mc(CASE1_GEN, CASE1_ALT, 1.5,
                          McConfig(n=200, reps=5, burn_in=20, seed=4))
    assert a.mean != c.mean


def test_estimate_metadata():
    est = estimate_renyi_mc(CASE1_GEN, CASE1_ALT, 0.5, FAST)
    assert est.alpha == 0.5
    assert est.reps == FAST.reps
    assert est.std_dev >= 0.0


def test_estimate_rejects_a_negative_sd():
    with pytest.raises(ValueError, match="std_dev cannot be negative"):
        DivergenceEstimate(alpha=0.5, mean=0.1, std_dev=-1e-3, reps=4)


def test_std_error_is_sd_over_root_reps():
    assert DivergenceEstimate(alpha=0.5, mean=0.1, std_dev=0.4, reps=16).std_error == 0.1
    assert DivergenceEstimate(alpha=0.5, mean=0.1, std_dev=0.3, reps=1).std_error == 0.0
    est = estimate_renyi_mc(CASE1_GEN, CASE1_ALT, 0.5, FAST)
    assert est.std_error == est.std_dev / math.sqrt(FAST.reps) > 0.0


def test_kl_alpha_encoded_as_one():
    est = estimate_renyi_mc(CASE1_GEN, CASE1_ALT, "kl", FAST)
    assert est.alpha == 1.0


def test_aggregation_from_shared_ratios_matches_direct_calls():
    [rho] = replication_log_ratios([(CASE1_GEN, CASE1_ALT)], FAST)
    for alpha in (0.5, 2.0):
        direct = estimate_renyi_mc(CASE1_GEN, CASE1_ALT, alpha, FAST)
        shared = estimate_from_log_ratios(rho, [alpha])[0]
        assert direct.mean == shared.mean and direct.std_dev == shared.std_dev
    kl_direct = estimate_renyi_mc(CASE1_GEN, CASE1_ALT, "kl", FAST)
    kl_shared = estimate_from_log_ratios(rho, [1.0])[0]
    assert kl_direct.mean == kl_shared.mean


def test_alpha_must_be_positive():
    [rho] = replication_log_ratios([(CASE1_GEN, CASE1_ALT)], FAST)
    for alpha in (-0.5, 0.0, math.inf, math.nan, "q", None, True):
        with pytest.raises(ValueError):
            estimate_renyi_mc(CASE1_GEN, CASE1_ALT, alpha, FAST)
        with pytest.raises(ValueError):
            estimate_from_log_ratios(rho, [alpha])[0]
    # "kl" and orders within 1e-8 of 1 are the KL limit
    kl = estimate_renyi_mc(CASE1_GEN, CASE1_ALT, "kl", FAST)
    for alpha in ("KL", 1.0 + 1e-9):
        est = estimate_renyi_mc(CASE1_GEN, CASE1_ALT, alpha, FAST)
        assert est.alpha == 1.0 and est.mean == kl.mean
        assert estimate_from_log_ratios(rho, [alpha])[0] == kl


def test_log_ratios_must_be_a_nonempty_matrix():
    for shape in ((3, 0), (0, 5), (5,), (0,), (), (2, 3, 4)):
        for alpha in (0.5, "kl"):
            with pytest.raises(ValueError, match="rho must be 2-D and not empty"):
                estimate_from_log_ratios(np.zeros(shape), [alpha])[0]
    est = estimate_from_log_ratios(np.zeros((1, 1)), [0.5])[0]  # the smallest accepted
    assert est.mean == 0.0 and est.std_dev == 0.0 and est.reps == 1


def whole_array_estimate(rho, alpha):
    """One order's estimate over the whole (reps, n) array at once: the
    reference that the row-chunked pass over every order must match bit
    for bit. Returns (order, mean, sd, top term share)."""
    alpha = renyi_order(alpha)
    share = None
    if alpha == 1.0:
        stats = rho.mean(axis=1)
    else:
        scaled = (alpha - 1.0) * rho
        lse = logsumexp(scaled, axis=1)
        stats = (lse - math.log(rho.shape[1])) / (alpha - 1.0)
        share = float(np.max(np.exp(scaled.max(axis=1) - lse)))
    sd = float(stats.std(ddof=1)) if len(stats) > 1 else 0.0
    return alpha, float(stats.mean()), sd, share


def hexed(*values):
    return tuple(None if v is None else float(v).hex() for v in values)


# near-KL orders, where the statistic cancels most, repeated orders and
# "kl" among the Renyi orders
MIXED_ORDERS = (0.5, 0.999, "kl", 1.001, 2.0, 0.5, 1.0 + 1e-9, 1.5)


# reps of 1, 7 and 13 are not multiples of the row chunk
@pytest.mark.parametrize("reps", [1, 7, 13])
@pytest.mark.parametrize("n", [1, 301])
def test_estimates_equal_the_whole_array_formula(reps, n):
    rng = np.random.default_rng(100 * reps + n)
    rho = rng.normal(scale=0.4, size=(reps, n))
    rho[-1] *= 8.0  # one heavy row: a large top term share
    for ratios in (rho, np.zeros((reps, n))):
        got = estimate_from_log_ratios(ratios, MIXED_ORDERS)
        assert len(got) == len(MIXED_ORDERS)
        for est, alpha in zip(got, MIXED_ORDERS):
            order, mean, sd, share = whole_array_estimate(ratios, alpha)
            assert est.alpha == order and est.reps == reps
            assert hexed(est.mean, est.std_dev, est.top_term_share) == hexed(mean, sd, share)
        assert got[0] == got[5] and got[2] == got[6]
    # p = q gives all-zero log ratios, and every order exactly 0
    assert all(e.mean == 0.0 and e.std_dev == 0.0 for e in got)
    assert estimate_from_log_ratios(rho, []) == []


def test_estimates_hold_a_few_rows_of_scratch():
    # every order of the 9 is computed on 8 rows at a time: no (reps, n)
    # array per order (9 MB here)
    rho = np.random.default_rng(9).normal(scale=0.4, size=(100, 10000))
    tracemalloc.start()
    try:
        estimates = estimate_from_log_ratios(rho, ALPHA_GRID)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(estimates) == 9
    assert peak < 2 * 2 ** 20


def test_kl_call_is_the_kl_order():
    for p, q in ((CASE1_GEN, CASE1_ALT), CASES[7]):
        assert estimate_renyi_mc(p, q, "kl", FAST) == estimate_renyi_mc(p, q, 1.0, FAST)


def test_degenerate_filter_reports_replication():
    # an alternative with an absurd emission scale underflows the filter
    bad = iid_model(0.0, 1e-160)
    with np.errstate(over="ignore"), pytest.raises(DegenerateInputError) as err:
        estimate_renyi_mc(CASE1_GEN, bad, "kl", FAST)
    assert "replication" in str(err.value)


@pytest.mark.parametrize("p, q", [(CASE1_GEN, CASE1_ALT), (FAMILY_A_PAIR[0], CASE1_ALT),
                                  (CASE1_GEN, FAMILY_A_PAIR[0])])
def test_log_ratios_are_one_chain_filter_differences(p, q):
    # both filters run in one call per block, a family-A model's two-state
    # chain padded to four states beside a family-B one's; the rows are the
    # difference of the one-chain filters over whole paths, bit for bit
    [rho] = replication_log_ratios([(p, q)], FAST)
    seeds = [mix_seed(FAST.seed, r) for r in range(FAST.reps)]
    y, y_prev, _ = sample_paths([as_chain(p)], seeds, FAST.n, FAST.burn_in)
    want = [per_step_log_ratios(p, q, y[0, r], y_prev[0, r]) for r in range(FAST.reps)]
    assert rho.flags.c_contiguous and np.array_equal(rho, want)


def test_batch_raises_an_underflow_without_an_errors_dict():
    # with no `errors` dict the batch raises the first failed pair's error
    # once all have run; with one it returns None in that pair's place
    bad = iid_model(0.0, 1e-160)
    pairs = [(CASE1_GEN, CASE1_ALT), (CASE1_GEN, bad)]
    with np.errstate(over="ignore"):
        with pytest.raises(DegenerateInputError, match="replication"):
            replication_log_ratios(pairs, FAST)
        errors = {}
        rho = replication_log_ratios(pairs, FAST, errors=errors)
    assert list(errors) == [1] and rho[1] is None
    assert np.array_equal(rho[0], replication_log_ratios(pairs[:1], FAST)[0])


def test_a_batch_of_no_pairs_has_no_rows():
    timings = {}
    assert replication_log_ratios([], FAST, timings) == []
    assert timings == {"sample_seconds": 0.0, "filter_seconds": 0.0}


def test_iid_closed_form_oracle():
    # degenerate pairs reduce to i.i.d. Gaussians with known divergences
    p, q = iid_model(2.0, 0.9), iid_model(1.0, 1.0)
    cfg = McConfig(n=2000, reps=100, seed=0)
    [rho] = replication_log_ratios([(p, q)], cfg)
    for alpha in (0.5, 2.0):
        est = estimate_from_log_ratios(rho, [alpha])[0]
        want = gaussian_renyi(2.0, 0.9, 1.0, 1.0, alpha)
        se = est.std_dev / math.sqrt(cfg.reps)
        assert abs(est.mean - want) <= 3 * se
    est = estimate_from_log_ratios(rho, [1.0])[0]
    want = gaussian_kl(2.0, 0.9, 1.0, 1.0)
    assert abs(est.mean - want) <= 3 * est.std_dev / math.sqrt(cfg.reps)


def test_reference_cells_case1(mc_estimates):
    # simulation means land within 3 reference sd of the reference cells
    num, mean, sd = REFERENCE[0.5][1]
    assert abs(mc_estimates[(1, 0.5)].mean - mean) <= 3 * sd
    num, mean, sd = REFERENCE["kl"][1]
    assert abs(mc_estimates[(1, "kl")].mean - mean) <= 3 * sd


def test_reference_cells_case8(mc_estimates):
    num, mean, sd = REFERENCE[2.0][8]
    est = mc_estimates[(8, 2.0)]
    assert abs(est.mean - mean) <= 3 * sd
    closed = gaussian_renyi(2.0, 0.9, 1.0, 1.0, 2.0)
    assert abs(est.mean - closed) <= 3 * est.std_dev / math.sqrt(est.reps)


def test_monotone_in_alpha_on_shared_paths(mc_estimates):
    alphas = (0.5, 0.8, 0.99, 1.01, 1.5, 2.0)
    for cid in CASES:
        ests = [mc_estimates[(cid, a)] for a in alphas]
        for lo, hi in zip(ests, ests[1:]):
            pooled = math.sqrt(
                (lo.std_dev ** 2 + hi.std_dev ** 2) / lo.reps
            )
            assert hi.mean >= lo.mean - 2 * pooled


def test_replication_sds_match_reference_scale(mc_estimates):
    # the spread across replications is itself informative: it should sit
    # near the reference sd column, not at some other scale
    for cid in CASES:
        _, _, ref_sd = REFERENCE["kl"][cid]
        got = mc_estimates[(cid, "kl")].std_dev
        assert 0.5 * ref_sd <= got <= 2.0 * ref_sd
