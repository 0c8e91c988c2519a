"""Simulation engine: estimator construction, identities, reference cells."""

import math

import numpy as np
import pytest

from hmmdiv import (
    DegenerateInputError,
    DivergenceEstimate,
    McConfig,
    ModelAParams,
    ModelBParams,
    as_chain,
    estimate_kl_mc,
    estimate_renyi_mc,
)
from hmmdiv.cases import CASES, REFERENCE, gaussian_kl, gaussian_renyi
from hmmdiv.forward import batch_log_normalizers
from hmmdiv.models import mix_seed, sample_paths
from hmmdiv.montecarlo import estimate_from_log_ratios, replication_log_ratios

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


def test_identity_is_exact_zero():
    for alpha in (0.5, 1.001, 2.0):
        est = estimate_renyi_mc(CASE1_GEN, CASE1_GEN, alpha, FAST)
        assert est.mean == 0.0 and est.std_dev == 0.0
    est = estimate_kl_mc(CASE1_GEN, CASE1_GEN, FAST)
    assert est.mean == 0.0 and est.std_dev == 0.0


def test_identity_ratios_bitwise_zero():
    rho = replication_log_ratios(CASE1_GEN, CASE1_GEN, FAST)
    assert rho.shape == (FAST.reps, FAST.n)
    assert np.all(rho == 0.0)


def test_kl_branch_agrees_with_explicit_kl():
    for a in (1.0 - 1e-9, 1.0 + 1e-9):
        renyi = estimate_renyi_mc(CASE1_GEN, CASE1_ALT, a, FAST)
        kl = estimate_kl_mc(CASE1_GEN, CASE1_ALT, FAST)
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
    assert est.method == "monte-carlo"
    assert est.std_dev >= 0.0


def test_std_error_is_sd_over_root_reps():
    assert DivergenceEstimate(alpha=0.5, mean=0.1, std_dev=0.4, reps=16).std_error == 0.1
    assert DivergenceEstimate(alpha=0.5, mean=0.1, std_dev=0.3, reps=1).std_error == 0.0
    est = estimate_renyi_mc(CASE1_GEN, CASE1_ALT, 0.5, FAST)
    assert est.std_error == est.std_dev / math.sqrt(FAST.reps) > 0.0


def test_kl_alpha_encoded_as_one():
    est = estimate_kl_mc(CASE1_GEN, CASE1_ALT, FAST)
    assert est.alpha == 1.0


def test_aggregation_from_shared_ratios_matches_direct_calls():
    rho = replication_log_ratios(CASE1_GEN, CASE1_ALT, FAST)
    for alpha in (0.5, 2.0):
        direct = estimate_renyi_mc(CASE1_GEN, CASE1_ALT, alpha, FAST)
        shared = estimate_from_log_ratios(rho, alpha)
        assert direct.mean == shared.mean and direct.std_dev == shared.std_dev
    kl_direct = estimate_kl_mc(CASE1_GEN, CASE1_ALT, FAST)
    kl_shared = estimate_from_log_ratios(rho, 1.0)
    assert kl_direct.mean == kl_shared.mean


def test_alpha_must_be_positive():
    for alpha in (-0.5, 0.0, math.inf, math.nan, "q", None, True):
        with pytest.raises(ValueError):
            estimate_renyi_mc(CASE1_GEN, CASE1_ALT, alpha, FAST)
    # "kl" and orders within 1e-8 of 1 are the KL limit
    kl = estimate_kl_mc(CASE1_GEN, CASE1_ALT, FAST)
    for alpha in ("KL", 1.0 + 1e-9):
        est = estimate_renyi_mc(CASE1_GEN, CASE1_ALT, alpha, FAST)
        assert est.alpha == 1.0 and est.mean == kl.mean


def test_degenerate_filter_reports_replication():
    # an alternative with an absurd emission scale underflows the filter
    bad = iid_model(0.0, 1e-160)
    with np.errstate(over="ignore"), pytest.raises(DegenerateInputError) as err:
        estimate_kl_mc(CASE1_GEN, bad, FAST)
    assert "replication" in str(err.value)


FAMILY_A_GEN = ModelAParams(0.6, 0.7, (0.5, -0.5), (0.2, -0.1), (1.0, 1.4))


@pytest.mark.parametrize("p, q", [(CASE1_GEN, CASE1_ALT), (FAMILY_A_GEN, CASE1_ALT),
                                  (CASE1_GEN, FAMILY_A_GEN)])
def test_log_ratios_are_one_chain_filter_differences(p, q):
    # equal d runs both filters in one loop, unequal d (a family-A model
    # against a family-B one) one call per chain; either way the rows are
    # the difference of the one-chain filters, bit for bit
    rho = replication_log_ratios(p, q, FAST)
    seeds = [mix_seed(FAST.seed, r) for r in range(FAST.reps)]
    y, y_prev, _ = sample_paths(as_chain(p), seeds, FAST.n, FAST.burn_in)
    want = (batch_log_normalizers([as_chain(p)], y, y_prev)[0]
            - batch_log_normalizers([as_chain(q)], y, y_prev)[0])
    assert rho.flags.c_contiguous and np.array_equal(rho, want)


def test_iid_closed_form_oracle():
    # degenerate pairs reduce to i.i.d. Gaussians with known divergences
    p, q = iid_model(2.0, 0.9), iid_model(1.0, 1.0)
    cfg = McConfig(n=2000, reps=100, seed=0)
    rho = replication_log_ratios(p, q, cfg)
    for alpha in (0.5, 2.0):
        est = estimate_from_log_ratios(rho, alpha)
        want = gaussian_renyi(2.0, 0.9, 1.0, 1.0, alpha)
        se = est.std_dev / math.sqrt(cfg.reps)
        assert abs(est.mean - want) <= 3 * se
    est = estimate_from_log_ratios(rho, 1.0)
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
