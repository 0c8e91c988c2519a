"""Benchmark definitions: parameter table, reference grid, Gaussian closed forms."""

import dataclasses
import math

import pytest

from hmmdiv import ModelBParams
from hmmdiv.cases import ALPHA_GRID, CASES, REFERENCE

from oracles import CASE8_CLOSED_FORM, gaussian_kl, gaussian_renyi


def test_case_table_complete():
    assert sorted(CASES) == list(range(1, 9))
    for theta1, theta in CASES.values():
        assert isinstance(theta1, ModelBParams)
        assert isinstance(theta, ModelBParams)
        assert dataclasses.replace(theta1) == theta1  # builds anew: its checks pass
        assert dataclasses.replace(theta) == theta
        assert theta1 != theta


def test_alpha_grid():
    assert ALPHA_GRID == (0.5, 0.8, 0.99, 0.999, "kl", 1.001, 1.01, 1.5, 2.0)


def test_reference_grid_complete():
    assert set(REFERENCE) == set(ALPHA_GRID)
    for by_case in REFERENCE.values():
        assert sorted(by_case) == list(range(1, 9))
        for det, sim_mean, sim_sd in by_case.values():
            assert math.isfinite(det) and det > 0
            assert math.isfinite(sim_mean) and sim_mean > 0
            assert math.isfinite(sim_sd) and sim_sd > 0
            # methods were reported in agreement to within a few sd
            assert abs(det - sim_mean) <= 4 * sim_sd


def test_case8_is_static_gaussian_pair():
    theta1, theta = CASES[8]
    # both chains emit N(mu, sigma^2) regardless of state or history
    assert theta1.mu[0] == theta1.mu[1] and theta.mu[0] == theta.mu[1]
    assert theta1.phi == theta.phi == 0.0
    assert theta1.psi2 == theta.psi2 == 0.0


def test_gaussian_kl_identity():
    assert gaussian_kl(0.3, 1.2, 0.3, 1.2) == 0.0


def test_gaussian_kl_example():
    # mean shift only, unit variances: half the squared distance
    assert math.isclose(gaussian_kl(2.0, 1.0, 0.0, 1.0), 2.0, abs_tol=1e-12)


def test_gaussian_renyi_limits_to_kl():
    args = (2.0, 0.9, 1.0, 1.0)
    kl = gaussian_kl(*args)
    assert math.isclose(gaussian_renyi(*args, 1.0 + 1e-9), kl, abs_tol=1e-6)
    assert math.isclose(gaussian_renyi(*args, 1.0 - 1e-9), kl, abs_tol=1e-6)


def test_gaussian_renyi_monotone_in_alpha():
    args = (2.0, 0.9, 1.0, 1.0)
    vals = [gaussian_renyi(*args, a) for a in (0.5, 0.8, 0.99, 1.001, 1.5, 2.0)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_case8_closed_form_values():
    # the table constants carry about five significant figures
    theta1, theta = CASES[8]
    args = (theta1.mu[0], theta1.sigma, theta.mu[0], theta.sigma)
    assert math.isclose(gaussian_kl(*args), CASE8_CLOSED_FORM["kl"], abs_tol=5e-5)
    assert math.isclose(gaussian_renyi(*args, 0.5), CASE8_CLOSED_FORM[0.5], abs_tol=5e-5)
    assert math.isclose(gaussian_renyi(*args, 2.0), CASE8_CLOSED_FORM[2.0], abs_tol=5e-5)


def test_gaussian_renyi_rejects_collapsed_mixture():
    # alpha large enough that the alpha-mixed variance goes nonpositive
    with pytest.raises(ValueError):
        gaussian_renyi(0.0, 1.0, 0.0, 0.1, 10.0)
