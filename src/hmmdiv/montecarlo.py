"""Simulation estimates of Renyi and KL divergence rates.

Each replication samples a fresh path under p, runs the normalized forward
filters of both models over it (in one loop when their chain forms have the
same number of states), and turns the per-step log likelihood ratios
rho_t = log s_t(p) - log s_t(q) into one statistic:

    KL:    mean_t rho_t                      (the normalized log ratio)
    Renyi: log( mean_t exp((alpha-1) rho_t) ) / (alpha - 1)

i.e. the time average of the ratio's (alpha-1) power, aggregated in the log
domain so heavy-tailed ratios at alpha near 2 cannot overflow. The reported
value is the mean over replications and the spread is the sample standard
deviation of the replication statistics; `DivergenceEstimate.std_error`
is the standard error of the mean, sd / sqrt(reps).

Replication r uses an independent generator seeded by a splitmix64 mix of
(seed, r), so results are reproducible and independent of execution order.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .forward import DegenerateInputError, batch_log_normalizers
from .models import (
    Model,
    _logsumexp,
    as_chain,
    infinite_renyi_rate,
    mix_seed,
    renyi_order,
    sample_paths,
)


@dataclass(frozen=True)
class McConfig:
    """Simulation sizes: n observations per path (after burn_in discarded
    steps), reps independent replications."""

    n: int = 2000
    reps: int = 100
    burn_in: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be at least 1, got {self.n}")
        if self.reps < 1:
            raise ValueError(f"reps must be at least 1, got {self.reps}")
        if self.burn_in < 0:
            raise ValueError(f"burn_in must be nonnegative, got {self.burn_in}")


@dataclass(frozen=True)
class DivergenceEstimate:
    alpha: float
    mean: float
    std_dev: float
    reps: int
    method: str = "monte-carlo"

    def __post_init__(self):
        if self.std_dev < 0:
            raise ValueError("std_dev cannot be negative")

    @property
    def std_error(self) -> float:
        """Standard error of the mean, std_dev / sqrt(reps); 0 for a single
        replication, which has no spread."""
        return self.std_dev / math.sqrt(self.reps) if self.reps > 1 else 0.0


def replication_log_ratios(p: Model, q: Model, cfg: McConfig,
                           timings: dict | None = None) -> np.ndarray:
    """Per-step log likelihood ratios rho for every replication, shape
    (reps, n). Paths are sampled under p. The rows are the sole input of
    every estimator here, so callers evaluating several alpha values can
    compute them once and share them.

    When `timings` is given, the seconds spent sampling the paths and
    running the two filters are stored in it as "sample_seconds" and
    "filter_seconds".
    """
    chain_p = as_chain(p)
    chain_q = as_chain(q)
    seeds = [mix_seed(cfg.seed, r) for r in range(cfg.reps)]
    t0 = time.perf_counter()
    y, y_prev, _ = sample_paths(chain_p, seeds, cfg.n, cfg.burn_in)
    t1 = time.perf_counter()
    try:
        if chain_p.d == chain_q.d:  # both filters in one loop
            log_s = batch_log_normalizers((chain_p, chain_q), y, y_prev)
            rho = log_s[0] - log_s[1]
        else:  # a family-A model against a family-B one
            rho = (batch_log_normalizers((chain_p,), y, y_prev)[0]
                   - batch_log_normalizers((chain_q,), y, y_prev)[0])
    except DegenerateInputError as exc:
        raise DegenerateInputError(f"{exc} (replication = path index)") from exc
    if timings is not None:
        timings.update(sample_seconds=t1 - t0, filter_seconds=time.perf_counter() - t1)
    return rho


def estimate_from_log_ratios(rho: np.ndarray, alpha: float) -> DivergenceEstimate:
    """Build the estimate for one alpha from precomputed log ratios."""
    n = rho.shape[1]
    if abs(alpha - 1.0) < 1e-8:
        stats = rho.mean(axis=1)
    else:
        stats = (_logsumexp((alpha - 1.0) * rho, axis=1) - math.log(n)) / (alpha - 1.0)
    sd = float(stats.std(ddof=1)) if stats.shape[0] > 1 else 0.0
    return DivergenceEstimate(
        alpha=float(alpha), mean=float(stats.mean()), std_dev=sd, reps=rho.shape[0]
    )


def infinite_estimate(alpha: float, reps: int) -> DivergenceEstimate:
    """The estimate of an order whose rate is infinite: every replication's
    power average diverges, so the mean is inf and there is no spread."""
    return DivergenceEstimate(alpha=alpha, mean=math.inf, std_dev=0.0, reps=reps)


def estimate_kl_mc(p: Model, q: Model, cfg: McConfig | None = None) -> DivergenceEstimate:
    """KL divergence rate estimate: each replication contributes the
    normalized log likelihood ratio of its path."""
    return estimate_from_log_ratios(replication_log_ratios(p, q, cfg or McConfig()), 1.0)


def estimate_renyi_mc(p: Model, q: Model, alpha: float,
                      cfg: McConfig | None = None) -> DivergenceEstimate:
    """Renyi divergence rate estimate of order alpha.

    Orders within 1e-8 of 1 fall back to the KL statistic, the alpha -> 1
    limit of the power average. For p = q the per-step ratios are exact
    zeros (the two filters run identical arithmetic), so the estimate is
    exactly 0 for every alpha and seed. An order whose rate is infinite
    (`models.infinite_renyi_rate`) returns mean inf without sampling. An
    order that `models.renyi_order` rejects raises ValueError.
    """
    alpha = renyi_order(alpha)
    cfg = cfg or McConfig()
    if infinite_renyi_rate(p, q, alpha):
        return infinite_estimate(alpha, cfg.reps)
    return estimate_from_log_ratios(replication_log_ratios(p, q, cfg), alpha)
