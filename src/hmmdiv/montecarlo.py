"""Simulation estimates of Renyi and KL divergence rates.

Each replication samples a fresh path under p, runs the normalized forward
filter of both models over it, and turns the per-step log likelihood ratios
rho_t = log s_t(p) - log s_t(q) into one statistic:

    KL:    mean_t rho_t                      (the normalized log ratio)
    Renyi: log( mean_t exp((alpha-1) rho_t) ) / (alpha - 1)

i.e. the time average of the ratio's (alpha-1) power, aggregated in the log
domain so heavy-tailed ratios at alpha near 2 cannot overflow. The reported
value is the mean over replications and the spread is the sample standard
deviation of the replication statistics (not the standard error of the
mean).

Replication r uses an independent generator seeded by a splitmix64 mix of
(seed, r), so results are reproducible and independent of execution order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .forward import DegenerateInputError, batch_log_normalizers
from .models import (
    LinearGaussianChain,
    Model,
    _standard_normals,
    as_chain,
    mix_seed,
    require_valid,
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


def _sample_paths(chain: LinearGaussianChain, cfg: McConfig):
    """Sample cfg.reps paths at once; row r reproduces the single-path
    sampler run with seed mix_seed(cfg.seed, r). Returns (y, y_prev) of
    shapes (reps, n) and (reps,)."""
    total = cfg.burn_in + cfg.n
    u_state = np.empty((cfg.reps, total + 1))
    eps = np.empty((cfg.reps, total))
    for r in range(cfg.reps):
        rng = np.random.Generator(np.random.PCG64(mix_seed(cfg.seed, r)))
        u_state[r] = rng.random(total + 1)
        eps[r] = _standard_normals(rng, total)

    cum = np.cumsum(chain.transition, axis=1)
    cum_pi = np.cumsum(chain.pi)
    z = np.minimum((cum_pi[None, :] <= u_state[:, 0:1]).sum(axis=1), chain.d - 1)
    y = np.zeros(cfg.reps)
    ys = np.empty((cfg.reps, total))
    c, b, s = chain.c, chain.b, chain.s
    for t in range(total):
        rows = cum[z]
        z = np.minimum((rows <= u_state[:, t + 1, None]).sum(axis=1), chain.d - 1)
        y = c[z] + b[z] * y + s[z] * eps[:, t]
        ys[:, t] = y
    y_prev = ys[:, cfg.burn_in - 1] if cfg.burn_in > 0 else np.zeros(cfg.reps)
    return ys[:, cfg.burn_in:], y_prev


def replication_log_ratios(p: Model, q: Model, cfg: McConfig) -> np.ndarray:
    """Per-step log likelihood ratios rho for every replication, shape
    (reps, n). Paths are sampled under p. The rows are the sole input of
    every estimator here, so callers evaluating several alpha values can
    compute them once and share them."""
    require_valid(p)
    require_valid(q)
    chain_p = as_chain(p)
    chain_q = as_chain(q)
    y, y_prev = _sample_paths(chain_p, cfg)
    try:
        return (batch_log_normalizers(chain_p, y, y_prev)
                - batch_log_normalizers(chain_q, y, y_prev))
    except DegenerateInputError as exc:
        raise DegenerateInputError(f"{exc} (replication = path index)") from exc


def estimate_from_log_ratios(rho: np.ndarray, alpha: float) -> DivergenceEstimate:
    """Build the estimate for one alpha from precomputed log ratios."""
    n = rho.shape[1]
    if abs(alpha - 1.0) < 1e-8:
        stats = rho.mean(axis=1)
    else:
        stats = (logsumexp((alpha - 1.0) * rho, axis=1) - math.log(n)) / (alpha - 1.0)
    sd = float(stats.std(ddof=1)) if stats.shape[0] > 1 else 0.0
    return DivergenceEstimate(
        alpha=float(alpha), mean=float(stats.mean()), std_dev=sd, reps=rho.shape[0]
    )


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
    exactly 0 for every alpha and seed.
    """
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    return estimate_from_log_ratios(replication_log_ratios(p, q, cfg or McConfig()),
                                    float(alpha))
