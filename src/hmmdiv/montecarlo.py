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

The per-case driver over a list of orders, and its one-order calls
`estimate_renyi_mc` and `estimate_kl_mc`, live in `hmmdiv.cli`.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .forward import DegenerateInputError, batch_log_normalizers
from .models import (Model, _logsumexp, as_chain, mix_seed, renyi_order, require_counts,
                     sample_paths)


@dataclass(frozen=True)
class McConfig:
    """Simulation sizes: n observations per path (after burn_in discarded
    steps), reps independent replications."""

    n: int = 2000
    reps: int = 100
    burn_in: int = 100
    seed: int = 0

    def __post_init__(self):
        require_counts(self, ("n", "reps", "burn_in", "seed"))
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
    # The largest share, over replications, of a replication's sum of
    # exp((alpha - 1) rho_t) carried by its largest term, exp(max - lse);
    # near 1, one step decides that replication's value (a heavy tail).
    # None for KL and for an order not estimated from log ratios.
    top_term_share: float | None = None

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


def estimate_from_log_ratios(rho: np.ndarray, alpha) -> DivergenceEstimate:
    """Build the estimate for one order from log ratios rho, one nonempty
    row per replication (ValueError otherwise); alpha is checked and
    resolved by `models.renyi_order`."""
    alpha = renyi_order(alpha)
    if np.ndim(rho) != 2 or 0 in np.shape(rho):
        raise ValueError(f"rho must be 2-D and not empty, got shape {np.shape(rho)}")
    n = rho.shape[1]
    share = None
    if alpha == 1.0:
        stats = rho.mean(axis=1)
    else:
        scaled = (alpha - 1.0) * rho
        top = scaled.max(axis=1)
        lse = _logsumexp(scaled, axis=1, scratch=scaled)  # one (reps, n) array per order
        stats = (lse - math.log(n)) / (alpha - 1.0)
        share = float(np.max(np.exp(top - lse)))
    sd = float(stats.std(ddof=1)) if stats.shape[0] > 1 else 0.0
    return DivergenceEstimate(
        alpha=alpha, mean=float(stats.mean()), std_dev=sd, reps=rho.shape[0],
        top_term_share=share,
    )
