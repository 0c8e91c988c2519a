"""Simulation estimates of Renyi and KL divergence rates.

Each replication samples a fresh path under p, runs the normalized forward
filters of both models over it, and turns the per-step log likelihood
ratios rho_t = log s_t(p) - log s_t(q) into one statistic:

    KL:    mean_t rho_t                      (the normalized log ratio)
    Renyi: log( mean_t exp((alpha-1) rho_t) ) / (alpha - 1)

i.e. the time average of the ratio's (alpha-1) power, aggregated in the log
domain so heavy-tailed ratios at alpha near 2 cannot overflow. The reported
value is the mean over replications and the spread is the sample standard
deviation of the replication statistics; `DivergenceEstimate.std_error`
is the standard error of the mean, sd / sqrt(reps).

Replication r uses an independent generator seeded by a splitmix64 mix of
(seed, r), so results are reproducible and independent of execution order.
Several pairs of models run as one batch (`replication_log_ratios`): their
paths are sampled and filtered together, one block of time steps at a
time, replication r of every pair reading the draws of the same seed, and
each pair's values are those of its run alone, bit for bit (at one
replication, when the batch's chains have equal state counts).

The per-case driver over a list of orders, and its one-order call
`estimate_renyi_mc` (KL at alpha "kl"), live in `hmmdiv.cli`.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .forward import DegenerateInputError, _underflow_message, batch_log_normalizers
from .models import _logsumexp, as_chain, mix_seed, path_blocks, renyi_order, require_counts

# Replications per pass of `estimate_from_log_ratios`: at n = 10000 the
# rows and the scratch buffer are 640 KB each.
_ROW_CHUNK = 8


@dataclass(frozen=True)
class McConfig:
    """Simulation sizes: n observations per path (after burn_in discarded
    steps), reps independent replications."""

    n: int = 2000
    reps: int = 100
    burn_in: int = 100
    seed: int = 0

    def __post_init__(self):
        require_counts(n=self.n, reps=self.reps, burn_in=self.burn_in, seed=self.seed)
        if self.n < 1:
            raise ValueError(f"n must be at least 1, got {self.n}")
        if self.reps < 1:
            raise ValueError(f"reps must be at least 1, got {self.reps}")
        if self.burn_in < 0:
            raise ValueError(f"burn_in must be nonnegative, got {self.burn_in}")
        if not 0 <= self.seed < 2 ** 64:  # mix_seed would alias it mod 2^64
            raise ValueError(f"seed must be in [0, 2**64), got {self.seed}")


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


def replication_log_ratios(pairs, cfg: McConfig, timings: dict | None = None,
                           errors: dict | None = None) -> list[np.ndarray | None]:
    """Per-step log likelihood ratios rho for every replication of each
    pair (p, q) of models, shape (reps, n) each, paths sampled under p.
    The rows are the sole input of every estimator here, so callers
    evaluating several alpha values can compute them once and share them.
    One pair is the batch of one: `replication_log_ratios([(p, q)], cfg)[0]`;
    no pairs give [].

    The pairs run as one batch: `path_blocks` samples every pair's paths
    from one draw stream per replication seed, and each block is filtered
    by one `batch_log_normalizers` call, pair c's p and q chains at
    positions 2c and 2c + 1 of the stack, before the next block is
    sampled. Only the rho arrays are full length. Every row equals the
    pair's run alone, bit for bit (at reps = 1, when the batch's chains
    have equal state counts).

    When `timings` is given, the seconds spent sampling the paths and
    running the filters, summed over the blocks of the whole batch, are
    stored in it as "sample_seconds" and "filter_seconds". When a pair's
    filter underflows, its DegenerateInputError is raised once the batch
    has run; or, when `errors` is given, stored there under the pair's
    index, with None in its place in the result.
    """
    pairs = [(as_chain(p), as_chain(q)) for p, q in pairs]
    seeds = [mix_seed(cfg.seed, r) for r in range(cfg.reps)]
    chains = [chain for pair in pairs for chain in pair]
    paths = [i // 2 for i in range(len(chains))]
    carry: dict = {}
    rho = [np.empty((cfg.reps, cfg.n)) for _ in pairs]
    sampled = filtered = 0.0
    t0 = 0
    blocks = path_blocks([p for p, _ in pairs], seeds, cfg.n, cfg.burn_in) if pairs else ()
    clock = time.perf_counter()
    for y, _ in blocks:
        tick = time.perf_counter()
        sampled += tick - clock
        m = len(y) - 1
        log_s = batch_log_normalizers(chains, y, paths, carry)
        for c in range(len(pairs)):
            np.subtract(log_s[2 * c], log_s[2 * c + 1], out=rho[c][:, t0:t0 + m])
        del log_s  # not held while the next block is sampled and filtered
        t0 += m
        clock = time.perf_counter()
        filtered += clock - tick
    if timings is not None:
        timings.update(sample_seconds=sampled, filter_seconds=filtered)
    for c in range(len(pairs)):  # no pairs leave the carry empty
        dead = [carry["dead_at"][i] for i in (2 * c, 2 * c + 1) if i in carry["dead_at"]]
        if dead:
            exc = DegenerateInputError(
                f"{_underflow_message(*dead[0])} (replication = path index)")
            if errors is None:
                raise exc
            errors[c], rho[c] = exc, None
    return rho


def estimate_from_log_ratios(rho: np.ndarray, orders) -> list[DivergenceEstimate]:
    """Build one estimate per order from log ratios rho, one nonempty row
    per replication (ValueError otherwise); each order is checked and
    resolved by `models.renyi_order`. One order is the list of one:
    `estimate_from_log_ratios(rho, [alpha])[0]`.

    rho is read _ROW_CHUNK rows at a time, and every order is computed
    while the rows are in cache, in one scratch buffer of that many rows.
    Each replication statistic has the arithmetic of the whole-array
    formula, so every value is the same bit for bit.
    """
    orders = [renyi_order(a) for a in orders]
    if np.ndim(rho) != 2 or 0 in np.shape(rho):
        raise ValueError(f"rho must be 2-D and not empty, got shape {np.shape(rho)}")
    reps, n = rho.shape
    stats, shares = np.empty((2, len(orders), reps))
    scratch = np.empty((min(reps, _ROW_CHUNK), n))
    for r0 in range(0, reps, _ROW_CHUNK):
        rows = rho[r0:r0 + _ROW_CHUNK]
        part = slice(r0, r0 + len(rows))
        for j, alpha in enumerate(orders):
            if alpha == 1.0:
                stats[j, part] = rows.mean(axis=1)
                continue
            scaled = np.multiply(alpha - 1.0, rows, out=scratch[:len(rows)])
            top = scaled.max(axis=1, keepdims=True)
            lse = _logsumexp(scaled, axis=1, scratch=scaled, top=top)
            stats[j, part] = (lse - math.log(n)) / (alpha - 1.0)
            shares[j, part] = np.exp(top[:, 0] - lse)
    return [DivergenceEstimate(
        alpha=alpha, mean=float(stats[j].mean()), reps=reps,
        std_dev=float(stats[j].std(ddof=1)) if reps > 1 else 0.0,
        top_term_share=None if alpha == 1.0 else float(np.max(shares[j])),
    ) for j, alpha in enumerate(orders)]
