"""Normalized forward recursion and reference likelihood evaluators.

The joint density of observations y_1..y_n given y_0 factors through the
unnormalized forward weights

    a_1(j) = pi_j f_j(y_1 | y_0),
    a_t(j) = f_j(y_t | y_{t-1}) * sum_i P[i, j] a_{t-1}(i),

with likelihood sum_j a_n(j). The filter below renormalizes a_t to sum 1
after every step and accumulates log of the normalizers, which is what keeps
it stable for n in the 1e5 range where the raw product underflows.

`batch_log_normalizers(chains, y, y_prev)` runs the filters of several
chains with equal state counts over the same paths in one loop, and works
through the path in blocks of time steps. The emission densities, the
underflow check and the logs of a block are each one vectorized call over
the whole block, and only the weight update runs step by step, one batched
matmul for all chains. Every value is the one a step-at-a-time loop of a
single chain computes, bit for bit. The output is allocated C-ordered and
filled block by block:
an F-ordered array of equal values would make reductions over a row sum
in another order, and so change the simulation estimates in the last
digits.

Two deliberately independent evaluators back the filter for testing:
`brute_force_log_likelihood` sums the complete-data density over every hidden
path, and `matrix_log_likelihood` multiplies the density matrices

    M_t[j, i] = P[i, j] f_j(y_t | y_{t-1})

against pi with max-rescaling instead of sum-rescaling. All agree to 1e-9
on short paths; only the filter is meant for long ones.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .models import _TIME_BLOCK, LinearGaussianChain, Model, as_chain


class DegenerateInputError(ValueError):
    """Raised when every forward weight underflows to (near) zero.

    Happens when an observation is impossibly far from all emission means,
    e.g. data fed to a model with tiny variances. The likelihood is below
    the smallest positive float and no normalization can recover it.
    """


@dataclass(frozen=True)
class ForwardState:
    """Filter state after t observations: normalized weights over hidden
    states and the accumulated log likelihood of y_1..y_t."""

    weights: np.ndarray
    log_likelihood: float
    t: int

    def __post_init__(self):
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))


@dataclass(frozen=True)
class DensityMatrix:
    """One step's transition-weighted emission matrix, entries[j, i] =
    P[i, j] * f_j(y_t | y_{t-1}). Applying it to the previous weight vector
    advances the unnormalized recursion by one step."""

    entries: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "entries", np.asarray(self.entries, dtype=float))


_UNDERFLOW = 1e-300


def _check_underflow(unnorm: np.ndarray, t: int) -> None:
    if np.all(unnorm < _UNDERFLOW):
        raise DegenerateInputError(
            f"all forward weights underflowed at step {t}; "
            "observations are incompatible with the model's emission scales"
        )


def forward_init(m: Model, y1: float, y_prev: float = 0.0) -> ForwardState:
    """Start the filter on the first observation (conditioning on y_prev)."""
    chain = as_chain(m)
    unnorm = chain.pi * chain.emission_pdf(y1, y_prev)
    _check_underflow(unnorm, 1)
    s = unnorm.sum()
    return ForwardState(weights=unnorm / s, log_likelihood=math.log(s), t=1)


def forward_step(m: Model, state: ForwardState, y_t: float, y_prev: float) -> ForwardState:
    """Advance the filter by one observation."""
    chain = as_chain(m)
    unnorm = (state.weights @ chain.transition) * chain.emission_pdf(y_t, y_prev)
    _check_underflow(unnorm, state.t + 1)
    s = unnorm.sum()
    return ForwardState(
        weights=unnorm / s,
        log_likelihood=state.log_likelihood + math.log(s),
        t=state.t + 1,
    )


def density_matrix(m: Model, y_t: float, y_prev: float, first: bool = False) -> DensityMatrix:
    """The step-t matrix M_t[j, i] = P[i, j] f_j(y_t | y_prev); for the first
    step the transition factor is dropped (weights start at pi)."""
    chain = as_chain(m)
    f = chain.emission_pdf(y_t, y_prev)
    if first:
        entries = np.diag(f)
    else:
        entries = chain.transition.T * f[:, None]
    return DensityMatrix(entries)


def _path_log_normalizers(m: Model, y: np.ndarray, y_prev: float) -> np.ndarray:
    """Per-step log normalizers log s_t of one path's filter; their sum is
    the log likelihood. The batch filter with a single row."""
    y = np.asarray(y, dtype=float)[None, :]
    return batch_log_normalizers([as_chain(m)], y, np.array([float(y_prev)]))[0, 0]


def log_likelihood(m: Model, y: np.ndarray, y_prev: float = 0.0) -> float:
    """Log density of the observation sequence given y_prev, via the
    normalized filter. Stable for long sequences."""
    return float(_path_log_normalizers(m, y, y_prev).sum())


def per_step_log_ratios(p: Model, q: Model, y: np.ndarray, y_prev: float = 0.0) -> np.ndarray:
    """Per-step log likelihood ratio increments log s_t(p) - log s_t(q).

    Summing them gives log_likelihood(p, y) - log_likelihood(q, y) exactly
    (same telescoping, same arithmetic order). When p and q are the same
    parameters the two filters run identical float operations, so every
    increment is bitwise zero.
    """
    return _path_log_normalizers(p, y, y_prev) - _path_log_normalizers(q, y, y_prev)


def brute_force_log_likelihood(m: Model, y: np.ndarray, y_prev: float = 0.0) -> float:
    """Exact likelihood by summing over every hidden path. Exponential in n;
    refuses inputs with more than 2^20 paths."""
    chain = as_chain(m)
    y = np.asarray(y, dtype=float)
    n = y.shape[0]
    if chain.d ** (n + 1) > 2 ** 20:
        raise ValueError(
            f"brute force with d={chain.d}, n={n} exceeds the 2^20 path cap"
        )
    log_pi = np.log(chain.pi + 0.0)
    log_p = np.log(chain.transition + 1e-300)
    # emission log densities, shape (n, d)
    prevs = np.concatenate(([y_prev], y[:-1]))
    log_f = np.vstack([chain.emission_log_pdf(y[t], prevs[t]) for t in range(n)])
    terms = []
    for path in itertools.product(range(chain.d), repeat=n):
        lp = log_pi[path[0]] + log_f[0, path[0]]
        for t in range(1, n):
            lp += log_p[path[t - 1], path[t]] + log_f[t, path[t]]
        terms.append(math.exp(lp))
    return math.log(math.fsum(terms))


def matrix_log_likelihood(m: Model, y: np.ndarray, y_prev: float = 0.0) -> float:
    """Likelihood via the density-matrix product ||M_n ... M_1 pi||_1 with
    per-step max rescaling. Independent arithmetic from the filter (max
    rescaling, matrix-vector products against M_t rather than elementwise
    updates); used as a cross-check."""
    chain = as_chain(m)
    y = np.asarray(y, dtype=float)
    n = y.shape[0]
    v = chain.pi.copy()
    log_scale = 0.0
    prev = y_prev
    for t in range(n):
        mt = density_matrix(chain, float(y[t]), prev, first=(t == 0)).entries
        v = mt @ v
        _check_underflow(v, t + 1)
        mx = v.max()
        v /= mx
        log_scale += math.log(mx)
        prev = float(y[t])
    return log_scale + math.log(v.sum())


def batch_log_normalizers(chains: Sequence[LinearGaussianChain], y: np.ndarray,
                          y_prev: np.ndarray) -> np.ndarray:
    """Filter normalizers of several chains over the same paths at once.

    `chains` is a sequence of k chains with equal d; y has shape (reps, n)
    and y_prev shape (reps,). Returns a C-ordered (k, reps, n) array of
    log s_t, row i for chains[i]. The k filters run in one loop: each step
    is one batched matmul of the (k, reps, d) weights by the (k, d, d)
    transitions. Every value is the one a one-chain call computes, bit for
    bit, so log-ratio statistics between a model and itself cancel to exact
    zeros.

    Works in blocks of time steps (see the module docstring). A block's
    emission densities are overwritten by its unnormalized weights, which
    the underflow check reads once per block. When several filters
    underflow, the error names the first chain in `chains` that did, at
    its first dead step.
    """
    chains = list(chains)
    d = chains[0].d
    if any(chain.d != d for chain in chains):
        raise ValueError("batch_log_normalizers needs chains of equal d, got "
                         f"{[chain.d for chain in chains]}")
    y = np.asarray(y, dtype=float)
    reps, n = y.shape
    k = len(chains)
    p = np.stack([chain.transition for chain in chains])  # (k, d, d)
    w = np.broadcast_to(np.stack([chain.pi for chain in chains])[:, None, :],
                        (k, reps, d)).copy()
    prev = np.asarray(y_prev, dtype=float)
    out = np.empty((k, reps, n))
    dead_at = {}  # chain index -> first step at which all its weights underflowed
    for t0 in range(0, n, _TIME_BLOCK):
        y_blk = y[:, t0:t0 + _TIME_BLOCK].T.copy()  # time-major copy of one block
        prev_blk = np.concatenate((prev[None, :], y_blk[:-1]))
        # (block, k, reps, d), updated in place
        unnorm = np.stack([chain.emission_pdf(y_blk, prev_blk) for chain in chains], axis=1)
        s = np.empty(unnorm.shape[:-1])
        # a row that underflows turns into nan from here on; the check
        # below reports it before any of its values are used
        with np.errstate(divide="ignore", invalid="ignore"):
            for j in range(y_blk.shape[0]):
                u = unnorm[j]
                u *= w if t0 + j == 0 else np.matmul(w, p)
                np.add.reduce(u, axis=-1, out=s[j])
                w = u / s[j][..., None]
            out[:, :, t0:t0 + y_blk.shape[0]] = np.log(s).transpose(1, 2, 0)
        dead = np.any(np.all(unnorm < _UNDERFLOW, axis=-1), axis=-1)  # (block, k)
        for i in np.flatnonzero(dead.any(axis=0)):
            dead_at.setdefault(int(i), t0 + int(dead[:, i].argmax()) + 1)
        if 0 in dead_at:  # no chain before the first can still die
            break
        prev = y_blk[-1]
    if dead_at:
        raise DegenerateInputError(
            f"all forward weights underflowed at step {dead_at[min(dead_at)]} "
            "in a batch path"
        )
    return out
