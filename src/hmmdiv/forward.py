"""Normalized forward recursion for the observation likelihood.

The joint density of observations y_1..y_n given y_0 factors through the
unnormalized forward weights

    a_1(j) = pi_j f_j(y_1 | y_0),
    a_t(j) = f_j(y_t | y_{t-1}) * sum_i P[i, j] a_{t-1}(i),

with likelihood sum_j a_n(j). The filter below renormalizes a_t to sum 1
after every step and accumulates log of the normalizers, which is what keeps
it stable for n in the 1e5 range where the raw product underflows.

`batch_log_normalizers(chains, y, paths, carry)` runs the filters of
several chains, of any state counts, over one time-major block of path
sets, as `models.path_blocks` yields it, each chain over its own set (the
simulation engine's p and q chains of one case read the same set), padded
as the sampler pads them to the largest count, with no mass and zero
density on a padded state. A `carry` holds the filters' weights from one
block to the next. The weights are state-major, (chain, state, path): a
step is a product, a sum over the state axis, a division and one batched
matmul by the transposed transitions, each into a buffer allocated once
per block. The block's emission densities are filled in place, in one
(block, path) slab per chain and state, once per distinct emission of
each chain (the psi2 = 0 pair lift has 2 among its 4 states) and copied
to the states sharing it; they and the logs are each one pass over the
block, and so is the underflow check of a block whose normalizers come
near it. Every value is the one a step-at-a-time loop of a single chain
computes, bit for bit (for fewer than 8 states, which numpy sums in
sequence either way), and over several paths a padded chain's are those
of its call alone; over one path BLAS's vector-matrix product rounds a
padded row otherwise.

Its collectors, `_path_log_normalizers` and
`montecarlo.replication_log_ratios`, write whole paths into C-ordered
arrays: an F-ordered array of equal values would sum a row in another
order, and so change the likelihoods and the estimates in the last digits.

`log_likelihood` and `per_step_log_ratios` take a 1-D, finite y and a
finite y_prev, and raise ValueError otherwise. The tests check the filter
against two independent evaluators, a sum over every hidden path and a
density-matrix product (`tests/oracles.py`).
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from .models import _TIME_BLOCK, LinearGaussianChain, Model, _gauss_log_pdf, as_chain


class DegenerateInputError(ValueError):
    """Raised when every forward weight underflows to (near) zero.

    Happens when an observation is impossibly far from all emission means,
    e.g. data fed to a model with tiny variances. The likelihood is below
    the smallest positive float and no normalization can recover it.
    """


_UNDERFLOW = 1e-300


def _observations(y, y_prev) -> tuple[np.ndarray, float]:
    """y as a 1-D float array and y_prev as a float; ValueError naming the
    shape, or the first value that is not finite, of bad input."""
    y, y_prev = np.asarray(y, dtype=float), float(y_prev)
    if y.ndim != 1:
        raise ValueError(f"y must be 1-D, got shape {y.shape}")
    bad = np.flatnonzero(~np.isfinite(y))
    if bad.size:
        raise ValueError(f"observations must be finite, got y[{bad[0]}] = {y[bad[0]]}")
    if not math.isfinite(y_prev):
        raise ValueError(f"y_prev must be finite, got {y_prev}")
    return y, y_prev


def _path_log_normalizers(m: Model, y: np.ndarray, y_prev: float) -> np.ndarray:
    """Per-step log normalizers log s_t of one path's filter, C-ordered;
    their sum is the log likelihood. The path is filtered in blocks of
    _TIME_BLOCK steps with one carry, so a long path holds one block's
    buffers at a time."""
    y, y_prev = _observations(y, y_prev)
    y = np.concatenate(([y_prev], y))[:, None, None]  # one set of one path
    chains, carry = [as_chain(m)], {}
    # an empty path is one block of no steps
    pieces = [batch_log_normalizers(chains, y[t0:t0 + _TIME_BLOCK + 1], [0], carry)[0, 0]
              for t0 in range(0, max(len(y) - 1, 1), _TIME_BLOCK)]
    if carry["dead_at"]:
        raise DegenerateInputError(_underflow_message(*carry["dead_at"][0]))
    return np.concatenate(pieces)


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


def _fill_emission_pdfs(chain: LinearGaussianChain, y, y_prev, out, tmp) -> None:
    """out[:, j] = f_j(y | y_prev) for (steps, reps) arrays y and y_prev, in
    place once per distinct emission and copied to the states sharing it."""
    for j, e in enumerate(chain.emission_reps()):
        if e < j:
            out[:, j] = out[:, e]
        else:
            np.exp(_gauss_log_pdf(y, y_prev, chain.c[j], chain.b[j], chain.s[j],
                                  out[:, j], tmp), out=out[:, j])


def _underflow_message(step: int, path: int) -> str:
    return f"all forward weights underflowed at step {step} in batch path {path}"


def batch_log_normalizers(chains: Sequence[LinearGaussianChain], y: np.ndarray,
                          paths: Sequence[int], carry: dict) -> np.ndarray:
    """Filter normalizers of several chains over one block of path sets.

    `chains` are k chains of any state counts, padded to the largest, d.
    y is a time-major block of shape (m + 1, sets, reps), as
    `models.path_blocks` yields it: y[0] holds the observations before the
    block, and chain i filters set `paths[i]`. Returns the block's log s_t
    as a (k, reps, m) view in time-major memory, row i for chains[i]. Each
    step is one batched matmul of the (k, d, d) transposed transitions by
    the state-major (k, d, reps) weights, and every value is the one a
    one-chain call computes, bit for bit (for reps > 1 or equal counts), so
    log-ratio statistics between a model and itself cancel to exact zeros.

    `carry` holds the weights between blocks: an empty dict with the first
    block, the same dict with each next one. A chain whose weights
    underflow is recorded in carry["dead_at"] as {chain index: (step,
    path)}, its first dead step counted from the first block's start and
    the first path dead there; its later values are not meaningful.
    """
    chains = list(chains)
    k, m, reps = len(chains), len(y) - 1, y.shape[2]
    d = max(chain.d for chain in chains)
    # every chain padded to d states, with no mass and zero density there;
    # the densities, then weights, in one (m, reps) slab per chain and
    # state, and the normalizers; a step reads the views at its time
    pi, p, unnorm = np.zeros((k, d)), np.zeros((k, d, d)), np.empty((k, d, m, reps))
    s = np.empty((m, k, 1, reps))
    tmp = np.empty((m, reps))
    for i, chain in enumerate(chains):
        pi[i, :chain.d], p[i, :chain.d, :chain.d] = chain.pi, chain.transition
        _fill_emission_pdfs(chain, y[1:, paths[i]], y[:-1, paths[i]],
                            unnorm[i].transpose(1, 0, 2), tmp)
        unnorm[i, chain.d:] = 0.0
    if not carry:
        # the predictive weights P^T w of the next step, first pi
        carry.update(pred=np.repeat(pi[:, :, None], reps, axis=2), steps=0, dead_at={})
    pred, dead_at = carry["pred"], carry["dead_at"]
    # formed as w^T P on transposed views, BLAS sums them in the order of
    # the row-vector product w @ P for any number of paths (P^T @ w differs
    # for one path)
    w = np.empty_like(pred)
    w_t, pred_t = w.transpose(0, 2, 1), pred.transpose(0, 2, 1)
    # a row that underflows turns into nan from here on; dead_at records it
    # before any of its values are used
    with np.errstate(divide="ignore", invalid="ignore"):
        for u, s_j in zip(unnorm.transpose(2, 0, 1, 3), s):
            np.multiply(u, pred, out=u)
            np.add.reduce(u, axis=-2, keepdims=True, out=s_j)
            np.divide(u, s_j, out=w)
            np.matmul(w_t, p, out=pred_t)
        # all d weights of a path are below _UNDERFLOW only if their sum is
        # below d * _UNDERFLOW, 2 d * _UNDERFLOW with its rounding: only a
        # block with such a sum needs the check of every weight
        near = np.any(s < 2 * d * _UNDERFLOW)
        log_s = np.log(s[:, :, 0], out=s[:, :, 0]).transpose(1, 2, 0)
    if near:
        dead = np.all(unnorm < _UNDERFLOW, axis=1)  # (k, m, reps)
        for i in np.flatnonzero(dead.any(axis=(1, 2))):
            if i not in dead_at:
                t = int(dead[i].any(axis=-1).argmax())
                dead_at[int(i)] = (carry["steps"] + t + 1, int(dead[i, t].argmax()))
    carry["steps"] += m
    return log_s
