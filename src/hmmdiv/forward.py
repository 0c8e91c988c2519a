"""Normalized forward recursion and reference likelihood evaluators.

The joint density of observations y_1..y_n given y_0 factors through the
unnormalized forward weights

    a_1(j) = pi_j f_j(y_1 | y_0),
    a_t(j) = f_j(y_t | y_{t-1}) * sum_i P[i, j] a_{t-1}(i),

with likelihood sum_j a_n(j). The filter below renormalizes a_t to sum 1
after every step and accumulates log of the normalizers, which is what keeps
it stable for n in the 1e5 range where the raw product underflows.

`batch_log_normalizers(chains, y, y_prev)` runs the filters of several
chains with equal state counts in one loop, each chain over its own set
of paths (the simulation engine's p and q chains of one case read the
same set), and works through the paths in blocks of time steps. Paths
that arrive in pieces are filtered piece by piece with a `carry`, which
holds the filters' weights from one piece to the next. The weights are
state-major, (chain, state, path): a step is a product, a sum over the
state axis, a division and one batched matmul by the transposed
transitions, each into a buffer allocated once per call. A block's
emission densities are filled in place, in one (block, path) slab per
chain and state, once per distinct emission of each chain (the psi2 = 0
pair lift has 2 among its 4 states) and copied to the states sharing it;
they and the logs are each one pass over the block, and so is the
underflow check of a block whose normalizers come near it. Every value is
the one a step-at-a-time loop of a single chain computes, bit for bit
(for fewer than 8 states, which numpy sums in sequence either way). The
output is C-ordered: an F-ordered array of equal values would sum a row
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

import numpy as np

from .models import _TIME_BLOCK, LinearGaussianChain, Model, _gauss_log_pdf, as_chain


class DegenerateInputError(ValueError):
    """Raised when every forward weight underflows to (near) zero.

    Happens when an observation is impossibly far from all emission means,
    e.g. data fed to a model with tiny variances. The likelihood is below
    the smallest positive float and no normalization can recover it.
    """


_UNDERFLOW = 1e-300


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
    if n == 0:
        return 0.0  # the log of the empty product
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
        f = chain.emission_pdf(float(y[t]), prev)
        # step 1 has no transition factor: the weights start at pi
        mt = np.diag(f) if t == 0 else chain.transition.T * f[:, None]
        v = mt @ v
        if np.all(v < _UNDERFLOW):
            raise DegenerateInputError(
                f"all forward weights underflowed at step {t + 1}; observations "
                "are incompatible with the model's emission scales")
        mx = v.max()
        v /= mx
        log_scale += math.log(mx)
        prev = float(y[t])
    return log_scale + math.log(v.sum())


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
                          y_prev: np.ndarray, paths: Sequence[int] | None = None,
                          carry: dict | None = None) -> np.ndarray:
    """Filter normalizers of several chains at once, each over its own paths.

    `chains` is a sequence of k chains with equal d. y holds path sets of
    shape (reps, n): either one, as a (reps, n) array that every chain
    filters, or several, as a (sets, reps, n) array in which chain i
    filters set `paths[i]` (by default set i); y_prev is (reps,) or
    (sets, reps) to match. Returns a C-ordered (k, reps, n) array of
    log s_t, row i for chains[i]. The k filters run in one loop: each step
    is one batched matmul of the (k, d, d) transposed transitions by the
    state-major (k, d, reps) weights. Every value is the one a one-chain
    call computes, bit for bit, so log-ratio statistics between a model
    and itself cancel to exact zeros.

    Works in blocks of time steps (see the module docstring). A block's
    emission densities are overwritten by its unnormalized weights, which
    the underflow check reads once per block. When several filters
    underflow, the error names the first chain in `chains` that did, at
    its first dead step, and the first path dead there.

    `carry` filters paths that arrive in pieces: pass an empty dict with
    the first piece and the same dict with each next one, y_prev being
    the observations before the piece. Each call then starts the filters
    where the last one left them, and a chain whose weights underflow is
    recorded in carry["dead_at"] as {chain index: (step, path)}, its first
    dead step counted from the start of the first piece, instead of
    raised; its later values are not meaningful. A piece of one time block
    comes back as a view in time-major memory, not C-ordered.
    """
    chains = list(chains)
    d = chains[0].d
    if any(chain.d != d for chain in chains):
        raise ValueError("batch_log_normalizers needs chains of equal d, got "
                         f"{[chain.d for chain in chains]}")
    k = len(chains)
    sets = np.asarray(y, dtype=float)
    prev = np.asarray(y_prev, dtype=float)
    if sets.ndim == 2:
        sets, prev = sets[None], prev[None]
    if paths is None:
        paths = [0] * k if len(sets) == 1 else range(k)
    paths = list(paths)
    _, reps, n = sets.shape
    streamed = carry is not None
    carry = {} if carry is None else carry
    if not carry:
        # the predictive weights P^T w of the next step, first pi
        carry.update(pred=np.repeat(np.stack([chain.pi for chain in chains])[:, :, None],
                                    reps, axis=2), steps=0, dead_at={})
    pred, dead_at = carry["pred"], carry["dead_at"]
    p = np.stack([chain.transition for chain in chains])
    # formed as w^T P on transposed views, BLAS sums them in the order of
    # the row-vector product w @ P for any number of paths (P^T @ w differs
    # for one path)
    w = np.empty_like(pred)
    w_t, pred_t = w.transpose(0, 2, 1), pred.transpose(0, 2, 1)
    # a block's densities, then weights, in one (block, reps) slab per chain
    # and state, and its normalizers; a step reads the views at its time
    block = min(n, _TIME_BLOCK)
    unnorm = np.empty((k, d, block, reps))
    s = np.empty((block, k, 1, reps))
    tmp = np.empty((block, reps))
    prev_buf = np.empty((block, reps))  # the observations before each step, per chain
    rows = list(zip(unnorm.transpose(2, 0, 1, 3), s))
    # a piece of one block returns its logs in place, as a view
    out = None if streamed and n == block else np.empty((k, reps, n))
    for t0 in range(0, n, _TIME_BLOCK):
        # time-major block of every set; a view when y is one already
        y_blk = np.ascontiguousarray(np.moveaxis(sets[:, :, t0:t0 + _TIME_BLOCK], 2, 0))
        m = y_blk.shape[0]
        for i, chain in enumerate(chains):
            prev_buf[0], prev_buf[1:m] = prev[paths[i]], y_blk[:-1, paths[i]]
            _fill_emission_pdfs(chain, y_blk[:, paths[i]], prev_buf[:m],
                                unnorm[i, :, :m].transpose(1, 0, 2), tmp[:m])
        # a row that underflows turns into nan from here on; the check
        # below reports it before any of its values are used
        with np.errstate(divide="ignore", invalid="ignore"):
            for u, s_j in rows[:m]:
                np.multiply(u, pred, out=u)
                np.add.reduce(u, axis=-2, keepdims=True, out=s_j)
                np.divide(u, s_j, out=w)
                np.matmul(w_t, p, out=pred_t)
            log_s = np.log(s[:m, :, 0], out=s[:m, :, 0]).transpose(1, 2, 0)
        if out is None:
            out = log_s
        else:
            out[:, :, t0:t0 + m] = log_s
        # all d weights of a path are below _UNDERFLOW only if their sum is
        # below d * _UNDERFLOW, 2 d * _UNDERFLOW with its rounding: only a
        # block with such a sum needs the check of every weight
        if np.any(s[:m] < 2 * d * _UNDERFLOW):
            dead = np.all(unnorm[:, :, :m] < _UNDERFLOW, axis=1)  # (k, block, reps)
            for i in np.flatnonzero(dead.any(axis=(1, 2))):
                if i not in dead_at:
                    t = int(dead[i].any(axis=-1).argmax())
                    dead_at[int(i)] = (carry["steps"] + t0 + t + 1, int(dead[i, t].argmax()))
        prev = y_blk[-1]
    carry["steps"] += n
    if not streamed and dead_at:
        raise DegenerateInputError(_underflow_message(*dead_at[min(dead_at)]))
    return out
