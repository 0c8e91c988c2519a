"""Two-family Markov switching models and their common filter form.

Family A: two hidden states, per-state AR(1) observation law

    Y_t = mu_j + psi_j * Y_{t-1} + sigma_j * eps_t   when X_t = j,

parameterized by (p00, p11, mu, psi, sigma) with p00 = P(X_t=0 | X_{t-1}=0).

Family B: two hidden states, shared AR coefficient, the mean loads on both
the current and the previous hidden state

    Y_t = psi1 * mu_{X_t} + psi2 * mu_{X_{t-1}} + phi * Y_{t-1} + sigma * eps_t,

parameterized by (p01, p10, mu, phi, psi1, psi2, sigma). Because the emission
mean depends on the state pair (X_{t-1}, X_t), family B is handled everywhere
through its first-order lift onto the four pair states
(0,0), (0,1), (1,0), (1,1).

Both families (and the four-state lift) reduce to one shape: a finite hidden
chain whose state j emits Y | Y_prev ~ N(c_j + b_j * Y_prev, s_j^2). That
shape is `LinearGaussianChain`; the filter, samplers, and likelihood engines
only ever see it, so they work for general d.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_MASK64 = (1 << 64) - 1
# Time steps per block in the simulation loops: the sampler and the filter
# compute what does not depend on the recursion one block at a time.
_TIME_BLOCK = 256


@dataclass(frozen=True)
class ModelAParams:
    """Per-state AR model: state j emits N(mu[j] + psi[j]*y_prev, sigma[j]^2)."""

    p00: float
    p11: float
    mu: tuple[float, float]
    psi: tuple[float, float]
    sigma: tuple[float, float]

    def __post_init__(self):
        _freeze_pairs(self, ("mu", "psi", "sigma"))


@dataclass(frozen=True)
class ModelBParams:
    """Shared-coefficient two-lag-mean model.

    Parameter order follows the benchmark case tables: (p01, p10, mu, phi,
    psi1, psi2, sigma), with p01 = P(X_t=1 | X_{t-1}=0). The first two
    entries are the off-diagonal transition probabilities, not the diagonal
    ones; the reproduced reference tables confirm this reading.
    """

    p01: float
    p10: float
    mu: tuple[float, float]
    phi: float
    psi1: float
    psi2: float
    sigma: float

    def __post_init__(self):
        _freeze_pairs(self, ("mu",))


def _freeze_pairs(m, names) -> None:
    """Store list- or array-valued per-state fields as tuples, so that a
    model is a hashable value and `==` between models is a plain bool."""
    for name in names:
        value = getattr(m, name)
        if isinstance(value, np.ndarray):
            value = value.tolist()
        if isinstance(value, list):
            object.__setattr__(m, name, tuple(value))


@dataclass(frozen=True)
class LinearGaussianChain:
    """Common filter form: hidden chain with linear-Gaussian emissions.

    State j emits Y | Y_prev ~ N(c[j] + b[j] * Y_prev, s[j]^2). `pi` is the
    chain's initial (stationary, for the model families) distribution.
    """

    pi: np.ndarray
    transition: np.ndarray
    c: np.ndarray
    b: np.ndarray
    s: np.ndarray

    def __post_init__(self):
        for name in ("pi", "transition", "c", "b", "s"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        d = self.pi.shape[0]
        if self.transition.shape != (d, d):
            raise ValueError("transition shape must match pi length")
        if not (self.c.shape == self.b.shape == self.s.shape == (d,)):
            raise ValueError("emission parameter vectors must have length d")
        if np.any(self.s <= 0.0):
            raise ValueError("emission standard deviations must be positive")

    @property
    def d(self) -> int:
        return self.pi.shape[0]

    def emission_log_pdf(self, y, y_prev):
        """Log emission densities, one per state; broadcasts over y/y_prev."""
        y = np.asarray(y, dtype=float)[..., None]
        y_prev = np.asarray(y_prev, dtype=float)[..., None]
        z = (y - self.c - self.b * y_prev) / self.s
        return -0.5 * z * z - np.log(self.s * _SQRT_2PI)

    def emission_pdf(self, y, y_prev):
        return np.exp(self.emission_log_pdf(y, y_prev))


@dataclass(frozen=True)
class PathSample:
    """A sampled observation path with the hidden states that produced it.

    `y_prev` is the observation immediately preceding y[0] (the last burn-in
    draw, or the 0.0 initializer when burn_in = 0); likelihoods of the path
    condition on it.
    """

    y: np.ndarray
    x: np.ndarray
    seed: int
    burn_in: int
    y_prev: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float))
        object.__setattr__(self, "x", np.asarray(self.x, dtype=np.int64))
        if self.y.shape != self.x.shape:
            raise ValueError("y and x must have equal length")


Model = ModelAParams | ModelBParams | LinearGaussianChain


def _pair_shape_problems(m: Model, names) -> list[str]:
    return [f"{name} must have exactly 2 entries, got {getattr(m, name)!r}"
            for name in names if np.shape(getattr(m, name)) != (2,)]


def validate_model(m: Model) -> list[str]:
    """Check parameter constraints; returns a list of violations (empty = ok).

    Report-style on purpose: the CLI wants every violated constraint named,
    not just the first. Non-finite parameters are violations; a per-state
    tuple of the wrong length is reported alone, since the per-state checks
    cannot run on it.
    """
    problems: list[str] = []
    if isinstance(m, ModelAParams):
        problems += _pair_shape_problems(m, ("mu", "psi", "sigma"))
        if problems:
            return problems
        for name in ("p00", "p11"):
            v = getattr(m, name)
            if not (0.0 < v < 1.0):
                problems.append(f"0 < {name} < 1 required, got {v}")
        for k in (0, 1):
            if not math.isfinite(m.mu[k]):
                problems.append(f"mu[{k}] must be finite, got {m.mu[k]}")
            if not abs(m.psi[k]) < 1.0:
                problems.append(f"|psi[{k}]| < 1 required, got {m.psi[k]}")
            if not 0.0 < m.sigma[k] < math.inf:
                problems.append(f"sigma[{k}] must be positive and finite, got {m.sigma[k]}")
    elif isinstance(m, ModelBParams):
        problems += _pair_shape_problems(m, ("mu",))
        if problems:
            return problems
        for name in ("p01", "p10"):
            v = getattr(m, name)
            if not (0.0 < v < 1.0):
                problems.append(f"0 < {name} < 1 required, got {v}")
        for k in (0, 1):
            if not math.isfinite(m.mu[k]):
                problems.append(f"mu[{k}] must be finite, got {m.mu[k]}")
        for name in ("psi1", "psi2"):
            if not math.isfinite(getattr(m, name)):
                problems.append(f"{name} must be finite, got {getattr(m, name)}")
        if not abs(m.phi) < 1.0:
            problems.append(f"|phi| < 1 required, got {m.phi}")
        if not 0.0 < m.sigma < math.inf:
            problems.append(f"sigma must be positive and finite, got {m.sigma}")
    elif isinstance(m, LinearGaussianChain):
        for name in ("pi", "transition", "c", "b", "s"):
            if not np.all(np.isfinite(getattr(m, name))):
                problems.append(f"{name} must be finite, got {getattr(m, name)}")
        if np.any(m.transition < 0.0) or np.any(m.transition > 1.0):
            problems.append("transition probabilities must lie in [0, 1]")
        if np.any(np.abs(m.pi.sum() - 1.0) > 1e-12) or np.any(m.pi < 0):
            problems.append("pi must be a probability vector")
        rowsum = m.transition.sum(axis=1)
        if np.any(np.abs(rowsum - 1.0) > 1e-12):
            problems.append("transition rows must sum to 1")
    else:
        raise TypeError(f"not a model: {type(m).__name__}")
    return problems


def require_valid(m: Model) -> None:
    problems = validate_model(m)
    if problems:
        raise ValueError("invalid model: " + "; ".join(problems))


def transition_matrix(m: ModelAParams | ModelBParams) -> np.ndarray:
    """The 2-state transition matrix of either family."""
    if isinstance(m, ModelAParams):
        rows = [[m.p00, 1.0 - m.p00], [1.0 - m.p11, m.p11]]
    else:
        rows = [[1.0 - m.p01, m.p01], [m.p10, 1.0 - m.p10]]
    return np.array(rows, dtype=float)


def as_chain(m: Model) -> LinearGaussianChain:
    """Reduce any supported model to the common filter form; a chain is
    validated and returned as it is.

    Both families start from the 2-state matrix P, whose stationary law is
    (p10, p01) / (p01 + p10). Family B is lifted onto the pair states
    (i, j), ordered (0,0), (0,1), (1,0), (1,1): (i, j) moves only to
    (j, k), with probability P[j, k], and has stationary mass
    pi[i] * P[i, j]. In both forms chain state s ends in primitive state
    s % 2: pair state s = 2i + j ends in j.
    """
    require_valid(m)
    if isinstance(m, LinearGaussianChain):
        return m
    p = transition_matrix(m)
    # (p10, p01): the stationary law before its normalizer, which divides last
    balance = np.array([p[1, 0], p[0, 1]])
    total = p[0, 1] + p[1, 0]
    if isinstance(m, ModelAParams):
        return LinearGaussianChain(
            pi=balance / total,
            transition=p,
            c=np.array(m.mu, dtype=float),
            b=np.array(m.psi, dtype=float),
            s=np.array(m.sigma, dtype=float),
        )
    t = np.zeros((4, 4))
    for i, j in np.ndindex(2, 2):
        t[2 * i + j, 2 * j:2 * j + 2] = p[j]
    mu = np.asarray(m.mu, dtype=float)
    # pair state order (0,0),(0,1),(1,0),(1,1): intercept psi2*mu_i + psi1*mu_j
    c = np.array([m.psi2 * mu[i] + m.psi1 * mu[j] for i in (0, 1) for j in (0, 1)])
    return LinearGaussianChain(
        pi=(balance[:, None] * p).ravel() / total,
        transition=t,
        c=c,
        b=np.full(4, m.phi),
        s=np.full(4, m.sigma),
    )


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    """log(sum(exp(a))) over one axis, bit for bit as scipy 1.17's
    `scipy.special.logsumexp(a, axis=axis)` computes it for real a.

    The maximum is factored out and the m entries equal to it leave the
    sum, which gives log1p(s / m) + log(m) + max with s the sum of the
    other exp(a - max). Scipy also evaluates log(sum(exp(a))) over the
    whole array, for the slices whose result is not finite. Here those
    come out as that pass gives them without it: with the max entries
    zeroed, a +inf max gives +inf, an all -inf slice -inf, and a nan
    stays nan.
    """
    top = np.max(a, axis=axis, keepdims=True)
    at_top = a == top
    m = np.sum(at_top, axis=axis, keepdims=True, dtype=float)
    with np.errstate(invalid="ignore"):  # inf - inf at an infinite max
        e = np.exp(a - top)
    np.copyto(e, 0.0, where=at_top)
    s = np.sum(e, axis=axis, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):  # m = 0 when a has a nan
        out = np.log1p(s / m) + np.log(m) + top
    return np.squeeze(out, axis=axis)


def mix_seed(seed: int, r: int) -> int:
    """Derive the seed for replicate r (splitmix64 finalizer over seed + r)."""
    z = (int(seed) + (r + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _standard_normals(rng: np.random.Generator, size: int) -> np.ndarray:
    # inverse-CDF transform of the uniform stream: documented and stable
    # across numpy versions, unlike the ziggurat sampler
    u = rng.random(size)
    eps = 2.0 ** -53
    return ndtri(np.clip(u, eps, 1.0 - eps))


def sample_paths(chain: LinearGaussianChain, seeds, n: int, burn_in: int):
    """Sample one path per seed, all rows stepped together.

    Row r draws its uniforms and normals from PCG64(seeds[r]); the chain
    starts from `chain.pi`, Y is initialized at 0, and burn_in steps are
    discarded. Returns (y, y_prev, x): C-ordered observations of shape
    (rows, n), the observation preceding y[:, 0] (0.0 when burn_in = 0),
    and the C-ordered chain states behind y as int8.

    The state and observation recursions run one step at a time; what they
    read that does not depend on them (every state's successor at each
    step, the per-state intercepts, slopes and noise terms) is computed
    vectorized beforehand. Every value equals that of a loop doing all of
    it per step, bit for bit.
    """
    rows = len(seeds)
    total = burn_in + n
    d = chain.d
    # time-major draws, so that one step's values across rows are contiguous
    u_state = np.empty((total + 1, rows))
    eps = np.empty((total, rows))
    for r, seed in enumerate(seeds):
        rng = np.random.Generator(np.random.PCG64(seed))
        u_state[:, r] = rng.random(total + 1)
        eps[:, r] = _standard_normals(rng, total)

    # The state drawn at step t from state j depends on the step's uniform
    # alone: nxt[t, r, j] is it for every j, so the loop is one lookup.
    cum = np.cumsum(chain.transition, axis=1)
    nxt = np.empty((total, rows, d), dtype=np.int8)
    for j in range(d):
        count = np.zeros((total, rows), dtype=np.int8)
        for k in range(d):
            count += cum[j, k] <= u_state[1:]
        nxt[:, :, j] = np.minimum(count, d - 1)
    z = np.minimum((np.cumsum(chain.pi) <= u_state[0, :, None]).sum(axis=1), d - 1)
    del u_state
    states = np.empty((total, rows), dtype=np.int8)
    row_offsets = np.arange(rows) * d
    for t in range(total):
        # the indices are in range by construction; "clip" skips the
        # buffered bounds check of the default mode
        z = np.take(nxt[t], row_offsets + z, out=states[t], mode="clip")
    del nxt

    # y_t = (c[z] + b[z] * y_{t-1}) + s[z] * eps_t, written over eps in place
    c, b, s = chain.c, chain.b, chain.s
    y = np.zeros(rows)
    for t0 in range(0, total, _TIME_BLOCK):
        z_blk = states[t0:t0 + _TIME_BLOCK]
        c_blk, b_blk = c[z_blk], b[z_blk]
        noise = eps[t0:t0 + _TIME_BLOCK]
        noise *= s[z_blk]
        for k in range(z_blk.shape[0]):
            mean = b_blk[k] * y
            mean += c_blk[k]
            y = noise[k]
            y += mean
    y_prev = eps[burn_in - 1].copy() if burn_in > 0 else np.zeros(rows)
    return (np.ascontiguousarray(eps[burn_in:].T), y_prev,
            np.ascontiguousarray(states[burn_in:].T))


def sample_path(m: Model, n: int, burn_in: int = 100, seed: int = 0) -> PathSample:
    """Sample n observations after burn_in discarded steps: the one-row
    call of `sample_paths`.

    The recorded hidden states are the model's primitive states (for
    family B the current X_t, not the pair state). Deterministic in
    (m, n, burn_in, seed).
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    y, y_prev, x = sample_paths(as_chain(m), [seed], n, burn_in)
    x = x[0]
    if isinstance(m, ModelBParams):
        x = x % 2  # pair state (i, j) -> current state j
    return PathSample(y=y[0], x=x, seed=seed, burn_in=burn_in, y_prev=float(y_prev[0]))


def renyi_order(alpha) -> float:
    """A Renyi order as a float: 1.0 for "kl" (any case) and for numbers
    within 1e-8 of 1, the KL limit. Raises ValueError on any other string,
    on a non-number, and on an order that is not finite and > 0."""
    if isinstance(alpha, str):
        if alpha.lower() != "kl":
            raise ValueError(f"alpha {alpha!r} is not a number or 'kl'")
        return 1.0
    if isinstance(alpha, bool) or not isinstance(alpha, numbers.Real):
        raise ValueError(f"alpha must be a number or 'kl', got {alpha!r}")
    order = float(alpha)
    if not 0.0 < order < math.inf:
        raise ValueError(f"alpha must be > 0 and finite, got {alpha}")
    return 1.0 if abs(order - 1.0) < 1e-8 else order


def require_counts(obj, names) -> None:
    """Raise ValueError unless each named field of obj is an integer; a
    float, even an integral one, and a bool are not."""
    for name in names:
        value = getattr(obj, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")


def tail_sds(theta1: Model, theta: Model, orders) -> list[float]:
    """For each Renyi order alpha (1 for KL), the standard deviation of the
    Gaussian tail of the one-step integrand p1^alpha * p^(1 - alpha), or inf
    where the rate of theta1 from theta is infinite.

    The tail is set by the widest emission of each model, largest sd s1
    under theta1 and s under theta: s_eff = (alpha / s1^2 - (alpha - 1) /
    s^2)^(-1/2). For alpha > 1 it decays only when alpha / s1^2 >
    (alpha - 1) / s^2; otherwise the integral diverges for every history,
    and so does the rate. A lattice truncated at +-a keeps a / s_eff
    standard deviations of it.
    """
    s1, s = float(as_chain(theta1).s.max()), float(as_chain(theta).s.max())
    return [math.inf if alpha > 1.0 and alpha * s * s <= (alpha - 1.0) * s1 * s1
            else (alpha / (s1 * s1) - (alpha - 1.0) / (s * s)) ** -0.5
            for alpha in orders]
