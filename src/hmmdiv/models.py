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
only ever see it, so they work for general d. Each of the three types
checks its numbers when it is built and raises one ValueError that names
every violated constraint, so the engines take any model as valid.

The one path sampler, `path_blocks`, steps the paths of several chains and
seeds together and yields them a block of time steps at a time, so a
consumer that reduces each block holds no full-length path;
`sample_paths` collects its blocks into whole paths, and `sample_path`
is its one-chain, one-seed call.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_MASK64 = (1 << 64) - 1
# Time steps per block in the simulation loops: the sampler and the filter
# compute what does not depend on the recursion one block at a time. The
# filter's block buffer holds (chains, states, block, paths) floats: for the
# 16 chains of 8 family-B cases at 100 replications, 24 steps make it
# 1.2 MB, while a longer block saves little per-block overhead.
_TIME_BLOCK = 24
# Time blocks whose uniforms the sampler draws per Generator.random call:
# at 100 replications its draw buffer holds 0.15 MB.
_DRAW_BLOCKS = 8


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
        problems = _pair_shape_problems(self, ("mu", "psi", "sigma"))
        if not problems:
            problems = _probability_problems(self, ("p00", "p11"))
            for k in (0, 1):
                if not math.isfinite(self.mu[k]):
                    problems.append(f"mu[{k}] must be finite, got {self.mu[k]}")
                if not abs(self.psi[k]) < 1.0:
                    problems.append(f"|psi[{k}]| < 1 required, got {self.psi[k]}")
                if not 0.0 < self.sigma[k] < math.inf:
                    problems.append(
                        f"sigma[{k}] must be positive and finite, got {self.sigma[k]}")
        _raise_invalid(problems)


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
        problems = _pair_shape_problems(self, ("mu",))
        if not problems:
            problems = _probability_problems(self, ("p01", "p10"))
            terms = {"mu[0]": self.mu[0], "mu[1]": self.mu[1], "psi1": self.psi1,
                     "psi2": self.psi2}
            infinite = [f"{name} must be finite, got {v}"
                        for name, v in terms.items() if not math.isfinite(v)]
            problems += infinite
            if not infinite:
                # finite terms can still overflow in the pair-state intercepts of `as_chain`
                for i, j in np.ndindex(2, 2):
                    mean = self.psi2 * self.mu[i] + self.psi1 * self.mu[j]
                    if not math.isfinite(mean):
                        problems.append(f"pair mean psi2 * mu[{i}] + psi1 * mu[{j}] "
                                        f"must be finite, got {mean}")
            if not abs(self.phi) < 1.0:
                problems.append(f"|phi| < 1 required, got {self.phi}")
            if not 0.0 < self.sigma < math.inf:
                problems.append(f"sigma must be positive and finite, got {self.sigma}")
        _raise_invalid(problems)


def _freeze_pairs(m, names) -> None:
    """Store list- or array-valued per-state fields as tuples, so that a
    model is a hashable value and `==` between models is a plain bool."""
    for name in names:
        value = getattr(m, name)
        if isinstance(value, np.ndarray):
            value = value.tolist()
        if isinstance(value, list):
            object.__setattr__(m, name, tuple(value))


def _pair_shape_problems(m, names) -> list[str]:
    """A per-state tuple of the wrong length is reported alone, since the
    per-state checks cannot run on it."""
    return [f"{name} must have exactly 2 entries, got {getattr(m, name)!r}"
            for name in names if np.shape(getattr(m, name)) != (2,)]


def _probability_problems(m, names) -> list[str]:
    return [f"0 < {name} < 1 required, got {getattr(m, name)}"
            for name in names if not 0.0 < getattr(m, name) < 1.0]


def _raise_invalid(problems: list[str]) -> None:
    """One ValueError naming every violated constraint, not just the first."""
    if problems:
        raise ValueError("invalid model: " + "; ".join(problems))


@dataclass(frozen=True, eq=False)
class LinearGaussianChain:
    """Common filter form: hidden chain with linear-Gaussian emissions.

    State j emits Y | Y_prev ~ N(c[j] + b[j] * Y_prev, s[j]^2). `pi` is the
    chain's initial (stationary, for the model families) distribution.
    The fields are read-only copies, and two chains are equal, and hash
    alike, when their numbers are the same bits.
    """

    pi: np.ndarray
    transition: np.ndarray
    c: np.ndarray
    b: np.ndarray
    s: np.ndarray

    def __post_init__(self):
        names = ("pi", "transition", "c", "b", "s")
        for name in names:
            object.__setattr__(self, name, np.array(getattr(self, name), dtype=float))
            getattr(self, name).flags.writeable = False
        if self.pi.ndim != 1:
            _raise_invalid([f"pi must be a vector, got shape {self.pi.shape}"])
        d = self.pi.shape[0]
        if self.transition.shape != (d, d):
            _raise_invalid(["transition shape must match pi length"])
        if not (self.c.shape == self.b.shape == self.s.shape == (d,)):
            _raise_invalid(["emission parameter vectors must have length d"])
        problems = [f"{name} must be finite, got {getattr(self, name)}"
                    for name in names if not np.all(np.isfinite(getattr(self, name)))]
        if np.any(self.s <= 0.0):
            problems.append("emission standard deviations must be positive")
        if np.any(self.transition < 0.0) or np.any(self.transition > 1.0):
            problems.append("transition probabilities must lie in [0, 1]")
        if abs(self.pi.sum() - 1.0) > 1e-12 or np.any(self.pi < 0):
            problems.append("pi must be a probability vector")
        if np.any(np.abs(self.transition.sum(axis=1) - 1.0) > 1e-12):
            problems.append("transition rows must sum to 1")
        _raise_invalid(problems)
        keys = [np.array([self.c[t], self.b[t], self.s[t]]).tobytes() for t in range(d)]
        object.__setattr__(self, "_emission_reps", tuple(keys.index(key) for key in keys))

    @property
    def d(self) -> int:
        return self.pi.shape[0]

    def _numbers(self) -> tuple:
        return tuple(getattr(self, name).tobytes() for name in ("pi", "transition", "c", "b", "s"))

    def __eq__(self, other):
        return isinstance(other, LinearGaussianChain) and self._numbers() == other._numbers()

    def __hash__(self):
        return hash(self._numbers())

    def emission_reps(self) -> list[int]:
        """For each state, the first state with the same emission numbers
        (c, b, s): what depends on the emission alone is computed once."""
        return list(self._emission_reps)


def _gauss_log_pdf(y, y_prev, c, b, s, out=None, tmp=None):
    """log N(y; c + b * y_prev, s^2) with broadcasting, as z = ((y - c) -
    b * y_prev) / s, then (-0.5 * z) * z - log(s * sqrt(2 pi)); given `out`
    and `tmp` of the result's shape, z is formed in out and the result in tmp."""
    z = np.subtract(np.subtract(y, c, out=out), np.multiply(b, y_prev, out=tmp), out=out)
    z /= s
    r = np.multiply(-0.5, z, out=tmp)
    r *= z
    r -= np.log(s * _SQRT_2PI)
    return r


@dataclass(frozen=True)
class PathSample:
    """A sampled observation path with the hidden states that produced it.

    `y_prev` is the observation immediately preceding y[0] (the last burn-in
    draw, or the 0.0 initializer when burn_in = 0); likelihoods of the path
    condition on it.
    """

    y: np.ndarray
    x: np.ndarray
    y_prev: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float))
        object.__setattr__(self, "x", np.asarray(self.x, dtype=np.int64))
        if self.y.shape != self.x.shape:
            raise ValueError("y and x must have equal length")


Model = ModelAParams | ModelBParams | LinearGaussianChain


def transition_matrix(m: ModelAParams | ModelBParams) -> np.ndarray:
    """The 2-state transition matrix of either family."""
    if isinstance(m, ModelAParams):
        rows = [[m.p00, 1.0 - m.p00], [1.0 - m.p11, m.p11]]
    else:
        rows = [[1.0 - m.p01, m.p01], [m.p10, 1.0 - m.p10]]
    return np.array(rows, dtype=float)


def as_chain(m: Model) -> LinearGaussianChain:
    """Reduce any supported model to the common filter form; a chain is
    returned as it is. Every model was checked when it was built.

    Both families start from the 2-state matrix P, whose stationary law is
    (p10, p01) / (p01 + p10). Family B is lifted onto the pair states
    (i, j), ordered (0,0), (0,1), (1,0), (1,1): (i, j) moves only to
    (j, k), with probability P[j, k], and has stationary mass
    pi[i] * P[i, j]. In both forms chain state s ends in primitive state
    s % 2: pair state s = 2i + j ends in j.
    """
    if isinstance(m, LinearGaussianChain):
        return m
    if not isinstance(m, (ModelAParams, ModelBParams)):
        raise TypeError(f"not a model: {type(m).__name__}")
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


def _logsumexp(a: np.ndarray, axis: int, scratch: np.ndarray | None = None,
               top: np.ndarray | None = None) -> np.ndarray:
    """log(sum(exp(a))) over one axis, bit for bit as scipy 1.17's
    `scipy.special.logsumexp(a, axis=axis)` computes it for real a.
    The exponentials are formed in place, in `scratch` when given: a float
    array of a's shape, which may be a itself and is then overwritten.
    `top`, when given, is a's maximum over the axis with keepdims, as the
    caller already took it.

    The maximum is factored out and the m entries equal to it leave the
    sum, which gives log1p(s / m) + log(m) + max with s the sum of the
    other exp(a - max). Scipy also evaluates log(sum(exp(a))) over the
    whole array, for the slices whose result is not finite. Here those
    come out as that pass gives them without it: with the max entries
    zeroed, a +inf max gives +inf, an all -inf slice -inf, and a nan
    stays nan.
    """
    if top is None:
        top = np.max(a, axis=axis, keepdims=True)
    at_top = a == top
    m = np.count_nonzero(at_top, axis=axis, keepdims=True).astype(float)
    with np.errstate(invalid="ignore"):  # inf - inf at an infinite max
        e = np.subtract(a, top, out=scratch)
        np.exp(e, out=e)
    np.copyto(e, 0.0, where=at_top)
    s = np.sum(e, axis=axis, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):  # m = 0 when a has a nan
        s = np.log1p(np.divide(s, m, out=s), out=s)  # then log1p(s / m) + log(m) + top
        s += np.log(m, out=m)
        s += top
    return np.squeeze(s, axis=axis)


def mix_seed(seed: int, r: int) -> int:
    """Derive the seed for replicate r (splitmix64 finalizer over seed + r)."""
    z = (int(seed) + (r + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


# Cephes `ndtri` (S. L. Moshier, Methods and Programs for Mathematical
# Functions, 1989), as scipy.special.ndtri evaluates it: P0/Q0 on the central
# range, P1/Q1 and P2/Q2 in the tails, below and from sqrt(-2 log y) = 8.
_NDTRI_P0 = (-5.99633501014107895267E1, 9.80010754185999661536E1, -5.66762857469070293439E1,
             1.39312609387279679503E1, -1.23916583867381258016E0)
_NDTRI_Q0 = (1.95448858338141759834E0, 4.67627912898881538453E0, 8.63602421390890590575E1,
             -2.25462687854119370527E2, 2.00260212380060660359E2, -8.20372256168333339912E1,
             1.59056225126211695515E1, -1.18331621121330003142E0)
_NDTRI_P1 = (4.05544892305962419923E0, 3.15251094599893866154E1, 5.71628192246421288162E1,
             4.40805073893200834700E1, 1.46849561928858024014E1, 2.18663306850790267539E0,
             -1.40256079171354495875E-1, -3.50424626827848203418E-2,
             -8.57456785154685413611E-4)
_NDTRI_Q1 = (1.57799883256466749731E1, 4.53907635128879210584E1, 4.13172038254672030440E1,
             1.50425385692907503408E1, 2.50464946208309415979E0, -1.42182922854787788574E-1,
             -3.80806407691578277194E-2, -9.33259480895457427372E-4)
_NDTRI_P2 = (3.23774891776946035970E0, 6.91522889068984211695E0, 3.93881025292474443415E0,
             1.33303460815807542389E0, 2.01485389549179081538E-1, 1.23716634817820021358E-2,
             3.01581553508235416007E-4, 2.65806974686737550832E-6, 6.23974539184983293730E-9)
_NDTRI_Q2 = (6.02427039364742014255E0, 3.67983563856160859403E0, 1.37702099489081330271E0,
             2.16236993594496635890E-1, 1.34204006088543189037E-2, 3.28014464682127739104E-4,
             2.89247864745380683936E-6, 6.79019408009981274425E-9)
_EXP_M2 = 0.13533528323661269189  # exp(-2): the central range is (exp(-2), 1 - exp(-2)]
_S2PI = 2.50662827463100050242  # Cephes' sqrt(2 pi), one ulp off math.sqrt(2 * math.pi)


def _rational(x: np.ndarray, p: tuple, q: tuple) -> np.ndarray:
    """x * P(x) / Q(x) as Cephes forms z * polevl(z, P) / p1evl(z, Q):
    Horner from p[0], and Q with an implied leading coefficient 1."""
    num = p[0] * x
    num += p[1]
    for coef in p[2:]:
        num *= x
        num += coef
    den = x + q[0]
    for coef in q[1:]:
        den *= x
        den += coef
    num *= x
    num /= den
    return num


def _standard_normals(u: np.ndarray) -> np.ndarray:
    """The inverse normal CDF of the uniforms u, clipped to [2^-53,
    1 - 2^-53], as a new array of u's shape.

    An inverse-CDF transform is documented and stable across numpy
    versions, unlike the ziggurat sampler. This is Cephes `ndtri` in
    numpy, in Cephes' order of operations: with libm's log every value
    is scipy.special.ndtri's bit for bit. The tails use np.log, so on an
    AVX-512 host about 1 normal in 16,000-18,000 differs from scipy's in
    the last bits (at most a few ulps). The central formula runs on the
    whole array; the tail values, about 27%, are reached by one index.
    """
    eps = 2.0 ** -53
    y = np.clip(u, eps, 1.0 - eps)
    t = y - 0.5
    x = _rational(t * t, _NDTRI_P0, _NDTRI_Q0)
    x *= t
    x += t
    x *= _S2PI
    tail = np.flatnonzero((y <= _EXP_M2) | (y > 1.0 - _EXP_M2))
    if tail.size:
        y = y.take(tail)
        upper = y > 1.0 - _EXP_M2
        np.subtract(1.0, y, out=y, where=upper)
        r = np.sqrt(-2.0 * np.log(y))
        z = 1.0 / r
        x1 = _rational(z, _NDTRI_P1, _NDTRI_Q1)
        far = np.flatnonzero(r >= 8.0)  # y <= exp(-32)
        if far.size:
            x1.put(far, _rational(z.take(far), _NDTRI_P2, _NDTRI_Q2))
        r = (r - np.log(r) / r) - x1
        np.negative(r, out=r, where=~upper)
        x.put(tail, r)
    return x


def path_blocks(chains, seeds, n: int, burn_in: int):
    """Sample one path per (chain, seed), all rows stepped together, and
    yield the n observed steps block by block.

    Row (i, r) follows chains[i] from a state drawn from its `pi`, with Y
    initialized at 0, and discards burn_in steps. Its draws come from
    PCG64(seeds[r]): the first uniform picks the starting state and the
    next burn_in + n step the chain; the noise is the inverse normal CDF
    of the uniforms after those, read from a second PCG64(seeds[r])
    advanced past them, so a seed's one stream is read in two places at
    once, _DRAW_BLOCKS blocks' worth per call. The rows of every chain
    read the same draws.

    Yields (y, x) for each block of m <= _TIME_BLOCK observed steps:
    time-major y of shape (m + 1, k, rows), whose row 0 is the observation
    before the block (0.0 before the first when burn_in = 0), and the chain
    states behind y[1:] as int8 of shape (m, k, rows). The buffers are
    reused by the next block; a block is valid until the next is asked for.
    The arguments are checked when the first block is asked for: no
    chains, a non-integer n, burn_in or seed, n < 1, burn_in < 0 and
    seed < 0 raise ValueError.

    The state and observation recursions run one step at a time over all
    rows; what they read that does not depend on them (every state's
    successor at each step, the per-state intercepts, slopes and noise
    terms) is computed vectorized per block, the standard normals once
    per draw. Every value equals that of a loop doing all of it per step
    for one chain, bit for bit.
    """
    if not chains:
        raise ValueError("at least one chain is needed to sample paths")
    require_counts(n=n, burn_in=burn_in)
    for seed in seeds:
        require_counts(seed=seed)
        if seed < 0:
            raise ValueError(f"seed must be nonnegative, got {seed}")
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    if burn_in < 0:
        raise ValueError(f"burn_in must be nonnegative, got {burn_in}")
    k, rows = len(chains), len(seeds)
    total = int(burn_in) + int(n)  # PCG64.advance rejects numpy integers
    d = max(chain.d for chain in chains)
    state_rngs, noise_rngs = [], []
    for seed in seeds:
        state_rngs.append(np.random.Generator(np.random.PCG64(seed)))
        noise = np.random.PCG64(seed)
        noise.advance(total + 1)
        noise_rngs.append(np.random.Generator(noise))

    # Per-state tables of the k chains, padded to d states; a padded
    # threshold is inf and never reached.
    cum = np.full((k, d, d), np.inf)
    start = np.full((k, d), np.inf)
    c, b, s = (np.zeros(k * d) for _ in range(3))
    for i, chain in enumerate(chains):
        cum[i, :chain.d, :chain.d] = np.cumsum(chain.transition, axis=1)
        start[i, :chain.d] = np.cumsum(chain.pi)
        for table, values in ((c, chain.c), (b, chain.b), (s, chain.s)):
            table[i * d:i * d + chain.d] = values
    last = np.array([chain.d - 1 for chain in chains])[:, None]
    # The state drawn at a step from state j is the count of j's thresholds
    # at or below the step's uniform u, at most d - 1. That count is the same
    # for every u between two consecutive thresholds of the union T, so
    # successor[searchsorted(T, u)] holds it for every chain and state.
    thresholds = np.unique(cum[np.isfinite(cum)])
    counts = (cum[None] <= thresholds[:, None, None, None]).sum(axis=-1)
    successor = np.minimum(np.concatenate((np.zeros((1, k, d), dtype=np.intp), counts)),
                           last).astype(np.int8)
    u0 = np.array([rng.random() for rng in state_rngs])
    z = np.minimum((start[:, None, :] <= u0[:, None]).sum(axis=-1), last).astype(np.int8).ravel()

    block = min(total, _TIME_BLOCK)
    # seed-major draws of up to _DRAW_BLOCKS blocks, read transposed; the state
    # draws are kept as their cells among the thresholds, so the noise reuses it
    u = np.empty((rows, min(total, _DRAW_BLOCKS * block)))
    cell_type = np.min_scalar_type(len(thresholds))
    x = np.empty((block, k * rows), dtype=np.int8)
    y = np.zeros((block + 1, k * rows))  # row 0: the observation before the block
    mean = np.empty(k * rows)
    # row (i, r) of a step's successor table (rows, k, d) starts at (r k + i) d
    offsets = ((np.arange(rows) * k + np.arange(k)[:, None]) * d).ravel()
    chain_base = (np.arange(k) * d)[:, None]
    idx = np.empty(k * rows, dtype=np.intp)
    bounds = [*range(0, burn_in, block), *range(burn_in, total, block), total]
    for blk, (t0, t1) in enumerate(zip(bounds, bounds[1:])):
        m = t1 - t0
        if blk % _DRAW_BLOCKS == 0:  # the next blocks' draws, one call per stream
            t_draw, ahead = t0, bounds[min(blk + _DRAW_BLOCKS, len(bounds) - 1)] - t0
            for r, rng in enumerate(state_rngs):
                rng.random(out=u[r, :ahead])
            cells = np.searchsorted(thresholds, u[:, :ahead].T, side="right").astype(cell_type)
            for r, rng in enumerate(noise_rngs):
                rng.random(out=u[r, :ahead])
            noise = _standard_normals(u[:, :ahead])
        drawn = slice(t0 - t_draw, t1 - t_draw)
        successors = successor[cells[drawn]]
        for t in range(m):
            # the indices are in range by construction; "clip" skips the
            # buffered bounds check of the default mode
            z = successors[t].take(np.add(offsets, z, out=idx), out=x[t], mode="clip")
        # y_t = (c[z] + b[z] * y_{t-1}) + s[z] * eps_t, written over the noise
        states = x[:m].reshape(m, k, rows) + chain_base
        c_blk, b_blk = c[states].reshape(m, -1), b[states].reshape(m, -1)
        np.multiply(noise[:, drawn].T[:, None, :], s[states],
                    out=y[1:m + 1].reshape(m, k, rows))
        for t in range(m):
            np.multiply(b_blk[t], y[t], out=mean)
            mean += c_blk[t]
            np.add(y[t + 1], mean, out=y[t + 1])
        del successors, states, c_blk, b_blk  # not held while the consumer runs
        if t0 >= burn_in:
            yield y[:m + 1].reshape(m + 1, k, rows), x[:m].reshape(m, k, rows)
        y[0] = y[m]


def sample_paths(chains, seeds, n: int, burn_in: int):
    """The paths of `path_blocks` whole: C-ordered observations of shape
    (k, rows, n), the observation preceding y[..., 0] (0.0 when burn_in =
    0) of shape (k, rows), and the C-ordered chain states behind y as int8.
    """
    t0 = 0
    for y_blk, x_blk in path_blocks(chains, seeds, n, burn_in):
        if t0 == 0:  # allocated once `path_blocks` has checked the arguments
            y_prev = y_blk[0].copy()
            y = np.empty((*y_prev.shape, n))
            x = np.empty((*y_prev.shape, n), dtype=np.int8)
        m = len(x_blk)
        y[..., t0:t0 + m] = y_blk[1:].transpose(1, 2, 0)
        x[..., t0:t0 + m] = x_blk.transpose(1, 2, 0)
        t0 += m
    return y, y_prev, x


def sample_path(m: Model, n: int, burn_in: int = 100, seed: int = 0) -> PathSample:
    """Sample n observations after burn_in discarded steps: the one-row,
    one-chain call of `sample_paths`.

    The recorded hidden states are the model's primitive states (for
    family B the current X_t, not the pair state). Deterministic in
    (m, n, burn_in, seed).
    """
    y, y_prev, x = sample_paths([as_chain(m)], [seed], n, burn_in)
    x = x[0, 0]
    if isinstance(m, ModelBParams):
        x = x % 2  # pair state (i, j) -> current state j
    return PathSample(y=y[0, 0], x=x, y_prev=float(y_prev[0, 0]))


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


def require_counts(**counts) -> None:
    """Raise ValueError, naming the first offender, unless each value is an
    integer; a float, even an integral one, and a bool are not."""
    for name, value in counts.items():
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
