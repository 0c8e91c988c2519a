"""Reference evaluators and named model pairs that the tests share.

No engine path calls these evaluators; they are deliberately independent
of the code they check. `brute_force_log_likelihood` sums the
complete-data density over every hidden path, and `matrix_log_likelihood`
multiplies the density matrices

    M_t[j, i] = P[i, j] f_j(y_t | y_{t-1})

against pi with max-rescaling instead of the filter's sum-rescaling. Both
agree with `forward.log_likelihood` to 1e-9 on short paths, and take a
1-D, finite y and a finite y_prev, raising ValueError otherwise.
`simulate_q` is the indicator simulation of `fredholm.q`, and
`gaussian_kl` and `gaussian_renyi` are the closed forms of two Gaussians,
which case 8's i.i.d. models reduce to (`CASE8_CLOSED_FORM`).
`emission_log_pdf` is the exception: it evaluates a chain's emission
densities with the engine's own `models._gauss_log_pdf`, so that a check
of the filter's in-place density fill compares the same bits.
"""

import itertools
import math

import numpy as np

from hmmdiv import DegenerateInputError, ModelAParams, ModelBParams, as_chain
from hmmdiv.forward import _UNDERFLOW, _observations
from hmmdiv.models import Model, _gauss_log_pdf

# state-dependent AR coefficients and noise scales: the filter's two
# variances differ, so Q takes the chi-square closed form, and every state
# has its own emission
FAMILY_A_PAIR = (ModelAParams(0.6, 0.7, (0.5, -0.5), (0.2, -0.1), (1.0, 1.4)),
                 ModelAParams(0.5, 0.5, (0.8, -0.2), (0.1, 0.3), (1.2, 0.9)))

# persistent hidden chains (p01 = p10 = 0.2 and 0.05) with the emissions of
# cases 1-3, phi = 0 and psi2 = 0: the filter weights crowd toward 0 and 1,
# and on P05 the lattice engine gives a Renyi value below zero at orders
# 0.5 and 0.8
P20 = (ModelBParams(0.2, 0.2, (2.0, 1.0), 0.0, 1.0, 0.0, 1.0),
       ModelBParams(0.2, 0.2, (1.0, 0.0), 0.0, 1.0, 0.0, 1.1))
P05 = (ModelBParams(0.05, 0.05, (2.0, 1.0), 0.0, 1.0, 0.0, 1.0),
       ModelBParams(0.05, 0.05, (1.0, 0.0), 0.0, 1.0, 0.0, 1.1))

# case 8 closed forms: theta1 is i.i.d. N(2, 0.81), theta is i.i.d. N(1, 1)
CASE8_CLOSED_FORM = {"kl": 0.51036, 0.5: 0.28178, 2.0: 0.85874}


def gaussian_kl(mu1: float, s1: float, mu2: float, s2: float) -> float:
    """KL(N(mu1, s1^2) || N(mu2, s2^2))."""
    return (
        math.log(s2 / s1)
        + (s1 * s1 + (mu1 - mu2) ** 2) / (2.0 * s2 * s2)
        - 0.5
    )


def gaussian_renyi(mu1: float, s1: float, mu2: float, s2: float,
                   alpha: float) -> float:
    """Renyi divergence D_alpha(N(mu1, s1^2) || N(mu2, s2^2)); requires the
    mixed variance (1-alpha) s1^2 + alpha s2^2 to be positive."""
    v1, v2 = s1 * s1, s2 * s2
    va = (1.0 - alpha) * v1 + alpha * v2
    if va <= 0:
        raise ValueError("Renyi divergence of this order is infinite")
    return (
        alpha * (mu1 - mu2) ** 2 / (2.0 * va)
        - (math.log(va / (v1 ** (1.0 - alpha) * v2 ** alpha))) / (2.0 * (alpha - 1.0))
    )


def emission_log_pdf(chain, y, y_prev):
    """Log emission densities of a chain form, one per state on the last
    axis; broadcasts over y and y_prev."""
    y = np.asarray(y, dtype=float)[..., None]
    y_prev = np.asarray(y_prev, dtype=float)[..., None]
    return _gauss_log_pdf(y, y_prev, chain.c, chain.b, chain.s)


def brute_force_log_likelihood(m: Model, y: np.ndarray, y_prev: float = 0.0) -> float:
    """Exact likelihood by summing over every hidden path. Exponential in n;
    refuses inputs with more than 2^20 paths."""
    chain = as_chain(m)
    y, y_prev = _observations(y, y_prev)
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
    log_f = np.vstack([emission_log_pdf(chain, y[t], prevs[t]) for t in range(n)])
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
    y, y_prev = _observations(y, y_prev)
    n = y.shape[0]
    v = chain.pi.copy()
    log_scale = 0.0
    prev = y_prev
    for t in range(n):
        f = np.exp(emission_log_pdf(chain, float(y[t]), prev))
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


def simulate_q(x, u, w, t: int, theta_gen, theta_filt, rng: np.random.Generator,
               size: int) -> float:
    """Indicator simulation of `fredholm.q`: the share of `size` draws of Y
    from state t of theta_gen's chain form (from rng's standard normals) at
    which the filter's signed mixture sum_s sign_s pred_s f_s(y | u) is
    <= 0, evaluated directly."""
    gen, filt = as_chain(theta_gen), as_chain(theta_filt)
    y = gen.c[t] + gen.b[t] * u + gen.s[t] * rng.standard_normal(size)
    g = np.zeros(size)
    for s in range(filt.d):
        pred = w * filt.transition[0, s] + (1 - w) * filt.transition[1, s]
        f = np.exp(-0.5 * ((y - filt.c[s] - filt.b[s] * u) / filt.s[s]) ** 2) / filt.s[s]
        g += (1 - x if s % 2 == 0 else -x) * pred * f
    return float(np.mean(g <= 0))
