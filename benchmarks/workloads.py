"""The benchmark's workloads: fixed case pairs, sizes and thread counts.

Each workload is one closed-loop batch: a single `hmmdiv.cli.run_cases`
call over a list of `CaseSpec`s, issued again only after the previous call
returned. The workload seed only becomes `McConfig.seed`, so it picks the
simulation substreams; the case pairs, orders and sizes are fixed.

Why these workloads:

- `paper-table` is the paper's table at its default settings (8 bundled
  family-B pairs x the 9 orders of ALPHA_GRID, both engines, one thread).
  It is bound by the Renyi quadrature (`j_alpha`, 8 calls per case), so
  work shared across orders shows here.
- `kl-mixed` computes KL only, for 3 fixed family-A pairs and the 8
  bundled pairs, both engines, one thread. `j_alpha` makes no calls, so an
  alpha-sharing change should leave it unchanged; it is kernel- and
  MC-bound and the only workload that runs the family-A code paths
  (chi-square Q, two-state kernel, two-state mixture).
- `mc-long-2t` runs the simulation engine alone with 5x longer paths on
  two threads: path sampling and the per-step filter loop under the
  thread pool, and the workload with the largest memory footprint.
- `smoke` is a one-case table that touches every layer in about a second;
  the benchmark's own tests use it.

Which layer metric should move `table_wall_s` on which workload:

- `fredholm.j_alpha`: `paper-table` only; it makes no calls elsewhere.
- `fredholm.build_kernel` (`cascade_s` is the psi2 != 0 root-cascade path,
  case 7) and `fredholm.j_log`: `kl-mixed` most, then `paper-table`.
- `fredholm.solve_invariant`: a few milliseconds per call, well under 1% of
  any table, so no workload can show a gain from it.
- `forward.batch_log_normalizers` and `montecarlo.replication_log_ratios`:
  `mc-long-2t`, then `kl-mixed`; also `peak_rss_mb` on `mc-long-2t`.
- `montecarlo.estimate_from_log_ratios` and `cli.run_cases.self_s` (the
  orchestration and thread-pool overhead): `mc-long-2t`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from hmmdiv import cases
from hmmdiv.cli import CaseSpec
from hmmdiv.models import ModelAParams
from hmmdiv.montecarlo import McConfig

FREDHOLM_LAYERS = frozenset({
    "fredholm.build_kernel", "fredholm.solve_invariant", "fredholm.j_log",
})
MC_LAYERS = frozenset({
    "montecarlo.replication_log_ratios", "forward.batch_log_normalizers",
    "montecarlo.estimate_from_log_ratios",
})
ALL_LAYERS = FREDHOLM_LAYERS | MC_LAYERS | {"fredholm.j_alpha"}

# Random family-A draws often fail the lattice gate (GridTooCoarseError) at
# the default N = 16, a = 15; each of these passes it and the cross-engine
# check at several seeds.
FAMILY_A_PAIRS = {
    # the selftest pair: state-dependent AR coefficients and noise scales
    "a-selftest": (
        ModelAParams(0.6, 0.7, (0.5, -0.5), (0.2, -0.1), (1.0, 1.4)),
        ModelAParams(0.5, 0.5, (0.8, -0.2), (0.1, 0.3), (1.2, 0.9)),
    ),
    # case 1 written in family A: the same KL (0.1773), a cross-family anchor
    "a-case1": (
        ModelAParams(0.59, 0.4, (2.0, 1.0), (0.0, 0.0), (1.5, 1.5)),
        ModelAParams(0.59, 0.4, (1.0, 0.0), (0.0, 0.0), (2.0, 2.0)),
    ),
    # case 6 written in family A: an AR term on the chi-square Q path
    "a-case6": (
        ModelAParams(0.401, 0.6, (2.0, 1.0), (0.3, 0.3), (1.1, 1.1)),
        ModelAParams(0.401, 0.6, (1.0, 0.0), (0.2, 0.2), (1.0, 1.0)),
    ),
}


@dataclass(frozen=True)
class Workload:
    name: str
    methods: tuple
    threads: int  # HMMDIV_THREADS during the run
    layers: frozenset  # probed layers that must make calls
    specs: Callable[[int], list[CaseSpec]]  # seed -> cases


def _bundled(alphas, mc: McConfig) -> list[CaseSpec]:
    return [
        CaseSpec(f"case{k}", "B", t1, t, alphas, mc=mc)
        for k, (t1, t) in sorted(cases.CASES.items())
    ]


def _kl_mixed(seed: int) -> list[CaseSpec]:
    mc = McConfig(seed=seed)
    family_a = [
        CaseSpec(name, "A", t1, t, ("kl",), mc=mc)
        for name, (t1, t) in FAMILY_A_PAIRS.items()
    ]
    return family_a + _bundled(("kl",), mc)


def _smoke(seed: int) -> list[CaseSpec]:
    t1, t = cases.CASES[1]
    return [CaseSpec("case1", "B", t1, t, (0.5, "kl"),
                     mc=McConfig(n=400, reps=20, seed=seed))]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("paper-table", ("mc", "fredholm"), 1, ALL_LAYERS,
                 lambda seed: _bundled(cases.ALPHA_GRID, McConfig(seed=seed))),
        Workload("kl-mixed", ("mc", "fredholm"), 1,
                 ALL_LAYERS - {"fredholm.j_alpha"}, _kl_mixed),
        Workload("mc-long-2t", ("mc",), 2, MC_LAYERS,
                 lambda seed: _bundled(cases.ALPHA_GRID, McConfig(n=10000, seed=seed))),
        Workload("smoke", ("mc", "fredholm"), 1, ALL_LAYERS, _smoke),
    )
}
