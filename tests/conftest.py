"""Shared fixtures: benchmark-case results computed once per session.

The heavy work (8 deterministic case runs, 8 x 100 simulated replications)
is cached at session scope so the module tests and the acceptance suite
draw on the same numbers.
"""

import pytest
from hypothesis import HealthCheck, settings

from hmmdiv import CaseSpec, McConfig, cli, replication_log_ratios
from hmmdiv.cases import ALPHA_GRID, CASES
from hmmdiv.montecarlo import estimate_from_log_ratios

settings.register_profile(
    "suite", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("suite")


def run_diagnosed(specs, methods=cli.METHODS):
    """The rows and per-case diagnostics by name of a run in which no case
    fails: the run layer of `run_cases`, which returns the rows alone."""
    rows, per_case, failed = cli._run_all(*cli._resolve(specs, methods), methods)
    assert failed == {}
    return rows, per_case


@pytest.fixture(scope="session")
def fredholm_cases():
    """{case_id: (rows, diagnostics)} from one Fredholm-only run per
    benchmark case over the full alpha grid at default grid settings, so
    each case builds and solves its two kernels once."""
    out = {}
    for cid, (t1, t) in CASES.items():
        spec = CaseSpec(f"case{cid}", "B", t1, t, ALPHA_GRID)
        rows, diags = run_diagnosed([spec], ("fredholm",))
        out[cid] = rows, diags[spec.name]
    return out


@pytest.fixture(scope="session")
def fredholm_results(fredholm_cases):
    """{(case_id, alpha): Fredholm value} for the full benchmark grid."""
    return {(cid, row.alpha): row.fredholm
            for cid, (rows, _) in fredholm_cases.items() for row in rows}


@pytest.fixture(scope="session")
def mc_log_ratios():
    """{case_id: (reps, n) per-step log ratio matrix} at the default
    simulation settings (n=2000, reps=100, seed=0)."""
    return dict(zip(CASES, replication_log_ratios(list(CASES.values()), McConfig())))


@pytest.fixture(scope="session")
def mc_estimates(mc_log_ratios):
    """{(case_id, alpha): DivergenceEstimate} on the shared replications,
    so every alpha sees identical paths."""
    out = {}
    for cid, rho in mc_log_ratios.items():
        for a in ALPHA_GRID:
            out[(cid, a)] = estimate_from_log_ratios(rho, [1.0 if a == "kl" else a])[0]
    return out
