"""Fixtures for the ledger's own tests (``python -m pytest benchmarks/perf``).

These are not part of the tier-1 suite (``testpaths = ["tests"]``): the
legacy-equivalence test runs a full 256-QP round.
"""

import pytest

import run  # noqa: F401  (puts src/ and this directory on sys.path)
import scenarios


@pytest.fixture(scope="session")
def checked_round():
    """``checked_round(name, seed=7)`` -> RoundResult of one untraced round,
    built once per session."""
    cache = {}

    def get(name, seed=scenarios.REFERENCE_SEED):
        if (name, seed) not in cache:
            cache[name, seed] = run.one_round(scenarios.SCENARIOS[name], seed)[0]
        return cache[name, seed]

    return get
