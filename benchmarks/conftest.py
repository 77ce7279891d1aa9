"""Shared fixtures for the figure benchmarks.

Benchmark scale is deliberately small (the engine is pure Python): the IMDB
dataset uses a small scale factor and the synthetic sweeps use reduced table
sizes.  The *shape* of each figure — who wins and how the gap evolves with
the swept parameter — is what these benchmarks reproduce.
"""

from __future__ import annotations

import pytest

from repro.engine.session import Session
from repro.workloads.imdb import generate_imdb_catalog
from repro.workloads.job import job_query_groups
from repro.workloads.synthetic import SyntheticConfig, generate_synthetic_catalog

#: Scale factor of the IMDB-like dataset used by the Figure 3 benchmarks.
IMDB_SCALE = 0.03

#: Synthetic table size used by the Figure 4 benchmarks.
SYNTHETIC_TABLE_SIZE = 2_000


@pytest.fixture(scope="session")
def imdb_session() -> Session:
    """Session over the benchmark IMDB-like dataset."""
    catalog = generate_imdb_catalog(scale=IMDB_SCALE, seed=7)
    return Session(catalog, stats_sample_size=5_000)


@pytest.fixture(scope="session")
def job_queries():
    """The 33 combined JOB-style queries."""
    return job_query_groups()


@pytest.fixture(scope="session")
def synthetic_session() -> Session:
    """Session over the benchmark synthetic dataset."""
    catalog = generate_synthetic_catalog(
        SyntheticConfig(table_size=SYNTHETIC_TABLE_SIZE, seed=42)
    )
    return Session(catalog, stats_sample_size=SYNTHETIC_TABLE_SIZE)
