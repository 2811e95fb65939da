"""Shared fixtures: session-cached heavy computations.

Sup-norm searches, interpolation error sweeps and the near-best fits are
the expensive parts of the suite; every test that needs one goes through
these lru-cached accessors so each (input) combination runs once.
"""

import functools
import os
from pathlib import Path

import pytest

import bernsteinlab as bl

# tests that start `python -m bernsteinlab.cli` in a subprocess import the
# same src/ as this process, also when PYTHONPATH does not name it
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))

# best-approximation constants used as reference lower bounds
DELTA_INF = {0.5: 0.348648, 1.0: 0.280169}


@pytest.fixture(scope="session")
def h_norm():
    @functools.lru_cache(maxsize=None)
    def get(alpha: float) -> bl.SupNormReport:
        return bl.sup_norm_H(alpha)

    return get


@pytest.fixture(scope="session")
def h1_norm():
    @functools.lru_cache(maxsize=None)
    def get(alpha: float) -> bl.SupNormReport:
        return bl.sup_norm_H1(alpha)

    return get


@pytest.fixture(scope="session")
def scaled_err():
    @functools.lru_cache(maxsize=None)
    def get(scheme: str, alpha: float, n: int) -> bl.InterpError:
        return bl.sup_error(bl.build_nodes(scheme, n), alpha)

    return get


@pytest.fixture(scope="session")
def nb_solution():
    @functools.lru_cache(maxsize=None)
    def get(alpha: float) -> bl.NearBestSolution:
        return bl.optimize_c(alpha, reference_delta=DELTA_INF.get(alpha))

    return get
