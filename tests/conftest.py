import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "schemas"
SRC_DIR = Path(__file__).resolve().parent.parent / "src"


def load_schema(name: str) -> dict:
    return json.loads((SCHEMA_DIR / f"{name}.schema.json").read_text())


def run_probe(code: str, *args: str, cwd=None) -> subprocess.CompletedProcess:
    """Run ``python -c code args...`` in a fresh interpreter that imports
    qcontext from this checkout."""
    path = [str(SRC_DIR), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    return subprocess.run(
        [sys.executable, "-c", code, *args], env=env, cwd=cwd, capture_output=True, text=True
    )


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


def random_projector(dim: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    u = haar_unitary(dim, rng)
    cols = u[:, :rank]
    return cols @ cols.conj().T


def _unit_sphere(rng: np.random.Generator, size: int) -> np.ndarray:
    """Uniform points on the unit sphere via normalized Gaussian triples."""
    points = rng.standard_normal((size, 3))
    norms = np.linalg.norm(points, axis=1, keepdims=True)
    # A zero Gaussian triple has probability zero but would divide by zero.
    norms[norms == 0] = 1.0
    return points / norms


def random_unit_vector(rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal(3)
    return g / np.linalg.norm(g)


@pytest.fixture(scope="session")
def nakamura():
    from qcontext import nakamura_family

    return nakamura_family()


@pytest.fixture(scope="session")
def cabello():
    from qcontext import cabello_family

    return cabello_family()
