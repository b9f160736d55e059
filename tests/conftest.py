import itertools
import json
from pathlib import Path

import numpy as np
import pytest

# The subprocess runner lives with the golden cases; tests import it from here.
from golden import SRC_DIR, run_probe

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "schemas"


def load_schema(name: str) -> dict:
    return json.loads((SCHEMA_DIR / f"{name}.schema.json").read_text())


def signed_axes() -> list:
    """The six signed axes as BlochVectors, each with every sign of its two
    zero components."""
    from qcontext import BlochVector

    axes = []
    for axis, sign, zero_a, zero_b in itertools.product(range(3), (1.0, -1.0), (0.0, -0.0), (0.0, -0.0)):
        components = [zero_a, zero_b]
        components.insert(axis, sign)
        axes.append(BlochVector(*components))
    return axes


def reference_projector(v) -> np.ndarray:
    """(I + v.sigma)/2 as numpy evaluates it over the Pauli matrices: the
    exact oracle for ``projector_entries``."""
    identity = np.eye(2, dtype=complex)
    sigma_x = np.array([[0, 1], [1, 0]], dtype=complex)
    sigma_y = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sigma_z = np.array([[1, 0], [0, -1]], dtype=complex)
    return (identity + v.x * sigma_x + v.y * sigma_y + v.z * sigma_z) / 2


def reference_operator(element) -> np.ndarray:
    """weight * (I + v.sigma)/2 in numpy: the exact oracle for an element's
    ``entries``, and the operator of the Born rule's numpy oracle."""
    return float(element.weight) * reference_projector(element.direction)


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
