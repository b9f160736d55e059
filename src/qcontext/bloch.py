"""Bloch-sphere geometry: unit vectors, qubit operators, and the two vertex solids."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .tables import CABELLO_CONTEXT_LETTERS

#: Tolerance for closed-form algebraic identities in double precision.
ATOL = 1e-12

#: Dot-product tolerance for finding antipodes and cubes: ``inscribed_cubes``
#: takes caller vertex sets, whose vectors are unit only to ``ATOL``.
STRUCTURE_TOL = 1e-9

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
IDENTITY2 = np.eye(2, dtype=complex)

GOLDEN_RATIO = (1 + math.sqrt(5)) / 2


def _require_finite(x: float, y: float, z: float) -> None:
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
        raise ValueError(f"invalid direction: non-finite component in ({x!r}, {y!r}, {z!r})")


@dataclass(frozen=True)
class BlochVector:
    """Unit 3-vector on the Bloch sphere.

    Construction rejects non-finite components and non-unit input
    (|x^2+y^2+z^2 - 1| > 1e-12); use ``BlochVector.normalized`` to build
    one from an arbitrary direction.
    """

    x: float
    y: float
    z: float

    def __post_init__(self):
        _require_finite(self.x, self.y, self.z)
        norm_sq = self.x * self.x + self.y * self.y + self.z * self.z
        if abs(norm_sq - 1.0) > ATOL:
            raise ValueError(f"invalid direction: not a unit vector, |v|^2 = {norm_sq!r}")

    @classmethod
    def normalized(cls, x: float, y: float, z: float) -> "BlochVector":
        _require_finite(x, y, z)
        # hypot scales internally: tiny components do not underflow to zero.
        norm = math.hypot(x, y, z)
        if norm == 0.0:
            raise ValueError("invalid direction: cannot normalize the zero vector")
        return cls(x / norm, y / norm, z / norm)

    @classmethod
    def from_array(cls, arr) -> "BlochVector":
        x, y, z = (float(c) for c in arr)
        return cls(x, y, z)

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])

    def dot(self, other: "BlochVector") -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def antipode(self) -> "BlochVector":
        return BlochVector(-self.x, -self.y, -self.z)


def projector_from_bloch(v: BlochVector) -> np.ndarray:
    """Rank-1 projector (I + v.sigma)/2 onto the pure state pointing along v.

    Hermitian, idempotent, trace 1; the antipodal direction gives the
    orthogonal complement.
    """
    return (IDENTITY2 + v.x * SIGMA_X + v.y * SIGMA_Y + v.z * SIGMA_Z) / 2


def is_hermitian(op: np.ndarray, atol: float = ATOL) -> bool:
    return bool(np.max(np.abs(op - op.conj().T)) <= atol)


def is_projector(op: np.ndarray, atol: float = ATOL) -> bool:
    """Hermitian and idempotent (no rank constraint)."""
    return is_hermitian(op, atol) and bool(np.max(np.abs(op @ op - op)) <= atol)


def is_density_operator(op: np.ndarray, atol: float = 1e-9) -> bool:
    """Hermitian, unit trace, positive semidefinite."""
    if not is_hermitian(op, atol):
        return False
    if abs(np.trace(op).real - 1.0) > atol:
        return False
    return bool(np.min(np.linalg.eigvalsh(op)) >= -atol)


@dataclass(frozen=True)
class VertexSet:
    """Antipodally paired unit vectors with one letter label per pair.

    ``pairs[i]`` holds (plus_index, minus_index) for the pair labeled
    ``labels[i]``; signed names like "A+" resolve through ``direction``.
    """

    vertices: tuple[BlochVector, ...]
    pairs: tuple[tuple[int, int], ...]
    labels: tuple[str, ...]

    def __post_init__(self):
        if len(self.labels) != len(self.pairs):
            raise ValueError("one label per antipodal pair required")
        seen: set[int] = set()
        for plus, minus in self.pairs:
            if abs(self.vertices[plus].dot(self.vertices[minus]) + 1.0) > ATOL:
                raise ValueError(f"vertices {plus},{minus} are not antipodal")
            seen.update((plus, minus))
        if seen != set(range(len(self.vertices))):
            raise ValueError("every vertex must belong to exactly one antipodal pair")

    def direction(self, signed_label: str) -> BlochVector:
        """Vector for a signed label, e.g. "A+" or "A-"."""
        letter, sign = signed_label[:-1], signed_label[-1]
        if sign not in "+-" or letter not in self.labels:
            raise KeyError(f"unknown element label {signed_label!r}")
        plus, minus = self.pairs[self.labels.index(letter)]
        return self.vertices[plus if sign == "+" else minus]


def _antipodal_pairs(coords: np.ndarray) -> list[tuple[int, int]]:
    n = len(coords)
    dots = coords @ coords.T
    pairs = []
    for i in range(n):
        opposite = [j for j in range(n) if abs(dots[i, j] + 1.0) <= STRUCTURE_TOL]
        if len(opposite) != 1:
            raise ValueError("structure not found: vertex without a unique antipode")
        if i < opposite[0]:
            pairs.append((i, opposite[0]))
    return pairs


def _find_cubes(coords: np.ndarray) -> list[tuple[int, ...]]:
    """Locate the 8-vertex inscribed cubes of a unit-sphere vertex cloud.

    A cube vertex sees its three edge neighbours at dot 1/3 and those
    neighbours see each other at dot -1/3; together with the four antipodes
    this fixes the whole cube.
    """
    n = len(coords)
    dots = coords @ coords.T
    anti = {i: int(np.argmin(dots[i])) for i in range(n)}
    cubes: set[tuple[int, ...]] = set()
    for i in range(n):
        neighbours = [j for j in range(n) if abs(dots[i, j] - 1 / 3) <= STRUCTURE_TOL]
        for triple in itertools.combinations(neighbours, 3):
            if all(abs(dots[a, b] + 1 / 3) <= STRUCTURE_TOL for a, b in itertools.combinations(triple, 2)):
                members = set()
                for j in (i, *triple):
                    members.update((j, anti[j]))
                if len(members) == 8:
                    cubes.add(tuple(sorted(members)))
    return sorted(cubes)


def inscribed_cubes(vs: VertexSet) -> tuple[tuple[int, ...], ...]:
    """The 5 inscribed cubes of the dodecahedron vertex set, as index tuples.

    Cubes are returned in canonical (sorted) order. Raises ValueError when the
    input does not carry the expected structure: exactly 5 cubes with every
    vertex in exactly 2 of them.
    """
    coords = np.array([v.as_array() for v in vs.vertices])
    cubes = _find_cubes(coords)
    incidence = [sum(i in cube for cube in cubes) for i in range(len(vs.vertices))]
    if len(cubes) != 5 or set(incidence) != {2}:
        raise ValueError(
            "structure not found: input is not a regular dodecahedron vertex set"
        )
    return tuple(cubes)


def dodecahedron_vertices() -> VertexSet:
    """Twenty unit vertices of the regular dodecahedron, paired and labeled A..J.

    Coordinates are the standard convention (+-1,+-1,+-1)/sqrt(3) together
    with cyclic permutations of (0, +-1/phi, +-phi)/sqrt(3). Pair letters are
    derived from the inscribed-cube incidence so that cube k realizes row k of
    the five-measurement listing; within a pair the lexicographically larger
    coordinate triple is the "+" vertex.
    """
    phi = GOLDEN_RATIO
    raw = [(sx, sy, sz) for sx in (1, -1) for sy in (1, -1) for sz in (1, -1)]
    for s1 in (1, -1):
        for s2 in (1, -1):
            base = (0.0, s1 / phi, s2 * phi)
            for k in range(3):
                raw.append((base[k % 3], base[(k + 1) % 3], base[(k + 2) % 3]))
    coords = np.array(sorted(raw)) / math.sqrt(3)

    pairs = _antipodal_pairs(coords)
    cubes = _find_cubes(coords)
    if len(cubes) != 5:
        raise ValueError("structure not found: dodecahedron cube search failed")

    # Each letter sits in exactly two rows of the published listing; a pair
    # takes the letter of the two rows whose cubes hold it.
    letter_of_rows = {
        frozenset(k for k, row in enumerate(CABELLO_CONTEXT_LETTERS) if letter in row): letter
        for letter in set("".join(CABELLO_CONTEXT_LETTERS))
    }
    labeled: list[tuple[str, tuple[int, int]]] = []
    for i, j in pairs:
        membership = frozenset(k for k, cube in enumerate(cubes) if i in cube)
        letter = letter_of_rows[membership]
        plus, minus = (i, j) if tuple(coords[i]) > tuple(coords[j]) else (j, i)
        labeled.append((letter, (plus, minus)))
    labeled.sort()

    vertices = tuple(BlochVector.from_array(c) for c in coords)
    return VertexSet(
        vertices=vertices,
        pairs=tuple(pair for _, pair in labeled),
        labels=tuple(letter for letter, _ in labeled),
    )


def hexagon_vertices() -> VertexSet:
    """Six coplanar unit vectors at 60-degree spacing, paired as A, B, C.

    Convention: the x-z plane with angles measured from +z, so A+ is the north
    pole; vertex k and k+3 are antipodal. Coordinates are closed-form
    (sin and cos of k*60 degrees are 0, +-1/2, +-sqrt(3)/2).
    """
    half_root3 = math.sqrt(3) / 2
    coords = [
        (0.0, 0.0, 1.0),
        (half_root3, 0.0, 0.5),
        (half_root3, 0.0, -0.5),
        (0.0, 0.0, -1.0),
        (-half_root3, 0.0, -0.5),
        (-half_root3, 0.0, 0.5),
    ]
    return VertexSet(
        vertices=tuple(BlochVector(*c) for c in coords),
        pairs=((0, 3), (1, 4), (2, 5)),
        labels=("A", "B", "C"),
    )
