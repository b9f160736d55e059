"""Bloch-sphere geometry: unit vectors, qubit operators, and the two vertex solids.

Each solid is a map from signed element label ("A+", "A-", ...) to unit
direction, the form the families are built from; the dodecahedron's letters
come from its inscribed cubes and the ``tables`` cabello rows.

The geometry is plain Python over float tuples, and a qubit operator's one
form is its four complex entries: ``projector_entries``,
``hermitian_min_eigenvalue`` and ``is_density_operator`` work on those. The
module loads no numpy; only ``hv`` imports it.
"""

from __future__ import annotations

import itertools
import math

from .tables import CABELLO_CONTEXT_LETTERS, Frozen

#: Tolerance for closed-form algebraic identities in double precision.
ATOL = 1e-12

GOLDEN_RATIO = (1 + math.sqrt(5)) / 2


def _require_finite(x: float, y: float, z: float) -> None:
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
        raise ValueError(f"invalid direction: non-finite component in ({x!r}, {y!r}, {z!r})")


class BlochVector(Frozen):
    """Unit 3-vector on the Bloch sphere.

    Construction rejects non-finite components and non-unit input
    (|x^2+y^2+z^2 - 1| > 1e-12); use ``BlochVector.normalized`` to build
    one from an arbitrary direction.
    """

    __slots__ = _fields = ("x", "y", "z")

    def __init__(self, x: float, y: float, z: float):
        _require_finite(x, y, z)
        norm_sq = x * x + y * y + z * z
        if abs(norm_sq - 1.0) > ATOL:
            raise ValueError(f"invalid direction: not a unit vector, |v|^2 = {norm_sq!r}")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "z", z)

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

    def dot(self, other: "BlochVector") -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z


#: The Pauli basis (I, sigma_x, sigma_y, sigma_z), each matrix as its four
#: row-major entries.
_PAULI_ENTRIES = (
    (1 + 0j, 0j, 0j, 1 + 0j),
    (0j, 1 + 0j, 1 + 0j, 0j),
    (0j, -1j, 1j, 0j),
    (1 + 0j, 0j, 0j, -1 + 0j),
)

#: A 2x2 operator as its row-major entries (a, b, c, d) = [[a, b], [c, d]].
Entries = tuple[complex, complex, complex, complex]


def projector_entries(v: BlochVector) -> Entries:
    """Entries of the rank-1 projector (I + v.sigma)/2 along v.

    Every operand is complex, so each product and quotient is the full
    complex operation that numpy applies to a complex array (Python 3.14
    multiplies a float into a complex componentwise): the entries carry the
    bits, signed zeros included, of numpy's evaluation of the same sum.
    """
    x, y, z = complex(v.x), complex(v.y), complex(v.z)
    return tuple(
        (i + x * sx + y * sy + z * sz) / (2 + 0j) for i, sx, sy, sz in zip(*_PAULI_ENTRIES)
    )


def hermitian_min_eigenvalue(entries: Entries) -> float:
    """Smallest eigenvalue of a Hermitian 2x2 operator given by its entries:
    (a + d)/2 - hypot((a - d)/2, |b|)."""
    a, b, _, d = entries
    return (a.real + d.real) / 2 - math.hypot((a.real - d.real) / 2, abs(b))


def is_density_operator(entries: Entries) -> bool:
    """A 2x2 operator, given by its entries, that is Hermitian, of unit trace
    and positive semidefinite, each to 1e-9.

    Each test holds only when its comparison is true, so a NaN entry fails.
    """
    a, b, c, d = entries
    tol = 1e-9
    return (
        abs(a - a.conjugate()) <= tol
        and abs(b - c.conjugate()) <= tol
        and abs(d - d.conjugate()) <= tol
        and abs(a.real + d.real - 1.0) <= tol
        and hermitian_min_eigenvalue(entries) >= -tol
    )


def _gram(coords: list[tuple[float, float, float]]) -> list[list[float]]:
    """Every pairwise dot product of the points, as rows."""
    return [[x * u + y * v + z * w for u, v, w in coords] for x, y, z in coords]


def _antipodal_pairs(dots: list[list[float]]) -> list[tuple[int, int]]:
    pairs = []
    for i, row in enumerate(dots):
        opposite = [j for j, d in enumerate(row) if abs(d + 1.0) <= ATOL]
        if len(opposite) != 1:
            raise ValueError("structure not found: vertex without a unique antipode")
        if i < opposite[0]:
            pairs.append((i, opposite[0]))
    return pairs


def _find_cubes(dots: list[list[float]]) -> list[tuple[int, ...]]:
    """Locate the 8-vertex inscribed cubes of a unit-sphere vertex cloud, given
    its Gram matrix.

    A cube vertex sees its three edge neighbours at dot 1/3 and those
    neighbours see each other at dot -1/3; together with the four antipodes
    this fixes the whole cube.
    """
    # A vertex's antipode is the first index of its row's minimum (argmin's rule).
    anti = [row.index(min(row)) for row in dots]
    cubes: set[tuple[int, ...]] = set()
    for i, row in enumerate(dots):
        neighbours = [j for j, d in enumerate(row) if abs(d - 1 / 3) <= ATOL]
        for triple in itertools.combinations(neighbours, 3):
            if all(abs(dots[a][b] + 1 / 3) <= ATOL for a, b in itertools.combinations(triple, 2)):
                members = set()
                for j in (i, *triple):
                    members.update((j, anti[j]))
                if len(members) == 8:
                    cubes.add(tuple(sorted(members)))
    return sorted(cubes)


def dodecahedron_vertices() -> dict[str, BlochVector]:
    """The regular dodecahedron's twenty unit vertices by signed label, A+ to J-.

    Coordinates are the standard convention (+-1,+-1,+-1)/sqrt(3) together
    with cyclic permutations of (0, +-1/phi, +-phi)/sqrt(3). Each antipodal
    pair lies in exactly two of the five inscribed cubes and takes the letter
    that the ``tables`` cabello rows of those two cubes share, so cube k
    realizes row k of the five-measurement listing; within a pair the
    lexicographically larger coordinate triple is the "+" vertex.
    """
    phi = GOLDEN_RATIO
    raw = [(sx, sy, sz) for sx in (1, -1) for sy in (1, -1) for sz in (1, -1)]
    for s1 in (1, -1):
        for s2 in (1, -1):
            base = (0.0, s1 / phi, s2 * phi)
            for k in range(3):
                raw.append((base[k % 3], base[(k + 1) % 3], base[(k + 2) % 3]))
    coords = [tuple(c / math.sqrt(3) for c in point) for point in sorted(raw)]

    dots = _gram(coords)
    pairs = _antipodal_pairs(dots)
    cubes = _find_cubes(dots)
    incidence = [sum(i in cube for cube in cubes) for i in range(len(coords))]
    if len(cubes) != 5 or set(incidence) != {2}:
        raise ValueError("structure not found: dodecahedron cube search failed")

    # Each letter sits in exactly two rows of the published listing; a pair
    # takes the letter of the two rows whose cubes hold it.
    letter_of_rows = {
        frozenset(k for k, row in enumerate(CABELLO_CONTEXT_LETTERS) if letter in row): letter
        for letter in set("".join(CABELLO_CONTEXT_LETTERS))
    }
    directions = {}
    for i, j in pairs:
        letter = letter_of_rows[frozenset(k for k, cube in enumerate(cubes) if i in cube)]
        plus, minus = (i, j) if coords[i] > coords[j] else (j, i)
        directions[f"{letter}+"] = BlochVector(*coords[plus])
        directions[f"{letter}-"] = BlochVector(*coords[minus])
    # "+" sorts before "-", so the labels run A+, A-, B+, ...
    return dict(sorted(directions.items()))


def hexagon_vertices() -> dict[str, BlochVector]:
    """Six coplanar unit vectors at 60-degree spacing by signed label, A+ to C-.

    Convention: the x-z plane with angles measured from +z, so A+ is the north
    pole, and going round the hexagon gives A+, B+, C+, A-, B-, C-.
    Coordinates are closed-form (sin and cos of k*60 degrees are 0, +-1/2,
    +-sqrt(3)/2).
    """
    half_root3 = math.sqrt(3) / 2
    return {
        "A+": BlochVector(0.0, 0.0, 1.0),
        "A-": BlochVector(0.0, 0.0, -1.0),
        "B+": BlochVector(half_root3, 0.0, 0.5),
        "B-": BlochVector(-half_root3, 0.0, -0.5),
        "C+": BlochVector(half_root3, 0.0, -0.5),
        "C-": BlochVector(-half_root3, 0.0, 0.5),
    }
