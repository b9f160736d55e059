"""Bloch-sphere geometry: unit vectors, qubit operators, and the two vertex solids.

Each solid is a map from signed element label ("A+", "A-", ...) to unit
direction, the form the families are built from. Both are built from a table
of "+" vertices, each "-" vertex the antipode; the dodecahedron's table
carries Cabello's letters, so that its inscribed cubes are the ``tables``
cabello rows.

The geometry is plain Python over float tuples, and a qubit operator's one
form is its four complex entries: ``projector_entries``,
``hermitian_min_eigenvalue`` and ``is_density_operator`` work on those. The
module loads no numpy; only ``hv`` imports it.
"""

from __future__ import annotations

import math

from .tables import Frozen

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
        super().__init__(x, y, z)

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
    and positive semidefinite, each to ``ATOL``.

    Each test holds only when its comparison is true, so a NaN entry fails.
    """
    a, b, c, d = entries
    return (
        abs(a - a.conjugate()) <= ATOL
        and abs(b - c.conjugate()) <= ATOL
        and abs(d - d.conjugate()) <= ATOL
        and abs(a.real + d.real - 1.0) <= ATOL
        and hermitian_min_eigenvalue(entries) >= -ATOL
    )


#: The dodecahedron's "+" vertex of each of Cabello's letters, in units of
#: 1/sqrt(3); the structure tests check the letters against a cube search.
_DODECAHEDRON_PLUS = {
    "A": (GOLDEN_RATIO, 0.0, 1 / GOLDEN_RATIO),
    "B": (GOLDEN_RATIO, 0.0, -1 / GOLDEN_RATIO),
    "C": (1, 1, -1),
    "D": (0.0, 1 / GOLDEN_RATIO, -GOLDEN_RATIO),
    "E": (1, -1, 1),
    "F": (1, 1, 1),
    "G": (1, -1, -1),
    "H": (1 / GOLDEN_RATIO, GOLDEN_RATIO, 0.0),
    "I": (0.0, 1 / GOLDEN_RATIO, GOLDEN_RATIO),
    "J": (1 / GOLDEN_RATIO, -GOLDEN_RATIO, 0.0),
}


def _antipodal_solid(plus: dict[str, tuple], scale: float) -> dict[str, BlochVector]:
    """Each letter's "+" vertex divided by ``scale`` and its antipode as the
    "-" vertex, by signed label in the letters' order: A+, A-, B+, ...."""
    vertices = {}
    for letter, point in plus.items():
        x, y, z = (c / scale for c in point)
        vertices[f"{letter}+"] = BlochVector(x, y, z)
        # 0.0 - c mirrors a zero as 0.0, not -0.0.
        vertices[f"{letter}-"] = BlochVector(0.0 - x, 0.0 - y, 0.0 - z)
    return vertices


def dodecahedron_vertices() -> dict[str, BlochVector]:
    """The regular dodecahedron's twenty unit vertices by signed label, A+ to J-.

    The "+" vertices are a fixed table: cube corners (+-1,+-1,+-1)/sqrt(3) and
    cyclic permutations of (0, +-1/phi, +-phi)/sqrt(3), each "-" vertex its
    antipode. The letters are Cabello's: each pair lies in two of the five
    inscribed cubes, and cube k holds the letters of ``tables`` cabello row k.
    """
    return _antipodal_solid(_DODECAHEDRON_PLUS, math.sqrt(3))


def hexagon_vertices() -> dict[str, BlochVector]:
    """Six coplanar unit vectors at 60-degree spacing by signed label, A+ to C-.

    Convention: the x-z plane with angles measured from +z, so A+ is the north
    pole, and going round the hexagon gives A+, B+, C+, A-, B-, C-.
    Coordinates are closed-form (sin and cos of k*60 degrees are 0, +-1/2,
    +-sqrt(3)/2).
    """
    half_root3 = math.sqrt(3) / 2
    plus = {"A": (0.0, 0.0, 1.0), "B": (half_root3, 0.0, 0.5), "C": (half_root3, 0.0, -0.5)}
    return _antipodal_solid(plus, 1.0)
