import itertools
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qcontext import BlochVector, bloch, dodecahedron_vertices, hexagon_vertices
from qcontext.bloch import hermitian_min_eigenvalue, is_density_operator, projector_entries

from conftest import reference_projector, signed_axes

ATOL = 1e-12

unit_vectors = st.tuples(
    st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1)
).filter(lambda t: math.sqrt(t[0] ** 2 + t[1] ** 2 + t[2] ** 2) > 1e-3).map(
    lambda t: BlochVector.normalized(*t)
)


#: The six signed axes plus random directions: the inputs on which the
#: plain-Python operators must carry numpy's bits, signed zeros included.
directions = st.one_of(st.sampled_from(signed_axes()), unit_vectors)

#: Hermitian 2x2 matrices with entries in [-1, 1], as (a, b, conj(b), d).
hermitian_entries = st.tuples(
    st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1)
).map(lambda t: (complex(t[0]), complex(t[1], t[2]), complex(t[1], -t[2]), complex(t[3])))


def _matrix(v: BlochVector) -> np.ndarray:
    """The projector along v as a 2x2 array of its ``projector_entries``."""
    return np.array(projector_entries(v)).reshape(2, 2)


def _coords(vs) -> np.ndarray:
    """A solid's directions, in label order, as the rows of an array."""
    return np.array([(v.x, v.y, v.z) for v in vs.values()])


def _exact_min_eigenvalue(entries) -> float:
    """(a + d)/2 - sqrt(((a - d)/2)^2 + |b|^2) in 60-digit decimal arithmetic."""
    a, b, _, d = entries
    with localcontext() as context:
        context.prec = 60
        a, d, b_re, b_im = (Decimal(x) for x in (a.real, d.real, b.real, b.imag))
        return float((a + d) / 2 - (((a - d) / 2) ** 2 + b_re * b_re + b_im * b_im).sqrt())


class TestBlochVector:
    def test_rejects_non_unit(self):
        with pytest.raises(ValueError, match="unit"):
            BlochVector(0.0, 0.0, 2.0)

    def test_rejects_zero_normalization(self):
        with pytest.raises(ValueError, match="zero"):
            BlochVector.normalized(0.0, 0.0, 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("axis", range(3))
    def test_rejects_non_finite(self, bad, axis):
        components = [0.0, 0.0, 1.0]
        components[axis] = bad
        with pytest.raises(ValueError, match="non-finite"):
            BlochVector(*components)
        with pytest.raises(ValueError, match="non-finite"):
            BlochVector.normalized(*components)

    @pytest.mark.parametrize("scale", [1e-200, 1e-310, 1e200, 1e300])
    def test_normalizes_extreme_magnitudes(self, scale):
        assert BlochVector.normalized(scale, 0.0, 0.0) == BlochVector(1.0, 0.0, 0.0)
        v = BlochVector.normalized(scale, -scale, scale)
        assert v.x == -v.y == v.z == pytest.approx(1 / math.sqrt(3), abs=ATOL)


class TestProjectors:
    def test_north_pole(self):
        assert projector_entries(BlochVector(0, 0, 1)) == (1, 0, 0, 0)

    def test_x_axis(self):
        assert projector_entries(BlochVector(1, 0, 0)) == (0.5, 0.5, 0.5, 0.5)

    def test_south_pole_is_complement(self):
        north = _matrix(BlochVector(0, 0, 1))
        south = _matrix(BlochVector(0, 0, -1))
        assert np.array_equal(south, np.array([[0, 0], [0, 1]], dtype=complex))
        assert np.max(np.abs(north + south - np.eye(2))) <= ATOL

    @given(unit_vectors)
    def test_projector_identities(self, v):
        p = _matrix(v)
        assert np.max(np.abs(p - p.conj().T)) <= ATOL
        assert np.max(np.abs(p @ p - p)) <= ATOL
        assert abs(np.trace(p).real - 1.0) <= ATOL
        q = _matrix(BlochVector(-v.x, -v.y, -v.z))
        assert np.max(np.abs(p + q - np.eye(2))) <= ATOL

    @given(unit_vectors, unit_vectors)
    def test_overlap_formula(self, n, v):
        overlap = np.trace(_matrix(n) @ _matrix(v)).real
        assert overlap == pytest.approx((1 + n.dot(v)) / 2, abs=1e-10)

    def test_state_on_own_projector(self):
        n = BlochVector.normalized(1, 1, 1)
        assert np.trace(_matrix(n) @ _matrix(n)).real == pytest.approx(1.0, abs=ATOL)

    def test_orthogonal_directions_give_half(self):
        overlap = np.trace(_matrix(BlochVector(0, 0, 1)) @ _matrix(BlochVector(1, 0, 0))).real
        assert overlap == pytest.approx(0.5, abs=ATOL)

    @given(unit_vectors)
    def test_state_is_density(self, n):
        assert is_density_operator(projector_entries(n))

    @given(directions)
    def test_bytes_equal_numpy_pauli_sum(self, v):
        assert projector_entries(v) == tuple(reference_projector(v).ravel().tolist())

    def test_density_check_is_for_2x2_states(self):
        assert is_density_operator((0.5 + 0j, 0j, 0j, 0.5 + 0j))
        rejected = [
            (1, 0, 0, 1),  # trace 2
            (1.5, 0, 0, -0.5),  # negative eigenvalue
            (0.5, 1, 0, 0.5),  # not Hermitian
            (0.5 + 1e-6j, 0, 0, 0.5 - 1e-6j),  # complex diagonal
            (math.nan, 0, 0, 1),
            (0.5, complex(0, math.nan), complex(0, math.nan), 0.5),
            (math.inf, 0, 0, -math.inf),
        ]
        for entries in rejected:
            assert not is_density_operator(tuple(map(complex, entries))), entries


class TestMinEigenvalue:
    @given(hermitian_entries)
    def test_matches_exact_value(self, entries):
        assert abs(hermitian_min_eigenvalue(entries) - _exact_min_eigenvalue(entries)) <= 1e-15

    @given(hermitian_entries)
    def test_matches_eigvalsh(self, entries):
        # eigvalsh's own rounding reaches 1.1e-15 on these matrices, against
        # at most 4.5e-16 for the closed form, so the two agree within 2e-15.
        expected = np.linalg.eigvalsh(np.array(entries).reshape(2, 2))[0]
        assert abs(hermitian_min_eigenvalue(entries) - expected) <= 2e-15

    def test_rank_one_operators_have_zero_minimum(self):
        for v in signed_axes():
            assert hermitian_min_eigenvalue(projector_entries(v)) == 0.0


#: Pairwise dots of a cube's 8 vertices: 4 body diagonals, 12 face
#: diagonals, 12 edges.
CUBE_SIGNATURE = [-1.0] * 4 + [round(-1 / 3, 6)] * 12 + [round(1 / 3, 6)] * 12


def _dot_signature(directions) -> list[float]:
    return sorted(round(a.dot(b), 6) for a, b in itertools.combinations(directions, 2))


def _signed_labels(letters: str) -> list[str]:
    return [f"{letter}{sign}" for letter in letters for sign in "+-"]


@pytest.mark.parametrize("solid", [dodecahedron_vertices, hexagon_vertices])
def test_minus_negates_plus(solid):
    vs = solid()
    for letter in {label[:-1] for label in vs}:
        plus, minus = vs[f"{letter}+"], vs[f"{letter}-"]
        assert (minus.x, minus.y, minus.z) == (-plus.x, -plus.y, -plus.z)


class TestDodecahedron:
    def test_counts(self):
        assert list(dodecahedron_vertices()) == _signed_labels("ABCDEFGHIJ")

    def test_unit_norms(self):
        for v in dodecahedron_vertices().values():
            assert abs(v.dot(v) - 1.0) <= ATOL

    def test_nearest_neighbour_separation_uniform(self):
        # Brute force over all vertex pairs: the largest off-diagonal dot
        # (smallest angle) must be the same for every vertex.
        coords = _coords(dodecahedron_vertices())
        dots = coords @ coords.T
        np.fill_diagonal(dots, -2.0)
        nearest = dots.max(axis=1)
        assert np.max(np.abs(nearest - nearest[0])) <= 1e-9
        assert nearest[0] == pytest.approx(math.sqrt(5) / 3, abs=1e-9)

    def test_inscribed_cubes_structure(self, cabello):
        # Each context's 8 directions are an inscribed cube, and every
        # element sits in exactly 2 of the 5.
        assert len(cabello.contexts) == 5
        for context in cabello.contexts:
            assert len(context) == 8
            directions = [cabello.elements[label].direction for label in context]
            assert _dot_signature(directions) == CUBE_SIGNATURE
        assert {len(cabello.element_contexts(label)) for label in cabello.elements} == {2}

    def test_inscribed_cubes_against_pair_combination_oracle(self, cabello):
        # Independent search: pick 4 antipodal pairs and accept the 8
        # directions when their pairwise dot multiset matches the cube
        # signature. The cubes found must be exactly the contexts, so each
        # cube carries the letters of its measurement row.
        letters = sorted({label[:-1] for label in cabello.elements})
        found = set()
        for combo in itertools.combinations(letters, 4):
            labels = _signed_labels(combo)
            directions = [cabello.elements[label].direction for label in labels]
            if _dot_signature(directions) == CUBE_SIGNATURE:
                found.add(frozenset(labels))
        assert found == {frozenset(context) for context in cabello.contexts}

    def test_cube_letters_match_context_rows(self):
        # Pair letters are defined through cube membership, so cube k of the
        # search (run on the vertices in coordinate order) must carry exactly
        # the letters of measurement row k.
        from qcontext.tables import CABELLO_CONTEXT_LETTERS

        by_coords = sorted((v.x, v.y, v.z, label) for label, v in dodecahedron_vertices().items())
        labels = [label for *_, label in by_coords]
        cubes = bloch._find_cubes(bloch._gram([point[:3] for point in by_coords]))
        assert len(cubes) == len(CABELLO_CONTEXT_LETTERS)
        for cube, row in zip(cubes, CABELLO_CONTEXT_LETTERS):
            assert {labels[i][:-1] for i in cube} == set(row)

    def test_structure_error_on_wrong_input(self, monkeypatch):
        # With a wrong ratio the points are no dodecahedron's.
        monkeypatch.setattr(bloch, "GOLDEN_RATIO", 1.6)
        with pytest.raises(ValueError, match="structure not found"):
            dodecahedron_vertices()

    @pytest.mark.parametrize(
        "damage", [lambda cubes: cubes[:4], lambda cubes: cubes[:4] + cubes[:1]],
        ids=["four-cubes", "repeated-cube"],
    )
    def test_cube_guard(self, monkeypatch, damage):
        find_cubes = bloch._find_cubes
        monkeypatch.setattr(bloch, "_find_cubes", lambda dots: damage(find_cubes(dots)))
        with pytest.raises(ValueError, match="structure not found"):
            dodecahedron_vertices()


class TestHexagon:
    def test_counts_and_pairs(self):
        assert list(hexagon_vertices()) == _signed_labels("ABC")

    def test_antipodal_and_adjacent_dots(self):
        vs = hexagon_vertices()
        assert vs["A+"].dot(vs["A-"]) == -1.0
        assert vs["A+"].dot(vs["B+"]) == 0.5

    def test_coplanar_at_sixty_degrees(self):
        vs = hexagon_vertices()
        ring = [vs[label] for label in ("A+", "B+", "C+", "A-", "B-", "C-")]
        assert all(v.y == 0.0 for v in ring)
        for i in range(6):
            assert ring[i].dot(ring[(i + 1) % 6]) == pytest.approx(0.5, abs=ATOL)

    def test_unknown_label(self):
        with pytest.raises(KeyError):
            hexagon_vertices()["Z+"]
