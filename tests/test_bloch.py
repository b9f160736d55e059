import itertools
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qcontext import (
    BlochVector,
    VertexSet,
    dodecahedron_vertices,
    hexagon_vertices,
    inscribed_cubes,
)
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
    """A vertex set's vectors as the rows of an array."""
    return np.array([(v.x, v.y, v.z) for v in vs.vertices])


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

    def test_antipode_is_valid_and_negates(self):
        v = BlochVector.normalized(1, 2, 3)
        assert v.antipode() == BlochVector(-v.x, -v.y, -v.z)
        assert v.dot(v.antipode()) == pytest.approx(-1.0, abs=ATOL)


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
        q = _matrix(v.antipode())
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


class TestDodecahedron:
    def test_counts(self):
        vs = dodecahedron_vertices()
        assert len(vs.vertices) == 20
        assert len(vs.pairs) == 10
        assert vs.labels == tuple("ABCDEFGHIJ")

    def test_unit_norms(self):
        for v in dodecahedron_vertices().vertices:
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

    def test_inscribed_cubes_structure(self):
        vs = dodecahedron_vertices()
        cubes = inscribed_cubes(vs)
        assert len(cubes) == 5
        coords = _coords(vs)
        for cube in cubes:
            assert len(cube) == 8
            dots = sorted(
                round(float(coords[a] @ coords[b]), 6)
                for a, b in itertools.combinations(cube, 2)
            )
            # Cube signature: 4 body diagonals, 12 face diagonals, 12 edges.
            assert dots == [-1.0] * 4 + [round(-1 / 3, 6)] * 12 + [round(1 / 3, 6)] * 12
        incidence = [sum(i in cube for cube in cubes) for i in range(20)]
        assert set(incidence) == {2}

    def test_inscribed_cubes_against_pair_combination_oracle(self):
        # Independent search: pick 4 antipodal pairs and accept the 8 vertices
        # when their pairwise dot multiset matches the cube signature.
        vs = dodecahedron_vertices()
        coords = _coords(vs)
        signature = sorted([-1.0] * 4 + [round(-1 / 3, 6)] * 12 + [round(1 / 3, 6)] * 12)
        found = set()
        for combo in itertools.combinations(vs.pairs, 4):
            idx = [i for pair in combo for i in pair]
            dots = sorted(
                round(float(coords[a] @ coords[b]), 6)
                for a, b in itertools.combinations(idx, 2)
            )
            if dots == signature:
                found.add(tuple(sorted(idx)))
        assert sorted(found) == list(inscribed_cubes(vs))

    def test_cube_letters_match_context_rows(self):
        # Pair letters are defined through cube membership, so cube k must
        # carry exactly the letters of measurement row k.
        from qcontext.tables import CABELLO_CONTEXT_LETTERS

        vs = dodecahedron_vertices()
        cubes = inscribed_cubes(vs)
        for k, cube in enumerate(cubes):
            letters = {
                vs.labels[i]
                for i, pair in enumerate(vs.pairs)
                if pair[0] in cube
            }
            assert letters == set(CABELLO_CONTEXT_LETTERS[k])

    def test_structure_error_on_wrong_input(self):
        with pytest.raises(ValueError, match="structure not found"):
            inscribed_cubes(hexagon_vertices())


class TestHexagon:
    def test_counts_and_pairs(self):
        vs = hexagon_vertices()
        assert len(vs.vertices) == 6
        assert len(vs.pairs) == 3
        assert vs.labels == ("A", "B", "C")

    def test_antipodal_and_adjacent_dots(self):
        vs = hexagon_vertices()
        assert vs.direction("A+").dot(vs.direction("A-")) == -1.0
        assert vs.direction("A+").dot(vs.direction("B+")) == 0.5

    def test_coplanar_at_sixty_degrees(self):
        vs = hexagon_vertices()
        assert all(v.y == 0.0 for v in vs.vertices)
        for i in range(6):
            assert vs.vertices[i].dot(vs.vertices[(i + 1) % 6]) == pytest.approx(0.5, abs=ATOL)

    def test_unknown_label(self):
        with pytest.raises(KeyError):
            hexagon_vertices().direction("Z+")


class TestVertexSetValidation:
    def test_rejects_non_antipodal_pairing(self):
        v = BlochVector(0, 0, 1)
        w = BlochVector(1, 0, 0)
        with pytest.raises(ValueError, match="antipodal"):
            VertexSet(vertices=(v, w), pairs=((0, 1),), labels=("A",))

    def test_rejects_unpaired_vertices(self):
        v = BlochVector(0, 0, 1)
        with pytest.raises(ValueError):
            VertexSet(vertices=(v, v.antipode(), BlochVector(1, 0, 0)),
                      pairs=((0, 1),), labels=("A",))
