import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from qcontext import (
    BlochVector,
    PovmElement,
    PovmFamily,
    born_probabilities,
    born_probability,
    cabello_family,
    check_completeness,
    nakamura_family,
)
from qcontext.bloch import projector_entries

from conftest import reference_operator, reference_projector, signed_axes

ATOL = 1e-12

state_directions = st.tuples(
    st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1)
).filter(lambda t: math.sqrt(sum(c * c for c in t)) > 1e-3).map(
    lambda t: BlochVector.normalized(*t)
)


class TestStructure:
    def test_nakamura_shape(self, nakamura):
        assert len(nakamura.elements) == 6
        assert len(nakamura.contexts) == 3
        assert all(len(c) == 4 for c in nakamura.contexts)
        assert nakamura.contexts == (
            ("A+", "A-", "B+", "B-"),
            ("A+", "A-", "C+", "C-"),
            ("B+", "B-", "C+", "C-"),
        )

    def test_cabello_shape(self, cabello):
        assert len(cabello.elements) == 20
        assert len(cabello.contexts) == 5
        assert all(len(c) == 8 for c in cabello.contexts)

    def test_cabello_first_element_contexts(self, cabello):
        assert cabello.element_contexts("A+") == (0, 1)
        assert cabello.element_contexts("A-") == (0, 1)
        with pytest.raises(KeyError, match=r"missing element: 'Z\+'"):
            cabello.element_contexts("Z+")

    def test_source_dict_mutation_does_not_reach_the_family(self, nakamura):
        # The family keeps its own copy of the elements it was built from, so
        # the incidence it recorded stays true of the elements it holds.
        source = dict(nakamura.elements)
        family = PovmFamily("one", source, nakamura.contexts[:1])
        twin = PovmFamily("one", dict(nakamura.elements), nakamura.contexts[:1])
        before = hash(family)
        source["Z"] = nakamura.elements["A+"]
        del source["B-"]
        assert family.elements == nakamura.elements
        assert "Z" not in family.elements
        with pytest.raises(KeyError, match="missing element: 'Z'"):
            family.element_contexts("Z")
        assert family.element_contexts("B-") == (0,)
        assert hash(family) == before == hash(twin)
        assert family == twin

    def test_every_element_in_exactly_two_contexts(self, nakamura, cabello):
        for family in (nakamura, cabello):
            for label in family.elements:
                assert len(family.element_contexts(label)) == 2

    def test_weights(self, nakamura, cabello):
        assert all(e.weight == Fraction(1, 2) for e in nakamura.elements.values())
        assert all(e.weight == Fraction(1, 4) for e in cabello.elements.values())

    @pytest.mark.parametrize(
        "weight,message",
        [
            (math.nan, "positive weight"),
            (Fraction(1000001, 1000000), "weight at most 1"),
        ],
    )
    def test_weight_outside_unit_interval_rejected(self, weight, message):
        with pytest.raises(ValueError, match=message):
            PovmElement("A+", weight, BlochVector(0.0, 0.0, 1.0))
        assert PovmElement("A+", Fraction(1), BlochVector(0.0, 0.0, 1.0)).weight == 1

    @pytest.mark.parametrize("direction", [(0.0, 0.0, 1.0), None], ids=["tuple", "none"])
    def test_direction_not_a_bloch_vector_rejected(self, direction):
        # Refused where the element is built, with one line naming it.
        message = f"^element 'A\\+' direction must be a BlochVector, got {type(direction).__name__}$"
        with pytest.raises(ValueError, match=message):
            PovmElement("A+", Fraction(1, 2), direction)

    def test_context_pairs_are_antipodal(self, nakamura, cabello):
        for family in (nakamura, cabello):
            for i in range(len(family.contexts)):
                for plus, minus in family.context_pairs(i):
                    dplus = family.elements[plus].direction
                    dminus = family.elements[minus].direction
                    assert abs(dplus.dot(dminus) + 1.0) <= ATOL

    def test_context_pairs_rejects_shuffled_context(self, nakamura):
        shuffled = PovmFamily(
            name="shuffled",
            elements=dict(nakamura.elements),
            contexts=(("A+", "B+", "A-", "B-"),),
        )
        with pytest.raises(ValueError, match="antipodal"):
            shuffled.context_pairs(0)

    def test_context_pairs_kept_and_failures_repeat(self, nakamura):
        # A valid context's pairs are validated once and kept with the family;
        # an invalid index, an odd context or a non-antipodal pair raises on
        # every call, not only the first.
        family = PovmFamily(
            name="mixed",
            elements=dict(nakamura.elements),
            contexts=(("A+", "A-", "B+", "B-"), ("A+", "B+", "A-", "B-"), ("A+", "A-", "B+")),
        )
        first = family.context_pairs(0)
        assert first == (("A+", "A-"), ("B+", "B-"))
        for _ in range(3):
            assert family.context_pairs(0) is first
            # True would find context 2's memo entry.
            for index in (-1, 3, True, np.int64(1), 1.0):
                with pytest.raises(ValueError, match="context index must be (an int|>= 0|<= 2)"):
                    family.context_pairs(index)
            with pytest.raises(ValueError, match="antipodal"):
                family.context_pairs(1)
            with pytest.raises(ValueError, match="odd element count"):
                family.context_pairs(2)
        # The kept pairs are not part of the family's value.
        fresh = PovmFamily(family.name, family.elements, family.contexts)
        assert family == fresh and hash(family) == hash(fresh)

    def test_unknown_context_label_rejected(self, nakamura):
        with pytest.raises(KeyError, match="missing element"):
            PovmFamily(name="bad", elements=dict(nakamura.elements),
                       contexts=(("A+", "Z-"),))

    def test_restrict(self, nakamura):
        sub = nakamura.restrict([0])
        assert len(sub.contexts) == 1
        assert set(sub.elements) == {"A+", "A-", "B+", "B-"}
        assert sub.name == "nakamura[0]"

    # Unchecked, -1 would keep the last context under the name cabello[-1],
    # 7 would raise a bare IndexError and [0, 0] would list context 1 twice;
    # True and a numpy integer would keep context 2, and 1.0 fail as an index.
    @pytest.mark.parametrize(
        "indices",
        [[-1], [5], [7], [0, 0], [2, 1, 2], [True], [np.int64(1)], [1.0]],
        ids=str,
    )
    def test_restrict_rejects_bad_indices(self, cabello, indices):
        with pytest.raises(
            ValueError, match=r"context index (must be (an int|>= 0|<= 4)|\d+: repeated)"
        ):
            cabello.restrict(indices)

    def test_model_tables_match_families(self, nakamura, cabello):
        # The CLI range-checks --context and builds the ks-search --model
        # hypergraph from these rows without building a family.
        from qcontext import hv, tables

        assert tables.MODEL_CONTEXTS["nakamura"] == nakamura.contexts
        assert tables.MODEL_CONTEXTS["cabello"] == cabello.contexts
        assert hv.MAX_SAMPLES is tables.MAX_SAMPLES


def _reference_completeness_sum(context, family) -> np.ndarray:
    """check_completeness's sum as numpy arrays: -I plus the operators."""
    total = -np.eye(2, dtype=complex)
    for label in context:
        total = total + reference_operator(family.elements[label])
    return total


def _state(n: BlochVector) -> tuple:
    """The pure state along n as the two rows of its projector's entries."""
    a, b, c, d = projector_entries(n)
    return ((a, b), (c, d))


@st.composite
def density_operators(draw):
    """A pure state, or a mixture p P(n1) + (1 - p) P(n2) of two, as numpy
    evaluates it."""
    first = reference_projector(draw(state_directions))
    if draw(st.booleans()):
        return first
    p = draw(st.floats(0, 1))
    return p * first + (1 - p) * reference_projector(draw(state_directions))


@st.composite
def context_subsets(draw):
    """A model family and an ordered subset of its element labels."""
    family = draw(st.sampled_from([nakamura_family(), cabello_family()]))
    labels = draw(st.lists(st.sampled_from(list(family.elements)), unique=True))
    return family, labels


class TestCompleteness:
    def test_all_contexts_resolve_identity(self, nakamura, cabello):
        for family in (nakamura, cabello):
            for context in family.contexts:
                assert check_completeness(context, family) <= ATOL

    def test_pair_sums_to_weight_identity(self, nakamura, cabello):
        for family in (nakamura, cabello):
            for i in range(len(family.contexts)):
                for plus, minus in family.context_pairs(i):
                    total = np.add(family.elements[plus].entries, family.elements[minus].entries)
                    expected = float(family.elements[plus].weight) * np.eye(2).ravel()
                    assert np.max(np.abs(total - expected)) <= ATOL

    def test_dropped_element_residual(self, nakamura):
        # Removing A+ (the north pole, weight 1/2) leaves exactly its operator
        # missing, whose largest entry is 1/2.
        context = list(nakamura.contexts[0])
        context.remove("A+")
        assert check_completeness(context, nakamura) == pytest.approx(0.5, abs=ATOL)

    def test_empty_context_residual_is_one(self, nakamura):
        assert check_completeness((), nakamura) == 1.0

    def test_unknown_label(self, nakamura):
        with pytest.raises(KeyError, match="missing element"):
            check_completeness(("A+", "Q-"), nakamura)

    @given(context_subsets())
    def test_residual_equals_numpy_oracle(self, case):
        family, labels = case
        residual = check_completeness(labels, family)
        total = _reference_completeness_sum(labels, family)
        # The sums agree bit for bit, so Python's abs of numpy's sum is exact.
        assert residual == max(abs(entry) for entry in total.ravel().tolist())
        # np.abs of a complex128 array may round its modulus one ulp away
        # from hypot's: on cabello's A+ A- H- B+ B- C+ C- it reads
        # 0.12500000000000003, where the exact modulus rounds to 0.125.
        assert abs(residual - float(np.max(np.abs(total)))) <= math.ulp(residual)


class TestElementEntries:
    @given(
        st.one_of(
            st.sampled_from(signed_axes()),
            state_directions,
        ),
        st.fractions(min_value=0, max_value=1, max_denominator=1000).filter(lambda w: w > 0),
    )
    # Half of sigma_y's subnormal entry underflows: numpy keeps the sign, -0.0.
    @example(BlochVector(0.0, 1e-323, 1.0), Fraction(1, 2))
    def test_entries_and_operator_carry_numpy_bits(self, direction, weight):
        element = PovmElement("X+", weight, direction)
        expected = reference_operator(element)
        assert np.array(element.entries).tobytes() == expected.tobytes()

    def test_entries_are_kept_as_python_complex(self, cabello):
        element = cabello.elements["A+"]
        assert element.entries is element.entries
        assert all(type(entry) is complex for entry in element.entries)


INVALID_STATES = [
    pytest.param(np.eye(3) / 3, id="3x3"),
    pytest.param([[1, 0], [0]], id="ragged"),
    pytest.param("ab", id="string"),
    pytest.param(None, id="none"),
    pytest.param([[math.nan, 0], [0, 1]], id="nan-entry"),
    pytest.param([[0.5, 1], [0, 0.5]], id="non-hermitian"),
    pytest.param(np.eye(2), id="trace-2"),
    pytest.param([[1.5, 0], [0, -0.5]], id="negative-eigenvalue"),
    # The state check uses the one tolerance, ATOL = 1e-12.
    pytest.param([[0.5 + 1e-10, 0], [0, 0.5]], id="trace-off-by-1e-10"),
]


class TestBornProbability:
    def test_aligned_nakamura_element(self, nakamura):
        state = _state(BlochVector(0, 0, 1))
        assert born_probability(state, nakamura.elements["A+"]) == pytest.approx(0.5, abs=ATOL)

    def test_antipodal_nakamura_element(self, nakamura):
        state = _state(BlochVector(0, 0, 1))
        assert born_probability(state, nakamura.elements["A-"]) == pytest.approx(0.0, abs=ATOL)

    def test_orthogonal_cabello_element(self, cabello):
        v = cabello.elements["A+"].direction
        perp = np.cross((v.x, v.y, v.z), [0.0, 0.0, 1.0])
        n = BlochVector.normalized(*perp)
        state = _state(n)
        assert born_probability(state, cabello.elements["A+"]) == pytest.approx(1 / 8, abs=ATOL)

    @pytest.mark.parametrize("state", INVALID_STATES)
    def test_invalid_state_rejected(self, nakamura, state):
        message = r"^invalid state: expected a 2x2 density operator$"
        with pytest.raises(ValueError, match=message):
            born_probability(state, nakamura.elements["A+"])
        with pytest.raises(ValueError, match=message):
            born_probabilities(state, list(nakamura.elements.values()))

    @given(density_operators(), st.sampled_from([nakamura_family(), cabello_family()]))
    def test_matches_numpy_oracle(self, rho, family):
        elements = list(family.elements.values())
        values = born_probabilities(rho, elements)
        for value, element in zip(values, elements):
            assert abs(value - np.trace(rho @ reference_operator(element)).real) <= 1e-15
        # The rows as nested tuples of Python complex give the same bits.
        assert born_probabilities(tuple(map(tuple, rho.tolist())), elements) == values

    @given(state_directions)
    def test_batch_equals_one_at_a_time(self, n):
        state = _state(n)
        elements = list(cabello_family().elements.values())
        expected = tuple(born_probability(state, e) for e in elements)
        assert born_probabilities(state, elements) == expected

    @given(state_directions)
    def test_context_probabilities_sum_to_one(self, n):
        family = nakamura_family()
        state = _state(n)
        for context in family.contexts:
            total = sum(born_probability(state, family.elements[l]) for l in context)
            assert total == pytest.approx(1.0, abs=1e-10)

    @given(state_directions)
    def test_probability_within_weight_bound(self, n):
        state = _state(n)
        for family in (nakamura_family(), cabello_family()):
            for element in family.elements.values():
                p = born_probability(state, element)
                assert -1e-12 <= p <= float(element.weight) + 1e-12


def _through_json(family: PovmFamily) -> PovmFamily:
    """The family rebuilt from its ``to_dict`` form written as JSON text."""
    return PovmFamily.from_dict(json.loads(json.dumps(family.to_dict(), indent=2)))


class TestSerialization:
    def test_round_trip(self, cabello):
        doc = cabello.to_dict()
        rebuilt = PovmFamily.from_dict(doc)
        assert rebuilt.name == cabello.name
        assert rebuilt.contexts == cabello.contexts
        for label, element in cabello.elements.items():
            clone = rebuilt.elements[label]
            assert clone.weight == element.weight
            assert clone.direction.dot(element.direction) == pytest.approx(1.0, abs=ATOL)

    def test_json_round_trip(self, nakamura):
        rebuilt = _through_json(nakamura)
        assert rebuilt.contexts == nakamura.contexts
        assert rebuilt.elements["A+"].weight == Fraction(1, 2)

    @pytest.mark.parametrize("build", [nakamura_family, cabello_family])
    def test_hash_and_equality_survive_json_round_trip(self, build):
        family = build()
        rebuilt = _through_json(family)
        assert rebuilt == family
        assert hash(rebuilt) == hash(family)
        assert len({family, rebuilt}) == 1

    @pytest.mark.parametrize(
        "weights", [(Fraction(1, 3), Fraction(2, 3)), (Fraction(2, 3), Fraction(1, 3))]
    )
    def test_thirds_survive_json_round_trip(self, nakamura, weights):
        # A weight is written as its nearest float; 1/3 must come back as 1/3,
        # not as the decimal 0.3333333333333333.
        elements = {
            label: PovmElement(element.label, weights[label.endswith("-")], element.direction)
            for label, element in nakamura.elements.items()
        }
        family = PovmFamily(nakamura.name, elements, nakamura.contexts)
        rebuilt = _through_json(family)
        assert rebuilt == family
        assert hash(rebuilt) == hash(family)
        assert {e.weight for e in rebuilt.elements.values()} == set(weights)

    def test_weight_without_small_denominator_keeps_its_decimal(self, nakamura):
        doc = nakamura.to_dict()
        doc["elements"][0]["weight"] = 0.1234567
        assert PovmFamily.from_dict(doc).elements["A+"].weight == Fraction("0.1234567")

    def test_hash_agrees_with_equality_across_element_order(self, nakamura):
        reordered = PovmFamily(
            name=nakamura.name,
            elements=dict(reversed(nakamura.elements.items())),
            contexts=nakamura.contexts,
        )
        assert reordered == nakamura
        assert hash(reordered) == hash(nakamura)

    def test_list_built_equals_tuple_built(self, nakamura):
        listed = PovmFamily(nakamura.name, nakamura.elements, [list(c) for c in nakamura.contexts])
        assert listed.contexts == nakamura.contexts
        assert listed == nakamura
        assert hash(listed) == hash(nakamura)

    def test_document_field_names(self, nakamura):
        doc = nakamura.to_dict()
        assert set(doc) == {"name", "elements", "contexts"}
        assert set(doc["elements"][0]) == {"label", "weight", "direction"}

    def test_corrupt_direction_rejected(self, nakamura):
        doc = nakamura.to_dict()
        doc["elements"][0]["direction"] = [3.0, 0.0, 0.0]
        with pytest.raises(ValueError, match="unit"):
            PovmFamily.from_dict(doc)

    @pytest.mark.parametrize(
        "path,value,message",
        [
            ((), [1, 2], "expected a JSON object, got list"),
            (("name",), None, "'name' must be a string"),
            (("elements",), {"A+": 1}, "'elements' must be a list of objects"),
            (("elements", 1), "A-", "element 2: expected an object"),
            (("elements", 0, "label"), 7, "element 1: 'label' must be a string"),
            (("elements", 1, "label"), "A+", "element 2: duplicate label 'A+'"),
            (("elements", 0, "weight"), True, "element 1 (A+): 'weight' must be a finite number"),
            (("elements", 0, "weight"), 10**400, "element 1 (A+): 'weight' must be a finite number"),
            (("elements", 0, "weight"), -0.5, "element 'A+' must have positive weight"),
            (("elements", 0, "direction"), [0, 1], "element 1 (A+): 'direction' must be a list of 3"),
            (("elements", 0, "direction"), [0, "1", 0], "element 1 (A+): 'direction' must be a list of 3"),
            (("contexts",), "AB", "'contexts' must be a list of label lists"),
            (("contexts", 0), [1, 2], "'contexts' must be a list of label lists"),
            (("contexts", 0, 0), "Z+", "missing element: context references 'Z+'"),
            (("contexts",), [], "'contexts' must list at least one context"),
        ],
    )
    def test_malformed_document_rejected(self, nakamura, path, value, message):
        doc = nakamura.to_dict()
        if not path:
            doc = value
        else:
            target = doc
            for key in path[:-1]:
                target = target[key]
            target[path[-1]] = value
        with pytest.raises(ValueError) as exc:
            PovmFamily.from_dict(doc)
        assert str(exc.value).startswith(message)


class TestRotationInvariance:
    def test_checks_survive_a_global_rotation(self, nakamura):
        # The hexagon plane is a convention; any rigid rotation of all the
        # directions preserves every algebraic check.
        rng = np.random.default_rng(99)
        g = rng.standard_normal((3, 3))
        q, _ = np.linalg.qr(g)
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        rotated = PovmFamily(
            name="nakamura-rotated",
            elements={
                label: PovmElement(
                    label=label,
                    weight=e.weight,
                    direction=BlochVector.normalized(
                        *(q @ (e.direction.x, e.direction.y, e.direction.z))
                    ),
                )
                for label, e in nakamura.elements.items()
            },
            contexts=nakamura.contexts,
        )
        for context in rotated.contexts:
            assert check_completeness(context, rotated) <= 1e-10
        for i in range(len(rotated.contexts)):
            rotated.context_pairs(i)
