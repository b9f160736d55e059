import itertools
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qcontext import (
    AuditEntry,
    DilationReport,
    DilationScheme,
    PovmElement,
    cabello_family,
    count_consistent_slot_assignments,
    extension_audit,
    nakamura_family,
    one_to_one_feasibility,
    partial_trace_over_ancilla,
    povm_contribution,
    projector_from_bloch,
    sequential_dilation,
    shuffle_identity_check,
    validate_certificate,
    verify_dilation,
)
from qcontext.dilation import (
    RULE_CONFINEMENT,
    RULE_ZERO_TRACE,
    ConstraintGraph,
    uniform_ancilla_state,
)
from qcontext.povm import PovmFamily

from conftest import haar_unitary, random_density, random_projector

ATOL = 1e-12


class TestPartialTrace:
    def test_traces_out_first_factor(self):
        rng = np.random.default_rng(0)
        rho = random_density(4, rng)
        q = random_density(2, rng)
        recovered = partial_trace_over_ancilla(np.kron(rho, q), 4)
        assert np.max(np.abs(recovered - np.trace(rho) * q)) <= 1e-12

    def test_contribution_weights_by_ancilla_population(self):
        state = np.diag([0.7, 0.3]).astype(complex)
        basis1 = np.diag([0.0, 1.0]).astype(complex)
        v = random_projector(2, 1, np.random.default_rng(1))
        out = povm_contribution(state, np.kron(basis1, v))
        assert np.max(np.abs(out - 0.3 * v)) <= 1e-12

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="invalid scheme"):
            partial_trace_over_ancilla(np.eye(6), 4)
        with pytest.raises(ValueError, match="invalid scheme"):
            partial_trace_over_ancilla(np.ones(8), 4)

    def test_stack_traces_each_operator(self):
        rng = np.random.default_rng(5)
        stack = np.array([random_density(8, rng) for _ in range(3)]).reshape(3, 1, 8, 8)
        traced = partial_trace_over_ancilla(stack, 4)
        assert traced.shape == (3, 1, 2, 2)
        for op, out in zip(stack[:, 0], traced[:, 0]):
            assert out.tobytes() == partial_trace_over_ancilla(op, 4).tobytes()


class TestSequentialDilation:
    def test_nakamura_first_context_layout(self, nakamura):
        scheme = sequential_dilation(nakamura, 0)
        assert scheme.ancilla_dim == 2
        assert [label for label, _ in scheme.projectors] == ["A+", "A-", "B+", "B-"]
        for _, op in scheme.projectors:
            assert op.shape == (4, 4)
        # Uniform superposition over two ancilla kets.
        assert np.array_equal(scheme.ancilla_state, np.full((2, 2), 0.5, dtype=complex))

    def test_recovers_elements_exactly(self, nakamura):
        scheme = sequential_dilation(nakamura, 0)
        for label, op in scheme.projectors:
            realized = povm_contribution(scheme.ancilla_state, op)
            expected = nakamura.elements[label].operator
            assert np.max(np.abs(realized - expected)) <= ATOL

    def test_all_contexts_verify(self, nakamura, cabello):
        for family in (nakamura, cabello):
            for i in range(len(family.contexts)):
                report = verify_dilation(sequential_dilation(family, i), family, i)
                assert report.passed(ATOL), report.to_dict()

    def test_invalid_context_index(self, nakamura):
        with pytest.raises(ValueError, match="invalid context"):
            sequential_dilation(nakamura, 7)

    def test_invalid_slot_order(self, nakamura):
        with pytest.raises(ValueError, match="permutation"):
            sequential_dilation(nakamura, 0, slot_order=(0, 0))

    def test_empty_context_rejected(self):
        # PovmFamily allows an empty context, but there is nothing to dilate.
        family = PovmFamily(name="e", elements={}, contexts=((),))
        with pytest.raises(ValueError, match="invalid context: context 1 has no pairs"):
            sequential_dilation(family, 0)


class TestVerifyDilation:
    def test_ground_ancilla_breaks_partial_trace(self, nakamura):
        # With the ancilla forced to |0><0|, slot 0 fires with probability 1:
        # the A pair comes back unhalved and the B pair vanishes.
        scheme = sequential_dilation(nakamura, 0)
        ground = np.zeros((2, 2), dtype=complex)
        ground[0, 0] = 1.0
        broken = replace(scheme, ancilla_state=ground)
        report = verify_dilation(broken, nakamura, 0)
        assert report.element_residuals["A+"] == pytest.approx(0.5, abs=ATOL)
        assert report.element_residuals["A-"] == pytest.approx(0.5, abs=ATOL)
        expected_b = float(np.max(np.abs(nakamura.elements["B+"].operator)))
        assert report.element_residuals["B+"] == pytest.approx(expected_b, abs=ATOL)
        # The projector set itself is untouched.
        assert report.orthogonality_residual <= ATOL
        assert report.completeness_residual <= ATOL

    def test_swapped_projectors_flag_exactly_those_labels(self, nakamura):
        scheme = sequential_dilation(nakamura, 0)
        projectors = dict(scheme.projectors)
        projectors["A+"], projectors["B+"] = projectors["B+"], projectors["A+"]
        swapped = replace(scheme, projectors=tuple(projectors.items()))
        report = verify_dilation(swapped, nakamura, 0)
        assert report.element_residuals["A+"] > 0.1
        assert report.element_residuals["B+"] > 0.1
        assert report.element_residuals["A-"] <= ATOL
        assert report.element_residuals["B-"] <= ATOL
        assert report.orthogonality_residual <= ATOL
        assert report.completeness_residual <= ATOL

    def test_label_mismatch_rejected(self, nakamura):
        scheme = sequential_dilation(nakamura, 0)
        with pytest.raises(ValueError, match="invalid scheme"):
            verify_dilation(scheme, nakamura, 1)

    def test_fillers_report_their_contribution(self, nakamura):
        # Add an explicit filler on an extended (dim 8) space: slots 0,1 carry
        # the pairs, slot 2 is dead weight orthogonal to the ancilla state.
        pairs = nakamura.context_pairs(0)
        state = np.zeros((4, 4), dtype=complex)
        state[:2, :2] = 0.5
        projectors = []
        for slot, (plus, minus) in enumerate(pairs):
            basis = np.zeros((4, 4), dtype=complex)
            basis[slot, slot] = 1.0
            for label in (plus, minus):
                direction = nakamura.elements[label].direction
                projectors.append((label, np.kron(basis, projector_from_bloch(direction))))
        filler = np.zeros((8, 8), dtype=complex)
        filler[4:, 4:] = np.eye(4)
        scheme = DilationScheme(
            ancilla_dim=4,
            ancilla_state=state,
            context_index=0,
            projectors=tuple(projectors),
            fillers=(filler,),
        )
        report = verify_dilation(scheme, nakamura, 0)
        assert report.passed(ATOL), report.to_dict()
        assert report.filler_residuals == (0.0,)


class TestShuffleIdentity:
    def test_identity_unitary(self):
        rng = np.random.default_rng(3)
        rho = random_density(4, rng)
        p = random_projector(4, 2, rng)
        left, right = shuffle_identity_check(rho, p, np.eye(4, dtype=complex))
        assert left == right

    def test_swap_unitary(self):
        swap = np.zeros((4, 4), dtype=complex)
        for i, j in itertools.product(range(2), range(2)):
            swap[i * 2 + j, j * 2 + i] = 1.0
        rng = np.random.default_rng(4)
        left, right = shuffle_identity_check(random_density(4, rng), random_projector(4, 1, rng), swap)
        assert abs(left - right) <= ATOL

    def test_thousand_random_triples(self):
        # Invariant sweep at both relevant dimensions.
        rng = np.random.default_rng(2718)
        for trial in range(1000):
            dim = 4 if trial % 2 == 0 else 8
            rho = random_density(dim, rng)
            p = random_projector(dim, 1 + trial % (dim - 1), rng)
            u = haar_unitary(dim, rng)
            left, right = shuffle_identity_check(rho, p, u)
            assert abs(left - right) <= ATOL

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError, match="invalid unitary"):
            shuffle_identity_check(np.eye(4) / 4, np.eye(4), np.ones((4, 4)))


class TestExtensionAudit:
    def test_default_nakamura_slots_mismatch_b(self, nakamura):
        schemes = [sequential_dilation(nakamura, i) for i in range(3)]
        entries = {e.label: e for e in extension_audit(nakamura, schemes)}
        # Contexts 1 and 2 both put A on slot 0; context 3 then has to move
        # either B or C, and with listing order it is B.
        assert entries["A+"].equal and entries["A-"].equal
        assert entries["C+"].equal and entries["C-"].equal
        assert not entries["B+"].equal and not entries["B-"].equal
        assert entries["B+"].max_difference > 0.4

    def test_single_context_family_has_empty_report(self, nakamura):
        sub = nakamura.restrict([0])
        entries = extension_audit(sub, [sequential_dilation(sub, 0)])
        assert entries == ()

    def test_incomparable_ancilla_states_rejected(self, nakamura):
        schemes = [sequential_dilation(nakamura, i) for i in range(3)]
        ground = np.zeros((2, 2), dtype=complex)
        ground[0, 0] = 1.0
        schemes[1] = replace(schemes[1], ancilla_state=ground)
        with pytest.raises(ValueError, match="incomparable"):
            extension_audit(nakamura, schemes)

    def test_projector_shape_mismatch_rejected(self, nakamura):
        schemes = [sequential_dilation(nakamura, i) for i in range(3)]
        cropped = tuple((label, op[:2, :2]) for label, op in schemes[1].projectors)
        schemes[1] = replace(schemes[1], projectors=cropped)
        with pytest.raises(ValueError, match=r"incomparable schemes: A\+ projector shape \(2, 2\)"):
            extension_audit(nakamura, schemes)

    def test_every_nakamura_slot_assignment_leaves_a_mismatch(self, nakamura):
        for orders in itertools.product(list(itertools.permutations(range(2))), repeat=3):
            schemes = [
                sequential_dilation(nakamura, i, slot_order=orders[i]) for i in range(3)
            ]
            entries = extension_audit(nakamura, schemes)
            assert any(not entry.equal for entry in entries), orders

    def test_consistent_assignment_counts(self, nakamura, cabello):
        assert count_consistent_slot_assignments(nakamura) == 0
        assert count_consistent_slot_assignments(cabello) == 0
        # A single context is trivially consistent: both pair orders work.
        assert count_consistent_slot_assignments(nakamura.restrict([0])) == 2

    def test_count_matches_numeric_audit_on_restriction(self, nakamura):
        # Dual route on a feasible instance: the two contexts {A,B} and {A,C}
        # admit consistent assignments, and the numeric audit agrees.
        sub = nakamura.restrict([0, 1])
        count = count_consistent_slot_assignments(sub)
        mismatch_free = 0
        for orders in itertools.product(list(itertools.permutations(range(2))), repeat=2):
            schemes = [sequential_dilation(sub, i, slot_order=orders[i]) for i in range(2)]
            if all(e.equal for e in extension_audit(sub, schemes)):
                mismatch_free += 1
        # Each global pair->slot map is realized by exactly one order per context.
        assert count == mismatch_free == 2


class TestOneToOneFeasibility:
    def test_nakamura_certificate(self, nakamura):
        cert = one_to_one_feasibility(nakamura)
        assert cert is not None
        assert cert.element == "A+"
        validate_certificate(cert, nakamura)
        confinements = [s for s in cert.steps if s.rule == RULE_CONFINEMENT]
        assert confinements[-1].conclusion == (
            "P[A+] confined in F3 (completeness of context 3)"
        )
        final = cert.steps[-1]
        assert final.rule == RULE_ZERO_TRACE
        assert "zero-trace:F3" in final.premises
        assert "element:A+" in final.premises

    def test_cabello_certificate(self, cabello):
        cert = one_to_one_feasibility(cabello)
        assert cert is not None
        assert cert.element == "A+"
        validate_certificate(cert, cabello)
        confinements = [s for s in cert.steps if s.rule == RULE_CONFINEMENT]
        assert "F3 + F4 + F5" in confinements[-1].conclusion
        # The three intermediate confinements quote the published deductions.
        texts = [s.conclusion for s in confinements[:-1]]
        assert any("P[B+] + P[B-] + P[F+] + P[F-] + F3" in t for t in texts)
        assert any("P[B+] + P[B-] + P[E+] + P[E-] + F4" in t for t in texts)
        assert any("P[E+] + P[E-] + P[F+] + P[F-] + F5" in t for t in texts)
        final = cert.steps[-1]
        assert {"zero-trace:F3", "zero-trace:F4", "zero-trace:F5"} <= set(final.premises)

    def test_single_context_is_feasible(self, nakamura):
        assert one_to_one_feasibility(nakamura.restrict([0])) is None

    def test_disjoint_contexts_are_feasible(self, nakamura):
        disjoint = PovmFamily(
            name="disjoint",
            elements=dict(nakamura.elements),
            contexts=(("A+", "A-"), ("B+", "B-")),
        )
        assert one_to_one_feasibility(disjoint) is None

    def test_graph_inputs(self, nakamura):
        graph = ConstraintGraph.from_family(nakamura)
        assert graph.zero_trace == frozenset({"F1", "F2", "F3"})
        assert graph.orthogonal("P[A+]", "P[B-]")
        # A's pair never shares a context with the third filler.
        assert not graph.orthogonal("P[A+]", "F3")
        assert len(graph.completeness_groups) == 3

    def test_validator_rejects_tampering(self, nakamura):
        cert = one_to_one_feasibility(nakamura)
        broken_steps = list(cert.steps)
        last = broken_steps[-1]
        broken_steps[-1] = replace(last, premises=("step:99",) + last.premises[1:])
        with pytest.raises(ValueError, match="non-preceding"):
            validate_certificate(replace(cert, steps=tuple(broken_steps)), nakamura)

    def test_certificate_serialization(self, nakamura):
        doc = one_to_one_feasibility(nakamura).to_dict()
        assert doc["verdict"] == "contradiction"
        assert doc["family"] == "nakamura"
        assert all({"index", "rule", "premises", "conclusion"} <= set(s) for s in doc["steps"])


class TestUniformAncilla:
    def test_entries(self):
        assert np.array_equal(uniform_ancilla_state(4), np.full((4, 4), 0.25, dtype=complex))
        state = uniform_ancilla_state(2)
        assert np.trace(state) == 1.0
        assert np.max(np.abs(state @ state - state)) <= ATOL


# --- the loop-based dilation code as first written: one numpy call per
# projector, per pair of projectors and per audited label. The stacked code
# in qcontext.dilation must reproduce every residual exactly.


def _reference_operator(element) -> np.ndarray:
    return float(element.weight) * projector_from_bloch(element.direction)


def _reference_contribution(ancilla_state, projector) -> np.ndarray:
    n = ancilla_state.shape[0]
    lifted = np.kron(ancilla_state, np.eye(2, dtype=complex)) @ projector
    return np.einsum("aiaj->ij", lifted.reshape(n, 2, n, 2))


def _reference_sequential_dilation(family, context_index, slot_order) -> DilationScheme:
    pairs = family.context_pairs(context_index)
    n_slots = len(pairs)
    projectors = []
    for slot, pair_index in enumerate(slot_order):
        basis = np.zeros((n_slots, n_slots), dtype=complex)
        basis[slot, slot] = 1.0
        for label in pairs[pair_index]:
            direction = family.elements[label].direction
            projectors.append((label, np.kron(basis, projector_from_bloch(direction))))
    return DilationScheme(
        ancilla_dim=n_slots,
        ancilla_state=uniform_ancilla_state(n_slots),
        context_index=context_index,
        projectors=tuple(projectors),
    )


def _reference_verify_dilation(scheme, family, context_index) -> DilationReport:
    all_ops = [op for _, op in scheme.projectors] + list(scheme.fillers)
    element_residuals = {}
    for label, op in scheme.projectors:
        realized = _reference_contribution(scheme.ancilla_state, op)
        expected = _reference_operator(family.elements[label])
        element_residuals[label] = float(np.max(np.abs(realized - expected)))
    filler_residuals = tuple(
        float(np.max(np.abs(_reference_contribution(scheme.ancilla_state, op))))
        for op in scheme.fillers
    )
    orthogonality = 0.0
    for a, b in itertools.combinations(all_ops, 2):
        orthogonality = max(orthogonality, float(np.max(np.abs(a @ b))))
    dim = 2 * scheme.ancilla_dim
    completeness = float(np.max(np.abs(sum(all_ops) - np.eye(dim))))
    return DilationReport(
        context_index=context_index,
        element_residuals=element_residuals,
        filler_residuals=filler_residuals,
        orthogonality_residual=orthogonality,
        completeness_residual=completeness,
    )


def _reference_extension_audit(family, schemes) -> tuple[AuditEntry, ...]:
    entries = []
    for label in family.elements:
        for i, j in itertools.combinations(family.element_contexts(label), 2):
            diff = float(
                np.max(np.abs(schemes[i].projector_for(label) - schemes[j].projector_for(label)))
            )
            entries.append(AuditEntry(label, (i, j), diff <= ATOL, diff))
    return tuple(entries)


FAMILIES = (nakamura_family(), cabello_family())


def _swap_labels(scheme, rng) -> DilationScheme:
    """Exchange the projectors of two labels."""
    labels = [label for label, _ in scheme.projectors]
    a, b = rng.choice(len(labels), size=2, replace=False)
    ops = [op for _, op in scheme.projectors]
    ops[a], ops[b] = ops[b], ops[a]
    return replace(scheme, projectors=tuple(zip(labels, ops)))


@st.composite
def dilation_cases(draw):
    """A context's sequential dilation under random slot orders, then
    perturbed: a wider ancilla with fillers, a random ancilla density state,
    and swapped projectors."""
    family = draw(st.sampled_from(FAMILIES))
    context_index = draw(st.integers(0, len(family.contexts) - 1))
    n_slots = len(family.context_pairs(context_index))
    slot_order = draw(st.permutations(range(n_slots)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scheme = _reference_sequential_dilation(family, context_index, slot_order)

    extra = draw(st.integers(0, 2))
    if extra:
        dim = 2 * (n_slots + extra)
        padded = []
        for label, op in scheme.projectors:
            wide = np.zeros((dim, dim), dtype=complex)
            wide[: 2 * n_slots, : 2 * n_slots] = op
            padded.append((label, wide))
        rest = np.zeros((dim, dim), dtype=complex)
        rest[2 * n_slots :, 2 * n_slots :] = np.eye(2 * extra)
        fillers = [rest] + [
            random_projector(dim, int(rng.integers(1, dim)), rng)
            for _ in range(draw(st.integers(0, 2)))
        ]
        state = np.zeros((n_slots + extra, n_slots + extra), dtype=complex)
        state[:n_slots, :n_slots] = uniform_ancilla_state(n_slots)
        scheme = DilationScheme(
            ancilla_dim=n_slots + extra,
            ancilla_state=state,
            context_index=context_index,
            projectors=tuple(padded),
            fillers=tuple(fillers),
        )
    if draw(st.booleans()):
        scheme = replace(scheme, ancilla_state=random_density(scheme.ancilla_dim, rng))
    if draw(st.booleans()):
        scheme = _swap_labels(scheme, rng)
    return family, context_index, scheme


@st.composite
def audit_cases(draw):
    """One sequential dilation per context, random slot orders, optionally a
    shared random ancilla state and swapped projectors."""
    family = draw(st.sampled_from(FAMILIES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    schemes = []
    for i in range(len(family.contexts)):
        order = draw(st.permutations(range(len(family.context_pairs(i)))))
        scheme = sequential_dilation(family, i, slot_order=order)
        if draw(st.booleans()):
            scheme = _swap_labels(scheme, rng)
        schemes.append(scheme)
    if draw(st.booleans()):
        state = random_density(schemes[0].ancilla_dim, rng)
        schemes = [replace(s, ancilla_state=state) for s in schemes]
    return family, schemes


class TestStackedMatchesReference:
    """The stacked dilation code against the loop-based reference, exactly."""

    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.name)
    def test_sequential_dilation_every_slot_order(self, family):
        for i in range(len(family.contexts)):
            for order in itertools.permutations(range(len(family.context_pairs(i)))):
                scheme = sequential_dilation(family, i, slot_order=order)
                reference = _reference_sequential_dilation(family, i, order)
                assert scheme.ancilla_dim == reference.ancilla_dim
                assert np.array_equal(scheme.ancilla_state, reference.ancilla_state)
                assert [l for l, _ in scheme.projectors] == [l for l, _ in reference.projectors]
                for (_, op), (_, expected) in zip(scheme.projectors, reference.projectors):
                    # Equal as numbers: the kron could only add a sign to a zero.
                    assert np.array_equal(op, expected)

    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.name)
    def test_default_reports(self, family):
        for i in range(len(family.contexts)):
            scheme = sequential_dilation(family, i)
            reference = _reference_verify_dilation(scheme, family, i)
            assert verify_dilation(scheme, family, i) == reference

    @pytest.mark.parametrize("fillers", [(), (np.eye(2, dtype=complex),)])
    def test_scheme_without_elements(self, fillers):
        # A context may be empty; its scheme holds fillers or nothing at all.
        family = PovmFamily(name="empty", elements={}, contexts=((),))
        scheme = DilationScheme(
            ancilla_dim=1,
            ancilla_state=np.ones((1, 1), dtype=complex),
            context_index=0,
            projectors=(),
            fillers=fillers,
        )
        report = verify_dilation(scheme, family, 0)
        assert report == _reference_verify_dilation(scheme, family, 0)

    @settings(max_examples=150, deadline=None)
    @given(dilation_cases())
    def test_verify_dilation(self, case):
        family, context_index, scheme = case
        report = verify_dilation(scheme, family, context_index)
        reference = _reference_verify_dilation(scheme, family, context_index)
        assert json.dumps(report.to_dict()) == json.dumps(reference.to_dict())

    @settings(max_examples=60, deadline=None)
    @given(audit_cases())
    def test_extension_audit(self, case):
        family, schemes = case
        assert extension_audit(family, schemes) == _reference_extension_audit(family, schemes)


class TestElementOperators:
    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.name)
    def test_cached_read_only_and_bit_equal(self, family):
        for element in family.elements.values():
            fresh = PovmElement(element.label, element.weight, element.direction)
            for op, expected in (
                (fresh.projector, projector_from_bloch(element.direction)),
                (fresh.operator, _reference_operator(element)),
            ):
                assert op.tobytes() == expected.tobytes()
                assert not op.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    op[0, 0] = 0.0
            assert fresh.operator is fresh.operator
            assert fresh.projector is fresh.projector
