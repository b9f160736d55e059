import itertools
import json
import math
import string
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from types import MemberDescriptorType

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qcontext import (
    AuditEntry,
    DilationReport,
    DilationScheme,
    HiddenVariable,
    PovmElement,
    born_probabilities,
    cabello_family,
    check_completeness,
    count_consistent_slot_assignments,
    extension_audit,
    nakamura_family,
    noncontextual_value_map,
    one_to_one_feasibility,
    sequential_dilation,
    simulate_povm,
    validate_certificate,
    verify_dilation,
)
from qcontext import ks
from qcontext.bloch import BlochVector, projector_entries
from qcontext.cli import main
from qcontext.dilation import (
    RULE_CONFINEMENT,
    RULE_ORTHOGONALITY,
    RULE_ZERO_TRACE,
    CertificateStep,
    ContradictionCertificate,
    element_atom,
    filler_atom,
)
from qcontext.hv import Z_LIMIT
from qcontext.povm import PovmFamily

from conftest import (
    haar_unitary,
    random_density,
    random_projector,
    reference_operator,
    reference_projector,
)

ATOL = 1e-12


class TestPartialTrace:
    """The dense oracle's partial trace and POVM contribution."""

    def test_traces_out_first_factor(self):
        rng = np.random.default_rng(0)
        rho = random_density(4, rng)
        q = random_density(2, rng)
        recovered = _reference_partial_trace(np.kron(rho, q), 4)
        assert np.max(np.abs(recovered - np.trace(rho) * q)) <= 1e-12

    def test_contribution_weights_by_ancilla_population(self):
        state = np.diag([0.7, 0.3]).astype(complex)
        basis1 = np.diag([0.0, 1.0]).astype(complex)
        v = random_projector(2, 1, np.random.default_rng(1))
        out = _reference_contribution(state, np.kron(basis1, v))
        assert np.max(np.abs(out - 0.3 * v)) <= 1e-12

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="invalid scheme"):
            _reference_partial_trace(np.eye(6), 4)
        with pytest.raises(ValueError, match="invalid scheme"):
            _reference_partial_trace(np.ones(8), 4)

    def test_stack_traces_each_operator(self):
        rng = np.random.default_rng(5)
        stack = np.array([random_density(8, rng) for _ in range(3)]).reshape(3, 1, 8, 8)
        traced = _reference_partial_trace(stack, 4)
        assert traced.shape == (3, 1, 2, 2)
        for op, out in zip(stack[:, 0], traced[:, 0]):
            assert out.tobytes() == _reference_partial_trace(op, 4).tobytes()


class TestSequentialDilation:
    def test_nakamura_first_context_layout(self, nakamura):
        scheme = sequential_dilation(nakamura, 0)
        assert scheme.ancilla_dim == 2
        assert [label for label, _ in scheme.projectors] == ["A+", "A-", "B+", "B-"]
        assert [slot for _, (slot, _) in scheme.projectors] == [0, 0, 1, 1]
        # V is the element's own projector_entries tuple, not a copy.
        for label, (_, v) in scheme.projectors:
            assert v is nakamura.elements[label].projector_entries

    def test_recovers_elements_exactly(self, nakamura):
        dense = _embed(sequential_dilation(nakamura, 0))
        for label, op in dense.projectors:
            realized = _reference_contribution(dense.ancilla_state, op)
            expected = reference_operator(nakamura.elements[label])
            assert np.max(np.abs(realized - expected)) <= ATOL

    def test_all_contexts_verify(self, nakamura, cabello):
        for family in (nakamura, cabello):
            for i in range(len(family.contexts)):
                report = verify_dilation(sequential_dilation(family, i), family, i)
                assert report.passed(), report.to_dict()

    def test_invalid_context_index(self, nakamura):
        # True and a numpy integer would run as context 2; 1.0 failed as a tuple index.
        for index in (7, True, np.int64(1), 1.0):
            with pytest.raises(ValueError, match="context index must be (an int|<= 2)"):
                sequential_dilation(nakamura, index)

    def test_invalid_slot_order(self, nakamura):
        # Each of the last three sorts as the permutation (0, 1).
        for slot_order in ((0, 0), (True, 0), (np.int64(1), 0), (1.0, 0.0)):
            with pytest.raises(ValueError, match="permutation|slot order entry must be an int"):
                sequential_dilation(nakamura, 0, slot_order=slot_order)

    def test_empty_context_rejected(self):
        # PovmFamily allows an empty context, but there is nothing to dilate.
        family = PovmFamily(name="e", elements={}, contexts=((),))
        with pytest.raises(ValueError, match="invalid context: context 1 has no pairs"):
            sequential_dilation(family, 0)

    def test_slot_outside_ancilla_rejected(self, nakamura):
        # |1><1| (x) V does not live on a one-slot ancilla's space.
        scheme = sequential_dilation(nakamura, 0)
        v = scheme.projectors[0][1][1]
        with pytest.raises(ValueError, match=r"invalid scheme: B\+ slot must be <= 0, got 1"):
            DilationScheme(1, scheme.context_index, scheme.projectors)
        with pytest.raises(ValueError, match=r"invalid scheme: A\+ slot must be >= 0, got -1"):
            DilationScheme(2, 0, (("A+", (-1, v)),))
        # Without a slot there is no ancilla state to trace out against.
        with pytest.raises(
            ValueError, match="invalid scheme: ancilla dimension must be >= 1, got 0"
        ):
            DilationScheme(0, 0, ())
        with pytest.raises(ValueError, match="invalid scheme: context index must be >= 0, got -1"):
            DilationScheme(2, -1, ())
        # Each would otherwise pass as 1.
        for bad in (True, np.int64(1), 1.0):
            with pytest.raises(ValueError, match=r"invalid scheme: A\+ slot must be an int"):
                DilationScheme(2, 0, (("A+", (bad, v)),))
            with pytest.raises(ValueError, match="invalid scheme: ancilla dimension must be an int"):
                DilationScheme(bad, 0, ())
            with pytest.raises(ValueError, match="invalid scheme: context index must be an int"):
                DilationScheme(2, bad, ())


class TestVerifyDilation:
    def test_swapped_projectors_flag_exactly_those_labels(self, nakamura):
        scheme = sequential_dilation(nakamura, 0)
        projectors = dict(scheme.projectors)
        projectors["A+"], projectors["B+"] = projectors["B+"], projectors["A+"]
        swapped = DilationScheme(
            scheme.ancilla_dim, scheme.context_index, tuple(projectors.items())
        )
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

    def test_nan_residual_fails(self, nakamura):
        # A NaN in V's last entry only: max() would drop it behind the finite
        # moduli of the first three.
        scheme = sequential_dilation(nakamura, 0)
        broken = DilationScheme(
            scheme.ancilla_dim,
            scheme.context_index,
            tuple(
                (label, (slot, v[:3] + (complex(math.nan, 0.0),)))
                for label, (slot, v) in scheme.projectors
            ),
        )
        report = verify_dilation(broken, nakamura, 0)
        assert all(math.isnan(r) for r in report.element_residuals.values())
        assert math.isnan(report.orthogonality_residual)
        assert math.isnan(report.completeness_residual)
        assert math.isnan(report.max_residual)
        assert not report.passed()
        reference = _reference_verify_dilation(_embed(broken), nakamura, 0)
        assert json.dumps(report.to_dict()) == json.dumps(reference.to_dict())

    @pytest.mark.parametrize("index", [-3, -1, 3, True, np.int64(1), 1.0], ids=repr)
    def test_context_index_out_of_range(self, nakamura, index):
        scheme = sequential_dilation(nakamura, 0)
        with pytest.raises(ValueError, match="context index must be (an int|>= 0|<= 2)"):
            verify_dilation(scheme, nakamura, index)


def shuffle_identity_check(
    rho: np.ndarray, projector: np.ndarray, unitary: np.ndarray
) -> tuple[float, float]:
    """Evaluate trace((U rho U+) P) and trace(rho (U+ P U)).

    The two agree identically, which is why an entangling ancilla preparation
    can always be absorbed into a change of projectors.
    """
    unitary = np.asarray(unitary, dtype=complex)
    dim = unitary.shape[0]
    if np.max(np.abs(unitary @ unitary.conj().T - np.eye(dim))) > ATOL:
        raise ValueError("invalid unitary: U U+ differs from the identity")
    left = np.trace(unitary @ rho @ unitary.conj().T @ projector)
    right = np.trace(rho @ unitary.conj().T @ projector @ unitary)
    return float(left.real), float(right.real)

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

    def test_family_without_contexts_has_empty_report(self):
        assert extension_audit(PovmFamily("x", {}, ()), []) == ()

    @pytest.mark.parametrize(
        "change,message",
        [
            pytest.param(lambda s: s[:2], "need one scheme per context", id="one-short"),
            pytest.param(lambda s: s[::-1], "scheme 1 dilates context 3", id="reversed"),
            pytest.param(
                lambda s: [s[0], DilationScheme(3, s[1].context_index, s[1].projectors), s[2]],
                "ancilla dimension differs",
                id="ancilla-dim",
            ),
        ],
    )
    def test_incomparable_schemes_rejected(self, nakamura, change, message):
        schemes = [sequential_dilation(nakamura, i) for i in range(3)]
        with pytest.raises(ValueError, match=f"incomparable schemes: {message}"):
            extension_audit(nakamura, change(schemes))

    def test_scheme_missing_a_label_names_it(self, nakamura):
        schemes = [sequential_dilation(nakamura, i) for i in range(3)]
        kept = tuple(p for p in schemes[2].projectors if p[0] != "B+")
        schemes[2] = DilationScheme(schemes[2].ancilla_dim, 2, kept)
        with pytest.raises(KeyError, match=r"missing element: scheme has no projector for 'B\+'"):
            extension_audit(nakamura, schemes)

    def test_scheme_repeating_a_label_rejected(self, nakamura):
        # Context 3's scheme with a second B+ on slot 1: the audit could
        # compare only one of B+'s two projectors, so the scheme refuses it.
        scheme = sequential_dilation(nakamura, 2)
        label, (_, v) = scheme.projectors[0]
        assert label == "B+"
        with pytest.raises(
            ValueError, match=r"^invalid scheme: label 'B\+' has more than one projector$"
        ):
            DilationScheme(scheme.ancilla_dim, 2, (*scheme.projectors, ("B+", (1, v))))

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
        # The direct route holds with fillers, so it cites no hypothesis.
        assert not any(p.startswith("hypothesis:") for s in cert.steps for p in s.premises)

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
        # The intersection step holds only in a tight dilation, and says so.
        cited = [s.index for s in cert.steps if "hypothesis:tight" in s.premises]
        assert cited == [confinements[-1].index]
        final = cert.steps[-1]
        assert {"zero-trace:F3", "zero-trace:F4", "zero-trace:F5"} <= set(final.premises)

    def test_single_context_is_undecided(self, nakamura):
        assert one_to_one_feasibility(nakamura.restrict([0])) is None

    def test_disjoint_contexts_are_undecided(self, nakamura):
        disjoint = PovmFamily(
            name="disjoint",
            elements=dict(nakamura.elements),
            contexts=(("A+", "A-"), ("B+", "B-")),
        )
        assert one_to_one_feasibility(disjoint) is None
        # C+ lies in no context; the family still records its empty incidence.
        assert disjoint.element_contexts("C+") == ()

    def test_validator_rejects_tampering(self, nakamura):
        cert = one_to_one_feasibility(nakamura)
        broken_steps = list(cert.steps)
        last = broken_steps[-1]
        broken_steps[-1] = CertificateStep(
            last.index, last.rule, ("step:99",) + last.premises[1:], last.conclusion
        )
        broken = ContradictionCertificate(cert.family, cert.element, tuple(broken_steps))
        with pytest.raises(ValueError, match="non-preceding"):
            validate_certificate(broken, nakamura)

    def test_certificate_serialization(self, nakamura):
        doc = one_to_one_feasibility(nakamura).to_dict()
        assert doc["verdict"] == "contradiction"
        assert doc["family"] == "nakamura"
        assert all({"index", "rule", "premises", "conclusion"} <= set(s) for s in doc["steps"])


class TestValidatorRejectsMalformed:
    def test_another_familys_certificate(self, nakamura, cabello):
        cert = one_to_one_feasibility(nakamura)
        with pytest.raises(ValueError, match="certificate is for family 'nakamura', not 'cabello'"):
            validate_certificate(cert, cabello)
        # A restriction carries its own name, so its certificate validates.
        restricted = cabello.restrict([4, 3, 2, 1, 0])
        validate_certificate(one_to_one_feasibility(restricted), restricted)

    def test_no_steps(self, nakamura):
        cert = one_to_one_feasibility(nakamura)
        with pytest.raises(ValueError, match="certificate has no steps"):
            validate_certificate(ContradictionCertificate(cert.family, cert.element, ()), nakamura)

    def test_relabelled_element(self, nakamura):
        # Every step is about P[A+]; the certificate must not claim C-.
        cert = one_to_one_feasibility(nakamura)
        relabelled = ContradictionCertificate(cert.family, "C-", cert.steps)
        with pytest.raises(ValueError, match=r"certificate names element 'C-', its final step 'A\+'"):
            validate_certificate(relabelled, nakamura)

    @pytest.mark.parametrize("premise", ["hypothesis:fillers", "hypothesis:"])
    def test_unknown_hypothesis(self, cabello, premise):
        cert = one_to_one_feasibility(cabello)
        step = cert.steps[-2]
        premises = tuple(premise if p == "hypothesis:tight" else p for p in step.premises)
        steps = (*cert.steps[:-2], CertificateStep(step.index, step.rule, premises, step.conclusion))
        broken = ContradictionCertificate(cert.family, cert.element, (*steps, cert.steps[-1]))
        with pytest.raises(ValueError, match=f"unknown hypothesis premise '{premise}'"):
            validate_certificate(broken, cabello)

    @pytest.mark.parametrize("premise", ["step:x", "context:x", "step:", "context:-1"])
    def test_malformed_number_names_the_premise(self, nakamura, premise):
        cert = one_to_one_feasibility(nakamura)
        step = cert.steps[0]
        first = CertificateStep(step.index, step.rule, (premise,), step.conclusion)
        broken = ContradictionCertificate(cert.family, cert.element, (first,) + cert.steps[1:])
        with pytest.raises(ValueError, match=f"step 1 has malformed premise '{premise}'"):
            validate_certificate(broken, nakamura)


class TestUniformAncilla:
    def test_entries(self):
        assert np.array_equal(_uniform_ancilla_state(4), np.full((4, 4), 0.25, dtype=complex))
        state = _uniform_ancilla_state(2)
        assert np.trace(state) == 1.0
        assert np.max(np.abs(state @ state - state)) <= ATOL


# --- the dense oracle: every extended projector a (2N, 2N) array, an element
# recovered by the partial trace against the uniform ancilla state, and one
# numpy call per projector, per pair of projectors and per audited label. The
# block code in qcontext.dilation must reproduce every residual exactly.
#
# Products are einsum's and moduli np.hypot's: both evaluate an entry with the
# floating-point operations of the block code's Python arithmetic. The @
# operator and np.abs round differently on complex input (fused multiply-adds
# in the BLAS kernel, a vectorised modulus), so they are not used here.


@dataclass(frozen=True, eq=False)
class _DenseScheme:
    ancilla_dim: int
    ancilla_state: np.ndarray
    context_index: int
    projectors: tuple[tuple[str, np.ndarray], ...]

    def projector_for(self, label: str) -> np.ndarray:
        return dict(self.projectors)[label]


def _uniform_ancilla_state(dim: int) -> np.ndarray:
    """Density matrix of the equally weighted superposition over dim basis kets."""
    return np.full((dim, dim), 1.0 / dim, dtype=complex)


def _reference_partial_trace(op, ancilla_dim: int) -> np.ndarray:
    """Trace out the first (ancilla) factor of an operator on C^N (x) C^2, or
    of each operator of a stack, shape (..., 2N, 2N)."""
    op = np.asarray(op)
    dim = 2 * ancilla_dim
    if op.ndim < 2 or op.shape[-2:] != (dim, dim):
        raise ValueError(
            f"invalid scheme: operator shape {op.shape} does not match ancilla dim {ancilla_dim}"
        )
    return np.einsum("...aiaj->...ij", op.reshape(op.shape[:-2] + (ancilla_dim, 2, ancilla_dim, 2)))


def _reference_contribution(ancilla_state, projector) -> np.ndarray:
    """The qubit operator Tr_A{(rho_A (x) I) P} realized by an extended projector."""
    n = ancilla_state.shape[0]
    lifted = np.einsum("ij,jk->ik", np.kron(ancilla_state, np.eye(2, dtype=complex)), projector)
    return _reference_partial_trace(lifted, n)


def _dense_norm(ops) -> float:
    """Largest entry modulus of an array (or a list of arrays), 0.0 for none."""
    ops = np.asarray(ops)
    return float(np.max(np.hypot(ops.real, ops.imag), initial=0.0))


def _embed(scheme: DilationScheme) -> _DenseScheme:
    """The dense form of a block scheme: each (slot, V) as |slot><slot| (x) V."""
    n = scheme.ancilla_dim
    projectors = []
    for label, (slot, v) in scheme.projectors:
        op = np.zeros((2 * n, 2 * n), dtype=complex)
        op[2 * slot : 2 * slot + 2, 2 * slot : 2 * slot + 2] = np.array(v).reshape(2, 2)
        projectors.append((label, op))
    return _DenseScheme(n, _uniform_ancilla_state(n), scheme.context_index, tuple(projectors))


def _reference_sequential_dilation(family, context_index, slot_order) -> _DenseScheme:
    pairs = family.context_pairs(context_index)
    n_slots = len(pairs)
    projectors = []
    for slot, pair_index in enumerate(slot_order):
        basis = np.zeros((n_slots, n_slots), dtype=complex)
        basis[slot, slot] = 1.0
        for label in pairs[pair_index]:
            direction = family.elements[label].direction
            projectors.append((label, np.kron(basis, reference_projector(direction))))
    return _DenseScheme(
        ancilla_dim=n_slots,
        ancilla_state=_uniform_ancilla_state(n_slots),
        context_index=context_index,
        projectors=tuple(projectors),
    )


def _reference_verify_dilation(scheme: _DenseScheme, family, context_index) -> DilationReport:
    element_residuals = {}
    for label, op in scheme.projectors:
        realized = _reference_contribution(scheme.ancilla_state, op)
        element_residuals[label] = _dense_norm(realized - reference_operator(family.elements[label]))
    ops = [op for _, op in scheme.projectors]
    products = [np.einsum("ij,jk->ik", a, b) for a, b in itertools.combinations(ops, 2)]
    dim = 2 * scheme.ancilla_dim
    return DilationReport(
        context_index=context_index,
        element_residuals=element_residuals,
        orthogonality_residual=_dense_norm(products),
        completeness_residual=_dense_norm(sum(ops) - np.eye(dim)),
    )


def _reference_extension_audit(family, schemes) -> tuple[AuditEntry, ...]:
    entries = []
    for label in family.elements:
        for i, j in itertools.combinations(family.element_contexts(label), 2):
            diff = _dense_norm(schemes[i].projector_for(label) - schemes[j].projector_for(label))
            entries.append(AuditEntry(label, (i, j), diff <= ATOL, diff))
    return tuple(entries)


def _reference_count_consistent_slot_assignments(family) -> int:
    """The slot-map count by its own backtracking search over pair keys, a
    pair's key being its labels, sorted."""
    all_pairs = [
        [tuple(sorted(pair)) for pair in family.context_pairs(i)]
        for i in range(len(family.contexts))
    ]
    keys = sorted({key for pairs in all_pairs for key in pairs})
    containing = {key: [i for i, pairs in enumerate(all_pairs) if key in pairs] for key in keys}

    def extend(position: int, assigned: dict[tuple[str, str], int]) -> int:
        if position == len(keys):
            return 1
        key = keys[position]
        total = 0
        limit = min(len(all_pairs[c]) for c in containing[key])
        for slot in range(limit):
            clash = any(
                assigned.get(other) == slot
                for c in containing[key]
                for other in all_pairs[c]
                if other in assigned
            )
            if not clash:
                assigned[key] = slot
                total += extend(position + 1, assigned)
                del assigned[key]
        return total

    return extend(0, {})


FAMILIES = (nakamura_family(), cabello_family())

#: A V entry of either sign and any exponent, small enough that no product
#: of the dense oracle overflows.
_V_ENTRY = st.complex_numbers(max_magnitude=4, allow_nan=False, allow_infinity=False)


@st.composite
def perturbed_dilations(draw, family, context_index):
    """A context's sequential dilation under a random slot order, then some
    projectors' V replaced by random entries and two labels' projectors
    swapped."""
    order = draw(st.permutations(range(len(family.context_pairs(context_index)))))
    scheme = sequential_dilation(family, context_index, slot_order=order)
    projectors = [
        (label, (slot, draw(st.tuples(*[_V_ENTRY] * 4)) if draw(st.booleans()) else v))
        for label, (slot, v) in scheme.projectors
    ]
    if draw(st.booleans()):
        a, b = draw(st.permutations(range(len(projectors))))[:2]
        (label_a, op_a), (label_b, op_b) = projectors[a], projectors[b]
        projectors[a], projectors[b] = (label_a, op_b), (label_b, op_a)
    return DilationScheme(scheme.ancilla_dim, scheme.context_index, tuple(projectors))


@st.composite
def dilation_cases(draw):
    family = draw(st.sampled_from(FAMILIES))
    context_index = draw(st.integers(0, len(family.contexts) - 1))
    return family, context_index, draw(perturbed_dilations(family, context_index))


@st.composite
def audit_cases(draw):
    """One perturbed sequential dilation per context."""
    family = draw(st.sampled_from(FAMILIES))
    return family, [draw(perturbed_dilations(family, i)) for i in range(len(family.contexts))]


class TestStackedMatchesReference:
    """The block dilation code against the dense oracle, exactly."""

    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.name)
    def test_sequential_dilation_every_slot_order(self, family):
        for i in range(len(family.contexts)):
            for order in itertools.permutations(range(len(family.context_pairs(i)))):
                scheme = sequential_dilation(family, i, slot_order=order)
                dense = _embed(scheme)
                reference = _reference_sequential_dilation(family, i, order)
                assert dense.ancilla_dim == reference.ancilla_dim
                assert [l for l, _ in dense.projectors] == [l for l, _ in reference.projectors]
                for (_, op), (_, expected) in zip(dense.projectors, reference.projectors):
                    # Equal as numbers: the kron could only add a sign to a zero.
                    assert np.array_equal(op, expected)
                report = verify_dilation(scheme, family, i)
                expected_report = _reference_verify_dilation(reference, family, i)
                assert json.dumps(report.to_dict()) == json.dumps(expected_report.to_dict())

    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.name)
    def test_default_reports(self, family):
        schemes = [sequential_dilation(family, i) for i in range(len(family.contexts))]
        for i, scheme in enumerate(schemes):
            reference = _reference_verify_dilation(_embed(scheme), family, i)
            assert verify_dilation(scheme, family, i) == reference
        dense = [_embed(scheme) for scheme in schemes]
        assert extension_audit(family, schemes) == _reference_extension_audit(family, dense)

    def test_scheme_without_elements(self):
        # A context may be empty; its scheme's one slot is then empty too.
        family = PovmFamily(name="empty", elements={}, contexts=((),))
        scheme = DilationScheme(ancilla_dim=1, context_index=0, projectors=())
        report = verify_dilation(scheme, family, 0)
        assert report == _reference_verify_dilation(_embed(scheme), family, 0)
        assert report.completeness_residual == 1.0

    @settings(max_examples=150, deadline=None)
    @given(dilation_cases())
    def test_verify_dilation(self, case):
        family, context_index, scheme = case
        report = verify_dilation(scheme, family, context_index)
        reference = _reference_verify_dilation(_embed(scheme), family, context_index)
        assert json.dumps(report.to_dict()) == json.dumps(reference.to_dict())

    @settings(max_examples=60, deadline=None)
    @given(audit_cases())
    def test_extension_audit(self, case):
        family, schemes = case
        dense = [_embed(scheme) for scheme in schemes]
        assert extension_audit(family, schemes) == _reference_extension_audit(family, dense)


def _restrictions(family):
    indices = range(len(family.contexts))
    for size in range(1, len(family.contexts) + 1):
        for subset in itertools.combinations(indices, size):
            yield family.restrict(subset)


def _hand_built(contexts):
    cabello = cabello_family()
    return PovmFamily(name="hand-built", elements=dict(cabello.elements), contexts=contexts)


# Built from cabello's antipodal pairs, with their counts worked by hand. Each
# element weighs 1/4, so a context of another pair count has no slot pairs and
# both counts refuse the family with its reason; so does one with no pairs.
HAND_BUILT = {
    "unequal-pair-counts": ("context 2: element 'A\\+' has weight 1/4, not 1/2", (
        ("A+", "A-", "C+", "C-", "I+", "I-", "J+", "J-"),
        ("A+", "A-", "D+", "D-"),
        ("C+", "C-", "D+", "D-", "G+", "G-"),
    )),
    "unfillable-slot": ("context 1: element 'A\\+' has weight 1/4, not 1/3", (
        ("A+", "A-", "C+", "C-", "I+", "I-"),
        ("A+", "A-"),
        ("C+", "C-"),
    )),
    "empty-context": ("context 2 has no pairs", (
        ("A+", "A-", "C+", "C-", "I+", "I-", "J+", "J-"),
        (),
        ("A+", "A-", "D+", "D-", "G+", "G-", "H+", "H-"),
    )),
    "only-empty-context": ("context 1 has no pairs", ((),)),
    "one-context-two-orders": (24, (
        ("A+", "A-", "C+", "C-", "I+", "I-", "J+", "J-"),
        ("J+", "J-", "I+", "I-", "C+", "C-", "A+", "A-"),
    )),
}


class TestSlotCountMatchesReference:
    """The exact-cover reduction against the backtracking search, exactly."""

    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.name)
    def test_every_restriction(self, family):
        counts = []
        for sub in _restrictions(family):
            count = count_consistent_slot_assignments(sub)
            assert count == _reference_count_consistent_slot_assignments(sub), sub.name
            counts.append(count)
        assert len(counts) == 2 ** len(family.contexts) - 1
        assert counts[-1] == 0 and max(counts) > 0

    def test_search_limit(self, cabello, monkeypatch):
        monkeypatch.setattr(ks, "SEARCH_LIMIT", 10)
        with pytest.raises(ValueError, match="search limit"):
            count_consistent_slot_assignments(cabello)

    @pytest.mark.parametrize("name", HAND_BUILT)
    def test_hand_built(self, name):
        expected, contexts = HAND_BUILT[name]
        family = _hand_built(contexts)
        for count in (_reference_count_consistent_slot_assignments, count_consistent_slot_assignments):
            if isinstance(expected, int):
                assert count(family) == expected
            else:
                with pytest.raises(ValueError, match=f"^invalid context: {expected}$"):
                    count(family)

    @pytest.mark.parametrize(
        "family,expected",
        [(FAMILIES[0], 0), (FAMILIES[1], 0), (FAMILIES[0].restrict([0]), 2)],
        ids=lambda value: getattr(value, "name", None),
    )
    def test_count_ignores_pair_orientation_and_context_order(self, family, expected):
        # Each context in turn lists its first pair as (minus, plus), and the
        # contexts come in reverse order: the same pairs in the same contexts.
        for flipped in range(len(family.contexts)):
            contexts = list(family.contexts)
            first, second, *rest = contexts[flipped]
            contexts[flipped] = (second, first, *rest)
            rewritten = PovmFamily(family.name, family.elements, contexts[::-1])
            assert count_consistent_slot_assignments(rewritten) == expected, flipped
            assert _reference_count_consistent_slot_assignments(rewritten) == expected, flipped


class TestElementOperators:
    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.name)
    def test_cached_read_only_and_bit_equal(self, family):
        for element in family.elements.values():
            fresh = PovmElement(element.label, element.weight, element.direction)
            # Both are slots, so nothing computes them later: each is filled
            # when the element is built, or reading it would raise.
            for name in ("projector_entries", "entries"):
                assert isinstance(getattr(PovmElement, name), MemberDescriptorType)
            # Kept as tuples of Python complex, which no caller can write to.
            for name, oracle in (
                ("projector_entries", reference_projector(element.direction)),
                ("entries", reference_operator(element)),
            ):
                entries = getattr(fresh, name)
                assert type(entries) is tuple
                assert np.array(entries).tobytes() == oracle.tobytes()
                assert all(type(entry) is complex for entry in entries)
                assert getattr(fresh, name) is entries


# --- the one-to-one reasoner as first written: a constraint graph with a second
# copy of its groups as orthogonal pairs, and a certificate builder with two
# confinement emitters. one_to_one_feasibility must give the same certificate.


@dataclass(frozen=True)
class _ReferenceConstraintGraph:
    """Symbolic skeleton of the one-to-one hypothesis for a family.

    One atom per element (the hypothesis: a single projector serves both of
    its contexts) plus one filler per context, constrained by zero POVM
    contribution. Orthogonality pairs are those implied by shared-context
    membership.
    """

    atoms: tuple[str, ...]
    completeness_groups: tuple[tuple[str, ...], ...]
    orthogonal_pairs: frozenset[tuple[str, str]]
    zero_trace: frozenset[str]

    @classmethod
    def from_family(cls, family: PovmFamily) -> "_ReferenceConstraintGraph":
        groups = tuple(
            tuple(element_atom(label) for label in context) + (filler_atom(i),)
            for i, context in enumerate(family.contexts)
        )
        orthogonal = set()
        for group in groups:
            for a, b in itertools.combinations(group, 2):
                orthogonal.add(tuple(sorted((a, b))))
        atoms = tuple(sorted(element_atom(l) for l in family.elements)) + tuple(
            filler_atom(i) for i in range(len(family.contexts))
        )
        return cls(
            atoms=atoms,
            completeness_groups=groups,
            orthogonal_pairs=frozenset(orthogonal),
            zero_trace=frozenset(filler_atom(i) for i in range(len(family.contexts))),
        )

    def orthogonal(self, a: str, b: str) -> bool:
        return tuple(sorted((a, b))) in self.orthogonal_pairs

    def shared_context(self, a: str, b: str) -> int | None:
        for i, group in enumerate(self.completeness_groups):
            if a in group and b in group:
                return i
        return None



class _ReferenceCertificateBuilder:
    """Emits steps in derivation order, deduplicating the shared-context facts."""

    def __init__(self):
        self.steps: list[CertificateStep] = []
        self._context_steps: dict[int, int] = {}

    def _append(self, rule, premises, conclusion) -> int:
        index = len(self.steps) + 1
        self.steps.append(CertificateStep(index, rule, tuple(premises), conclusion))
        return index

    def mutual_orthogonality(self, graph: _ReferenceConstraintGraph, context_index: int) -> int:
        if context_index not in self._context_steps:
            members = ", ".join(graph.completeness_groups[context_index])
            self._context_steps[context_index] = self._append(
                RULE_ORTHOGONALITY,
                [f"context:{context_index + 1}"],
                f"members of context {context_index + 1} are mutually orthogonal: {members}",
            )
        return self._context_steps[context_index]

    def confinement(self, atom, within, context_index, orthogonality_steps) -> int:
        span = " + ".join(within)
        premises = [f"context:{context_index + 1}"]
        premises += [f"step:{i}" for i in orthogonality_steps]
        return self._append(
            RULE_CONFINEMENT,
            premises,
            f"{atom} confined in {span} (completeness of context {context_index + 1})",
        )

    def refined_confinement(self, atom, within, conf_steps, orthogonality_steps) -> int:
        span = " + ".join(within)
        premises = [f"step:{i}" for i in conf_steps]
        premises += [f"step:{i}" for i in orthogonality_steps]
        premises.append("hypothesis:tight")
        return self._append(
            RULE_CONFINEMENT,
            premises,
            f"{atom} confined in {span} (intersection of the confinements)",
        )

    def contradiction(self, label, atom, weight, within, conf_step) -> None:
        premises = [f"step:{conf_step}"]
        premises += [f"zero-trace:{f}" for f in within]
        premises.append(f"element:{label}")
        self._append(
            RULE_ZERO_TRACE,
            premises,
            f"{atom} is confined in zero-contribution projectors, forcing a zero "
            f"POVM contribution, but element {label} has weight {weight} > 0",
        )


def _reference_contradiction_for(
    graph: _ReferenceConstraintGraph, family: PovmFamily, label: str
) -> ContradictionCertificate | None:
    atom = element_atom(label)
    containing = [i for i, g in enumerate(graph.completeness_groups) if atom in g]
    foreign = [i for i in range(len(graph.completeness_groups)) if atom not in graph.completeness_groups[i]]

    confinements = []
    for c in foreign:
        group = graph.completeness_groups[c]
        remainder = tuple(x for x in group if not graph.orthogonal(atom, x))
        if len(remainder) < len(group):
            confinements.append((c, remainder))

    def build(conf_subset, refined_within, eliminations):
        builder = _ReferenceCertificateBuilder()
        base_steps = [builder.mutual_orthogonality(graph, c) for c in containing]
        conf_steps = [
            builder.confinement(atom, remainder, c, base_steps)
            for c, remainder in conf_subset
        ]
        if refined_within is None:
            final_conf, within = conf_steps[-1], conf_subset[-1][1]
        else:
            orth_steps = sorted(
                {
                    builder.mutual_orthogonality(graph, ctx)
                    for contexts in eliminations.values()
                    for ctx in contexts
                }
            )
            final_conf = builder.refined_confinement(
                atom, refined_within, conf_steps, orth_steps
            )
            within = refined_within
        builder.contradiction(label, atom, family.elements[label].weight, within, final_conf)
        return ContradictionCertificate(
            family=family.name, element=label, steps=tuple(builder.steps)
        )

    # Direct route: some context's remainder is already all zero-trace.
    for c, remainder in confinements:
        if set(remainder) <= graph.zero_trace:
            return build([(c, remainder)], None, None)

    # Intersection route: eliminate every non-filler atom that is orthogonal to
    # the whole non-filler part of a confinement it does not appear in.
    if len(confinements) >= 2:
        union = sorted({x for _, rem in confinements for x in rem})
        blockers = [x for x in union if x not in graph.zero_trace]
        eliminations: dict[str, list[int]] = {}
        for q in blockers:
            for c, remainder in confinements:
                others = [x for x in remainder if x not in graph.zero_trace]
                if q not in remainder and all(graph.orthogonal(q, x) for x in others):
                    contexts = [graph.shared_context(q, x) for x in others]
                    if all(ctx is not None for ctx in contexts):
                        eliminations[q] = sorted(set(contexts))
                        break
        refined = tuple(x for x in union if x in graph.zero_trace or x not in eliminations)
        if set(refined) <= graph.zero_trace:
            return build(confinements, refined, eliminations)

    return None


def _reference_one_to_one_feasibility(family: PovmFamily) -> ContradictionCertificate | None:
    """Test the hypothesis that every element keeps one extended projector.

    Builds the symbolic constraint graph (atoms, per-context completeness,
    shared-context orthogonality, zero-trace fillers) and saturates the
    deduction rules; returns the first contradiction certificate in element
    label order, or None when the hypothesis survives (feasible).

    Soundness of the zero-trace rule: confinement in a sum of mutually
    orthogonal projectors is an operator inequality, and the ancilla partial
    trace against a fixed state is positive and linear, so a projector confined
    in zero-contribution projectors contributes zero itself. The intersection
    step follows the source argument: a non-filler blocker orthogonal to the
    whole non-filler part of a confinement it is absent from cannot carry the
    atom's range.
    """
    graph = _ReferenceConstraintGraph.from_family(family)
    for label in sorted(family.elements):
        certificate = _reference_contradiction_for(graph, family, label)
        if certificate is not None:
            return certificate
    return None


def _ordered_restrictions(family):
    """Every non-empty sequence of distinct contexts, in every order."""
    for size in range(1, len(family.contexts) + 1):
        for order in itertools.permutations(range(len(family.contexts)), size):
            yield family.restrict(order)


def _same_certificate(family) -> ContradictionCertificate | None:
    cert = one_to_one_feasibility(family)
    reference = _reference_one_to_one_feasibility(family)
    if reference is None:
        assert cert is None, family.name
    else:
        assert cert is not None, family.name
        assert cert.to_dict() == reference.to_dict(), family.name
    return cert


@st.composite
def reasoner_families(draw):
    """2-12 labels, 1-6 contexts of any size; a label may recur across contexts
    and may be in none."""
    n_labels = draw(st.integers(2, 12))
    label_text = st.text(alphabet="ABCab+-", min_size=1, max_size=3)
    labels = draw(st.lists(label_text, min_size=n_labels, max_size=n_labels, unique=True))
    # Each label draws the contexts it is in, then each context lists its
    # labels in any order.
    n_contexts = draw(st.integers(1, 6))
    membership = {label: draw(st.sets(st.integers(0, n_contexts - 1))) for label in labels}
    contexts = tuple(
        tuple(draw(st.permutations([label for label in labels if c in membership[label]])))
        for c in range(n_contexts)
    )
    north = BlochVector(0.0, 0.0, 1.0)
    # An element's weight lies in (0, 1].
    weights = st.fractions(min_value=Fraction(1, 9), max_value=1, max_denominator=9)
    elements = {label: PovmElement(label, draw(weights), north) for label in labels}
    return PovmFamily(name="random", elements=elements, contexts=tuple(contexts))


@st.composite
def thinned_cabello_families(draw):
    """Two to five of cabello's contexts in any order, each with up to two
    labels dropped: near the structure where the intersection route fires."""
    cabello = cabello_family()
    order = draw(st.permutations(range(len(cabello.contexts))))[: draw(st.integers(2, 5))]
    contexts = []
    for c in order:
        dropped = draw(st.sets(st.sampled_from(cabello.contexts[c]), max_size=2))
        contexts.append(tuple(label for label in cabello.contexts[c] if label not in dropped))
    return PovmFamily(name="thinned", elements=dict(cabello.elements), contexts=tuple(contexts))


class TestReasonerMatchesReference:
    """The one-derivation reasoner against the reasoner as first written."""

    def test_every_ordered_restriction(self):
        restrictions = [sub for family in FAMILIES for sub in _ordered_restrictions(family)]
        assert len(restrictions) == 340
        certs = [cert for cert in map(_same_certificate, restrictions) if cert is not None]
        intersections = [cert for cert in certs if "intersection" in cert.steps[-2].conclusion]
        # Both routes are exercised: the direct route on nakamura's six
        # orders of all three contexts, the intersection route on cabello's
        # 120 orders of all five. Every proper restriction is feasible.
        assert (len(certs), len(intersections)) == (126, 120)

    @settings(max_examples=300, deadline=None)
    @given(reasoner_families())
    def test_random_families(self, family):
        cert = _same_certificate(family)
        if cert is not None:
            validate_certificate(cert, family)

    @settings(max_examples=200, deadline=None)
    @given(thinned_cabello_families())
    def test_thinned_cabello(self, family):
        cert = _same_certificate(family)
        if cert is not None:
            validate_certificate(cert, family)

    def test_eleven_contexts_order_fillers_as_strings(self, cabello):
        # Cabello's contexts 1-3, six pair contexts that share nothing with
        # them, then cabello's contexts 4-5: the final span lists the cited
        # fillers in string order (F10 before F3), and the blockers go in the
        # order of their atom strings.
        x_axis = BlochVector(1.0, 0.0, 0.0)
        minus_x = BlochVector(-1.0, 0.0, 0.0)
        elements = dict(cabello.elements)
        pairs = []
        for k in range(6):
            elements[f"X{k}+"] = PovmElement(f"X{k}+", Fraction(1), x_axis)
            elements[f"X{k}-"] = PovmElement(f"X{k}-", Fraction(1), minus_x)
            pairs.append((f"X{k}+", f"X{k}-"))
        contexts = (*cabello.contexts[:3], *pairs, *cabello.contexts[3:])
        family = PovmFamily(name="eleven", elements=elements, contexts=contexts)
        cert = _same_certificate(family)
        validate_certificate(cert, family)
        confinements = [s for s in cert.steps if s.rule == RULE_CONFINEMENT]
        assert confinements[-1].conclusion == (
            "P[A+] confined in F10 + F11 + F3 (intersection of the confinements)"
        )


# --- regular-graph families: the vertices of a d-regular graph are the
# contexts and its edges the letters, one antipodal pair of weight 1/d per
# edge. P(v) + P(-v) = I, so every context sums to I whatever the directions;
# these come from a Fibonacci spiral over the upper hemisphere, so no two are
# equal or antipodal. Nakamura's incidence is K3 and cabello's is K5.


def _graph_family(name: str, edges) -> PovmFamily:
    degree = Counter(v for edge in edges for v in edge)
    (d,) = set(degree.values())
    golden_angle = math.pi * (3 - math.sqrt(5))
    elements = {}
    incident = {v: [] for v in sorted(degree)}
    for i, (edge, letter) in enumerate(zip(edges, string.ascii_uppercase)):
        z = 1 - (i + 0.5) / len(edges)
        r = math.sqrt(1 - z * z)
        v = BlochVector.normalized(r * math.cos(i * golden_angle), r * math.sin(i * golden_angle), z)
        elements[f"{letter}+"] = PovmElement(f"{letter}+", Fraction(1, d), v)
        elements[f"{letter}-"] = PovmElement(f"{letter}-", Fraction(1, d), BlochVector(-v.x, -v.y, -v.z))
        for vertex in edge:
            incident[vertex] += [f"{letter}+", f"{letter}-"]
    return PovmFamily(name=name, elements=elements, contexts=tuple(map(tuple, incident.values())))


_PETERSEN = (
    [(i, (i + 1) % 5) for i in range(5)]
    + [(i, i + 5) for i in range(5)]
    + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
)

#: name: (edges, KS valid_count, consistent slot maps, final confinement or None).
REGULAR_GRAPHS = {
    "K3": (list(itertools.combinations(range(3), 2)), 0, 0,
           "P[A+] confined in F3 (completeness of context 3)"),
    "K4": (list(itertools.combinations(range(4), 2)), 12, 6, None),
    "K5": (list(itertools.combinations(range(5), 2)), 0, 0,
           "P[A+] confined in F3 + F4 + F5 (intersection of the confinements)"),
    "K3,3": ([(a, b) for a in range(3) for b in range(3, 6)], 48, 12, None),
    "Q3": ([(i, i ^ bit) for i in range(8) for bit in (1, 2, 4) if i < i ^ bit], 144, 24, None),
    "Petersen": (_PETERSEN, 192, 0, None),
}


class TestRegularGraphFamilies:
    @pytest.mark.parametrize("name", list(REGULAR_GRAPHS))
    def test_counts_and_verdict(self, name):
        edges, valid_count, slot_maps, final = REGULAR_GRAPHS[name]
        family = _graph_family(name, edges)
        assert all(check_completeness(c, family) <= ATOL for c in family.contexts)
        hypergraph = ks.ContextHypergraph.from_contexts(family.contexts)
        assert ks.enumerate_assignments(hypergraph).valid_count == valid_count
        assert count_consistent_slot_assignments(family) == slot_maps
        cert = _same_certificate(family)
        if final is None:
            assert cert is None
        else:
            validate_certificate(cert, family)
            assert [s for s in cert.steps if s.rule == RULE_CONFINEMENT][-1].conclusion == final


#: A± of weight 2/3 along z and B± of 1/3 along x: complete in both of its
#: contexts, with every element in two, but no context weighs its pairs 1/2.
UNEQUAL = PovmFamily(
    "unequal",
    {
        f"{letter}{sign}": PovmElement(f"{letter}{sign}", weight, BlochVector(*(s * c for c in axis)))
        for letter, weight, axis in (("A", Fraction(2, 3), (0.0, 0.0, 1.0)),
                                     ("B", Fraction(1, 3), (1.0, 0.0, 0.0)))
        for sign, s in (("+", 1.0), ("-", -1.0))
    },
    (("A+", "A-", "B+", "B-"), ("B+", "B-", "A+", "A-")),
)
_N = BlochVector.normalized(0.6, 0.0, 0.8)


def _float_weighted(family: PovmFamily) -> PovmFamily:
    """``family`` with each weight replaced by its nearest float."""
    elements = {l: PovmElement(l, float(e.weight), e.direction) for l, e in family.elements.items()}
    return PovmFamily(f"{family.name}-float", elements, family.contexts)


class TestSlotModel:
    """A context of N pairs dilates and samples on a uniform N-slot ancilla:
    any N >= 1, and only when each of its elements weighs 1/N."""

    def test_unequal_weights_pass_check(self, tmp_path, capsys):
        path = tmp_path / "unequal.json"
        path.write_text(json.dumps(UNEQUAL.to_dict()))
        assert main(["check", "--family-file", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["passed"] is True

    @pytest.mark.parametrize("reader", [
        lambda f: sequential_dilation(f, 0),
        lambda f: simulate_povm(f, 0, _N, 1000, seed=1),
        count_consistent_slot_assignments,
        lambda f: noncontextual_value_map(HiddenVariable(0, _N), f, _N),
    ], ids=["sequential_dilation", "simulate_povm", "slot_count", "value_map"])
    def test_unequal_weights_refused_by_slot_readers(self, reader):
        message = "^invalid context: context 1: element 'A\\+' has weight 2/3, not 1/2$"
        with pytest.raises(ValueError, match=message):
            reader(UNEQUAL)

    @pytest.mark.parametrize("family", [
        _graph_family("K4", list(itertools.combinations(range(4), 2))),
        _graph_family("K2", [(0, 1)]),
        _float_weighted(_graph_family("K4", list(itertools.combinations(range(4), 2)))),
        _float_weighted(_graph_family("K6", list(itertools.combinations(range(6), 2)))),
    ], ids=lambda f: f.name)
    def test_any_pair_count_dilates_and_simulates(self, family):
        # K4's contexts hold 3 pairs of weight 1/3, K2's one pair of weight 1
        # and K6's 5 pairs. The rule is weight * N == 1, which the floats 1/3
        # and 0.2 meet too.
        scheme = sequential_dilation(family, 0)
        assert scheme.ancilla_dim == len(family.contexts[0]) // 2
        assert verify_dilation(scheme, family, 0).passed()
        report = simulate_povm(family, 0, _N, 200_000, seed=1)
        assert max(map(abs, report.z_scores)) <= Z_LIMIT


# --- rewriting a family: new labels, contexts in another order, each
# context's pairs in another order and any pair listed (minus, plus). The
# same letters in the same contexts, so every invariant below must hold.

REWRITE_FAMILIES = (
    *FAMILIES,
    *(FAMILIES[0].restrict(order) for order in ([0], [0, 1], [2, 1])),
    *(FAMILIES[1].restrict(order) for order in ([0], [0, 1], [4, 2, 0])),
    *(_graph_family(name, edges) for name, (edges, *_) in REGULAR_GRAPHS.items()),
)
_STATE = projector_entries(BlochVector.normalized(0.3, -0.5, 0.8))


@st.composite
def rewritten_families(draw):
    """A family of ``REWRITE_FAMILIES``, its rewriting and the label map."""
    family = draw(st.sampled_from(REWRITE_FAMILIES))
    labels = list(family.elements)
    # "e10" sorts before "e2": the new names come in another string order.
    names = draw(st.permutations([f"e{i}" for i in range(len(labels))]))
    rename = dict(zip(labels, names))
    contexts = []
    for context in draw(st.permutations(family.contexts)):
        pairs = draw(st.permutations([context[k : k + 2] for k in range(0, len(context), 2)]))
        pairs = [pair[::-1] if draw(st.booleans()) else pair for pair in pairs]
        contexts.append(tuple(rename[label] for pair in pairs for label in pair))
    elements = {}
    for label in draw(st.permutations(labels)):
        element = family.elements[label]
        elements[rename[label]] = PovmElement(rename[label], element.weight, element.direction)
    return family, PovmFamily(f"{family.name}-rewritten", elements, contexts), rename


def _rewrite_invariants(family):
    verdict = ks.enumerate_assignments(ks.ContextHypergraph.from_contexts(family.contexts))
    cert = one_to_one_feasibility(family)
    if cert is not None:
        validate_certificate(cert, family)
    return (
        verdict.valid_count,
        verdict.colorable,
        count_consistent_slot_assignments(family),
        cert is None,
    )


def _born_by_label(family):
    values = {}
    for context in family.contexts:
        born = born_probabilities((_STATE[:2], _STATE[2:]), [family.elements[l] for l in context])
        values.update(zip(context, born))
    return values


class TestRewriteInvariants:
    """What a family proves does not depend on how it is written."""

    @settings(max_examples=200, deadline=None)
    @given(rewritten_families())
    def test_rewrite_keeps_every_invariant(self, case):
        family, rewritten, rename = case
        # The certificate of each is validated against its own family.
        assert _rewrite_invariants(rewritten) == _rewrite_invariants(family)
        born = _born_by_label(family)
        assert _born_by_label(rewritten) == {rename[l]: p for l, p in born.items()}
        # The completeness sums add in another order, so they are not bit-equal.
        for context in rewritten.contexts:
            assert check_completeness(context, rewritten) <= ATOL
