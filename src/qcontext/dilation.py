"""Naimark dilations of the measurement families and the one-to-one audit.

A dilation realizes each POVM element as a von Neumann projector on
ancilla (x) qubit, with the element recovered by tracing the ancilla out
against a fixed ancilla state. This module builds the sequential dilation
(ancilla basis slot per antipodal pair), verifies it numerically, compares
the extended projectors an element receives in its two contexts, and
machine-checks that no slot assignment — indeed no one-to-one projector
correspondence at all — can serve both families.

The numeric checks run on stacked projectors: a context's projectors form
one (M, 2N, 2N) array, so its partial traces, pairwise products and
completeness sum are one numpy call each, as are the differences of the
extension audit. Each entry is computed with the same arithmetic as one
call per projector (or pair), so every residual is bit-for-bit the same.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bloch import ATOL, IDENTITY2
from .povm import PovmFamily


def partial_trace_over_ancilla(op: np.ndarray, ancilla_dim: int) -> np.ndarray:
    """Trace out the first (ancilla) factor of an operator on C^N (x) C^2.

    Takes one operator or a stack of them, shape (..., 2N, 2N).
    """
    op = np.asarray(op)
    dim = 2 * ancilla_dim
    if op.ndim < 2 or op.shape[-2:] != (dim, dim):
        raise ValueError(
            f"invalid scheme: operator shape {op.shape} does not match ancilla dim {ancilla_dim}"
        )
    split = op.reshape(op.shape[:-2] + (ancilla_dim, 2, ancilla_dim, 2))
    return np.einsum("...aiaj->...ij", split)


def povm_contribution(ancilla_state: np.ndarray, projector: np.ndarray) -> np.ndarray:
    """The qubit operator Tr_A{(rho_A (x) I) P} realized by an extended projector
    (or by each projector of a stack)."""
    n = ancilla_state.shape[0]
    # np.kron(ancilla_state, IDENTITY2) written out: the same products,
    # without kron's per-call overhead.
    kron = np.asarray(ancilla_state).reshape(n, 1, n, 1) * IDENTITY2.reshape(1, 2, 1, 2)
    lifted = kron.reshape(2 * n, 2 * n) @ projector
    return partial_trace_over_ancilla(lifted, n)


def uniform_ancilla_state(dim: int) -> np.ndarray:
    """Density matrix of the equally weighted superposition over dim basis kets."""
    return np.full((dim, dim), 1.0 / dim, dtype=complex)


@dataclass(frozen=True, eq=False)
class DilationScheme:
    """Extended projectors realizing one context via a shared ancilla state.

    ``projectors`` pairs each element label with its projector on the
    2*ancilla_dim space, in slot order; ``fillers`` are any extra projectors
    completing the resolution of identity without contributing to the POVM.
    """

    ancilla_dim: int
    ancilla_state: np.ndarray
    context_index: int
    projectors: tuple[tuple[str, np.ndarray], ...]
    fillers: tuple[np.ndarray, ...] = ()

    def projector_for(self, label: str) -> np.ndarray:
        for candidate, op in self.projectors:
            if candidate == label:
                return op
        raise KeyError(f"missing element: scheme has no projector for {label!r}")


def sequential_dilation(
    family: PovmFamily, context_index: int, slot_order: Sequence[int] | None = None
) -> DilationScheme:
    """Dilate one context by assigning each antipodal pair an ancilla basis slot.

    The ancilla is prepared in the uniform superposition over N basis kets
    (N = pair count), and the pair on slot k gets projectors |k><k| (x) V(+-v).
    The 2N projectors resolve the identity, so no fillers are needed. By
    default pairs take slots in context listing order; ``slot_order`` gives
    the pair index occupying each slot.
    """
    pairs = family.context_pairs(context_index)
    n_slots = len(pairs)
    if n_slots == 0:
        raise ValueError(f"invalid context: context {context_index + 1} has no pairs to dilate")
    if slot_order is None:
        slot_order = tuple(range(n_slots))
    if sorted(slot_order) != list(range(n_slots)):
        raise ValueError(f"invalid context: slot order {slot_order!r} is not a permutation")

    # |k><k| (x) V is V on the k-th diagonal 2x2 block and zero elsewhere.
    stack = np.zeros((2 * n_slots, 2 * n_slots, 2 * n_slots), dtype=complex)
    projectors = []
    for slot, pair_index in enumerate(slot_order):
        block = slice(2 * slot, 2 * slot + 2)
        for label in pairs[pair_index]:
            op = stack[len(projectors)]
            op[block, block] = family.elements[label].projector
            projectors.append((label, op))

    return DilationScheme(
        ancilla_dim=n_slots,
        ancilla_state=uniform_ancilla_state(n_slots),
        context_index=context_index,
        projectors=tuple(projectors),
    )


@dataclass(frozen=True)
class DilationReport:
    """Max-norm residuals of the four dilation contracts for one context."""

    context_index: int
    element_residuals: dict[str, float]
    filler_residuals: tuple[float, ...]
    orthogonality_residual: float
    completeness_residual: float

    @property
    def max_residual(self) -> float:
        values = [self.orthogonality_residual, self.completeness_residual]
        values.extend(self.element_residuals.values())
        values.extend(self.filler_residuals)
        return max(values)

    def passed(self, atol: float = ATOL) -> bool:
        return self.max_residual <= atol

    def to_dict(self) -> dict:
        return {
            "context": self.context_index + 1,
            "element_residuals": dict(self.element_residuals),
            "filler_residuals": list(self.filler_residuals),
            "orthogonality_residual": self.orthogonality_residual,
            "completeness_residual": self.completeness_residual,
            "max_residual": self.max_residual,
        }


def verify_dilation(
    scheme: DilationScheme, family: PovmFamily, context_index: int
) -> DilationReport:
    """Check a scheme against its context: recovered elements, silent fillers,
    mutual orthogonality, and completeness on the extended space."""
    context = family.contexts[context_index]
    scheme_labels = [label for label, _ in scheme.projectors]
    if sorted(scheme_labels) != sorted(context):
        raise ValueError(
            f"invalid scheme: projector labels {scheme_labels!r} do not match context {context!r}"
        )
    dim = 2 * scheme.ancilla_dim
    if scheme.ancilla_state.shape != (scheme.ancilla_dim, scheme.ancilla_dim):
        raise ValueError("invalid scheme: ancilla state shape mismatch")
    all_ops = [op for _, op in scheme.projectors] + list(scheme.fillers)
    for op in all_ops:
        if op.shape != (dim, dim):
            raise ValueError(f"invalid scheme: projector shape {op.shape} on dimension {dim}")

    # Every projector, then every filler, stacked; the reshapes keep an empty
    # scheme 3-D. The batched matmul and einsum compute each entry as the
    # one-matrix calls would.
    stack = np.array(all_ops).reshape(-1, dim, dim)
    realized = povm_contribution(scheme.ancilla_state, stack)
    expected = np.array(
        [family.elements[label].operator for label in scheme_labels]
    ).reshape(-1, 2, 2)
    n_elements = len(scheme_labels)
    residuals = np.abs(realized[:n_elements] - expected).max(axis=(1, 2)).tolist()
    filler_residuals = np.abs(realized[n_elements:]).max(axis=(1, 2)).tolist()

    # Index pairs i < j, as np.triu_indices gives them, without its overhead.
    first, second = np.nonzero(~np.tri(len(stack), dtype=bool))
    products = stack[first] @ stack[second]
    orthogonality = float(np.abs(products).max()) if len(products) else 0.0

    completeness = float(np.max(np.abs(stack.sum(axis=0) - np.eye(dim))))

    return DilationReport(
        context_index=context_index,
        element_residuals=dict(zip(scheme_labels, residuals)),
        filler_residuals=tuple(filler_residuals),
        orthogonality_residual=orthogonality,
        completeness_residual=completeness,
    )


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


@dataclass(frozen=True)
class AuditEntry:
    """Comparison of one element's extended projectors across two contexts."""

    label: str
    context_indices: tuple[int, int]
    equal: bool
    max_difference: float

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "contexts": [i + 1 for i in self.context_indices],
            "equal": self.equal,
            "max_difference": self.max_difference,
        }


def extension_audit(
    family: PovmFamily, schemes: Sequence[DilationScheme]
) -> tuple[AuditEntry, ...]:
    """Compare each shared element's extended projectors entrywise.

    All schemes must share the ancilla dimension and state; elements occurring
    in a single context produce no entries.
    """
    if len(schemes) != len(family.contexts):
        raise ValueError("incomparable schemes: need one scheme per context")
    first = schemes[0]
    for scheme in schemes[1:]:
        if scheme.ancilla_dim != first.ancilla_dim or np.max(
            np.abs(scheme.ancilla_state - first.ancilla_state)
        ) > ATOL:
            raise ValueError("incomparable schemes: ancilla dimension or state differs")
    dim = 2 * first.ancilla_dim
    for scheme in schemes:
        for label, op in scheme.projectors:
            if op.shape != (dim, dim):
                raise ValueError(
                    f"incomparable schemes: {label} projector shape {op.shape} on dimension {dim}"
                )

    pairs = [
        (label, i, j)
        for label in family.elements
        for i, j in itertools.combinations(family.element_contexts(label), 2)
    ]
    if not pairs:
        return ()
    left = np.array([schemes[i].projector_for(label) for label, i, _ in pairs])
    right = np.array([schemes[j].projector_for(label) for label, _, j in pairs])
    diffs = np.abs(left - right).max(axis=(1, 2)).tolist()
    return tuple(
        AuditEntry(label=label, context_indices=(i, j), equal=diff <= ATOL, max_difference=diff)
        for (label, i, j), diff in zip(pairs, diffs)
    )


def count_consistent_slot_assignments(family: PovmFamily) -> int:
    """Count global pair-to-slot maps that are bijective inside every context.

    A sequential dilation is mismatch-free in the extension audit exactly when
    such a map exists, so a zero count is the exhaustive-slot-assignment form
    of the different-extensions result.
    """
    all_pairs = [family.context_pairs(i) for i in range(len(family.contexts))]
    keys = sorted({plus for pairs in all_pairs for plus, _ in pairs})
    containing = {
        key: [i for i, pairs in enumerate(all_pairs) if any(p == key for p, _ in pairs)]
        for key in keys
    }

    def extend(position: int, assigned: dict[str, int]) -> int:
        if position == len(keys):
            return 1
        key = keys[position]
        total = 0
        limit = min(len(all_pairs[c]) for c in containing[key])
        for slot in range(limit):
            clash = any(
                assigned.get(other) == slot
                for c in containing[key]
                for other, _ in all_pairs[c]
                if other in assigned
            )
            if not clash:
                assigned[key] = slot
                total += extend(position + 1, assigned)
                del assigned[key]
        return total

    return extend(0, {})


# --- one-to-one feasibility reasoner -------------------------------------

RULE_ORTHOGONALITY = "orthogonality-from-shared-context"
RULE_CONFINEMENT = "confinement-from-completeness"
RULE_ZERO_TRACE = "zero-trace-propagation"


def element_atom(label: str) -> str:
    return f"P[{label}]"


def filler_atom(context_index: int) -> str:
    return f"F{context_index + 1}"


@dataclass(frozen=True)
class ConstraintGraph:
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
    def from_family(cls, family: PovmFamily) -> "ConstraintGraph":
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


@dataclass(frozen=True)
class CertificateStep:
    index: int
    rule: str
    premises: tuple[str, ...]
    conclusion: str

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "rule": self.rule,
            "premises": list(self.premises),
            "conclusion": self.conclusion,
        }


@dataclass(frozen=True)
class ContradictionCertificate:
    """Ordered deduction chain ending in a zero-contribution contradiction."""

    family: str
    element: str
    steps: tuple[CertificateStep, ...]

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "verdict": "contradiction",
            "element": self.element,
            "steps": [step.to_dict() for step in self.steps],
        }


class _CertificateBuilder:
    """Emits steps in derivation order, deduplicating the shared-context facts."""

    def __init__(self):
        self.steps: list[CertificateStep] = []
        self._context_steps: dict[int, int] = {}

    def _append(self, rule, premises, conclusion) -> int:
        index = len(self.steps) + 1
        self.steps.append(CertificateStep(index, rule, tuple(premises), conclusion))
        return index

    def mutual_orthogonality(self, graph: ConstraintGraph, context_index: int) -> int:
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


def _contradiction_for(
    graph: ConstraintGraph, family: PovmFamily, label: str
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
        builder = _CertificateBuilder()
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


def one_to_one_feasibility(family: PovmFamily) -> ContradictionCertificate | None:
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
    graph = ConstraintGraph.from_family(family)
    for label in sorted(family.elements):
        certificate = _contradiction_for(graph, family, label)
        if certificate is not None:
            return certificate
    return None


_PREMISE_KINDS = ("step", "context", "zero-trace", "element")


def validate_certificate(cert: ContradictionCertificate, family: PovmFamily) -> None:
    """Raise ValueError unless the deduction chain is well formed.

    Every premise must be an earlier step or a declared input fact, and the
    final step must name an element with positive weight.
    """
    known_rules = {RULE_ORTHOGONALITY, RULE_CONFINEMENT, RULE_ZERO_TRACE}
    for position, step in enumerate(cert.steps, start=1):
        if step.index != position:
            raise ValueError(f"step {position} carries index {step.index}")
        if step.rule not in known_rules:
            raise ValueError(f"unknown rule {step.rule!r}")
        for premise in step.premises:
            kind, _, value = premise.partition(":")
            if kind not in _PREMISE_KINDS:
                raise ValueError(f"unknown premise kind {premise!r}")
            if kind == "step" and not 1 <= int(value) < position:
                raise ValueError(f"step {position} cites non-preceding {premise!r}")
            if kind == "context" and not 1 <= int(value) <= len(family.contexts):
                raise ValueError(f"unknown context premise {premise!r}")
            if kind == "zero-trace" and value not in {
                filler_atom(i) for i in range(len(family.contexts))
            }:
                raise ValueError(f"unknown filler premise {premise!r}")
            if kind == "element" and value not in family.elements:
                raise ValueError(f"unknown element premise {premise!r}")
    final = cert.steps[-1]
    if final.rule != RULE_ZERO_TRACE:
        raise ValueError("final step must propagate zero trace")
    named = [p.split(":", 1)[1] for p in final.premises if p.startswith("element:")]
    if not named or family.elements[named[0]].weight <= 0:
        raise ValueError("final step must name an element of positive weight")
