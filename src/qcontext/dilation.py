"""Naimark dilations of the measurement families and the one-to-one audit.

A dilation realizes each POVM element as a von Neumann projector on
ancilla (x) qubit, with the element recovered by tracing the ancilla out
against a fixed ancilla state. This module builds the sequential dilation
(ancilla basis slot per antipodal pair), verifies it numerically, compares
the extended projectors an element receives in its two contexts, and
machine-checks that no slot assignment — indeed no one-to-one projector
correspondence at all — can serve both families.

The one-to-one reasoner is one derivation per element over a
``ConstraintGraph``, whose only data are the per-context completeness
groups: it computes the element's confinements and its route (direct, or
intersection with its eliminations), then emits every certificate step
through one step function.

The numeric checks run on stacked projectors: a context's projectors form
one (M, 2N, 2N) array, so its partial traces, pairwise products and
completeness sum are one numpy call each, as are the differences of the
extension audit. Each entry is computed with the same arithmetic as one
call per projector (or pair), so every residual is bit-for-bit the same.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .bloch import ATOL, IDENTITY2
from .ks import ContextHypergraph, enumerate_assignments
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
        # max() keeps a NaN only when it comes first; any NaN must fail passed().
        return math.nan if any(math.isnan(v) for v in values) else max(values)

    def passed(self) -> bool:
        return self.max_residual <= ATOL

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
    if not 0 <= context_index < len(family.contexts):
        raise ValueError(f"invalid context index {context_index}")
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
    if not schemes:
        return ()
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

    Such a map is an exact cover, counted by ks.enumerate_assignments: one
    element "slot:key" per pair key and slot below its least context pair count,
    one context per key (it takes one slot) and one per (context, slot) (its
    pairs hold that slot once). Raises ValueError("search limit: ...") past
    ks.SEARCH_LIMIT search nodes.
    """
    context_keys = [[p for p, _ in family.context_pairs(i)] for i in range(len(family.contexts))]
    limit: dict[str, int] = {}
    for keys in context_keys:
        for key in keys:
            limit[key] = min(limit.get(key, len(keys)), len(keys))
    covers = [[f"{slot}:{key}" for slot in range(n)] for key, n in limit.items()]
    covers += [
        [f"{slot}:{key}" for key in keys if slot < limit[key]]
        for keys in context_keys
        for slot in range(len(keys))
    ]
    return enumerate_assignments(ContextHypergraph.from_contexts(covers)).valid_count


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

    One completeness group per context: its element atoms (the hypothesis:
    a single projector serves every context of its element) plus the
    context's filler. Everything else is derived from the groups: the
    fillers are the zero-trace atoms (no POVM contribution), and two atoms
    are orthogonal when they are distinct members of one group.
    """

    completeness_groups: tuple[tuple[str, ...], ...]

    @classmethod
    def from_family(cls, family: PovmFamily) -> "ConstraintGraph":
        return cls(
            tuple(
                tuple(element_atom(label) for label in context) + (filler_atom(i),)
                for i, context in enumerate(family.contexts)
            )
        )

    @property
    def zero_trace(self) -> frozenset[str]:
        return frozenset(filler_atom(i) for i in range(len(self.completeness_groups)))

    @cached_property
    def _groups_of(self) -> dict[str, set[int]]:
        """The indices of the groups each atom is in, built once per graph."""
        groups: dict[str, set[int]] = {}
        for i, group in enumerate(self.completeness_groups):
            for atom in group:
                groups.setdefault(atom, set()).add(i)
        return groups

    def shared_context(self, a: str, b: str) -> int | None:
        """The first group holding both atoms, or None."""
        return min(self._groups_of.get(a, set()) & self._groups_of.get(b, set()), default=None)

    def orthogonal(self, a: str, b: str) -> bool:
        return a != b and self.shared_context(a, b) is not None


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


def _contradiction_for(
    graph: ConstraintGraph, family: PovmFamily, label: str
) -> ContradictionCertificate | None:
    atom = element_atom(label)
    groups = graph.completeness_groups
    zero_trace = graph.zero_trace

    # Each context without the atom confines it in the members it is not
    # orthogonal to, when that drops at least one member.
    confinements = []
    for c, group in enumerate(groups):
        if atom not in group:
            remainder = tuple(x for x in group if not graph.orthogonal(atom, x))
            if len(remainder) < len(group):
                confinements.append((c, remainder))

    # The route: the confinements the proof cites, the final span and the
    # blockers it eliminates, each with the contexts that justify it.
    eliminations: dict[str, list[int]] = {}
    direct = next(((c, rem) for c, rem in confinements if set(rem) <= zero_trace), None)
    if direct is not None:
        # Direct route: some context's remainder is already all zero-trace.
        cited, within = [direct], direct[1]
    elif len(confinements) >= 2:
        # Intersection route: eliminate every non-filler atom that is
        # orthogonal to the whole non-filler part of a confinement it does
        # not appear in.
        union = sorted({x for _, rem in confinements for x in rem})
        for q in union:
            if q in zero_trace:
                continue
            for _, remainder in confinements:
                others = [x for x in remainder if x not in zero_trace]
                if q not in remainder and all(graph.orthogonal(q, x) for x in others):
                    eliminations[q] = sorted({graph.shared_context(q, x) for x in others})
                    break
        cited, within = confinements, tuple(x for x in union if x not in eliminations)
        if not set(within) <= zero_trace:
            return None
    else:
        return None

    steps: list[CertificateStep] = []
    context_steps: dict[int, int] = {}

    def step(rule: str, premises: list[str], conclusion: str) -> int:
        steps.append(CertificateStep(len(steps) + 1, rule, tuple(premises), conclusion))
        return len(steps)

    def orthogonality(c: int) -> int:
        if c not in context_steps:
            members = ", ".join(groups[c])
            context_steps[c] = step(
                RULE_ORTHOGONALITY,
                [f"context:{c + 1}"],
                f"members of context {c + 1} are mutually orthogonal: {members}",
            )
        return context_steps[c]

    def confinement(premises: list[str], span: Sequence[str], reason: str) -> int:
        return step(RULE_CONFINEMENT, premises, f"{atom} confined in {' + '.join(span)} ({reason})")

    base = [f"step:{orthogonality(c)}" for c, group in enumerate(groups) if atom in group]
    confined = [
        confinement([f"context:{c + 1}", *base], remainder, f"completeness of context {c + 1}")
        for c, remainder in cited
    ]
    final = confined[-1]
    if eliminations:
        # Only the intersection route eliminates, and it always must: each of
        # its confinements holds a non-filler atom.
        justified = sorted({orthogonality(c) for cs in eliminations.values() for c in cs})
        final = confinement(
            [f"step:{i}" for i in confined + justified], within, "intersection of the confinements"
        )
    step(
        RULE_ZERO_TRACE,
        [f"step:{final}", *(f"zero-trace:{f}" for f in within), f"element:{label}"],
        f"{atom} is confined in zero-contribution projectors, forcing a zero "
        f"POVM contribution, but element {label} has weight "
        f"{family.elements[label].weight} > 0",
    )
    return ContradictionCertificate(family=family.name, element=label, steps=tuple(steps))


def one_to_one_feasibility(family: PovmFamily) -> ContradictionCertificate | None:
    """Test the hypothesis that every element keeps one extended projector.

    Builds the symbolic constraint graph (one completeness group per
    context: its element atoms plus a zero-trace filler; members of a group
    are mutually orthogonal) and runs one derivation per element, in label
    order; returns the first contradiction certificate, or None when the
    hypothesis survives (feasible).

    The derivation confines the element's atom in every context it is not
    in, then takes one of two routes. Direct: one confinement is already all
    fillers. Intersection: every non-filler atom of the confinements is
    eliminated, each by the contexts that make it orthogonal to the whole
    non-filler part of a confinement it is absent from, which leaves fillers
    only. Either route's steps come from one emitter: the orthogonality of
    each context once, the confinements, for the intersection route the
    refined confinement, then the zero-trace contradiction.

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
    if not cert.steps:
        raise ValueError("certificate has no steps")
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
            if kind in ("step", "context") and not value.isdecimal():
                raise ValueError(f"step {position} has malformed premise {premise!r}")
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
