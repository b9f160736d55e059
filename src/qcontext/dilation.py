"""Naimark dilations of the measurement families and the one-to-one audit.

A dilation realizes each POVM element as a von Neumann projector on
ancilla (x) qubit, with the element recovered by tracing the ancilla out
against a fixed ancilla state. This module builds the sequential dilation
(ancilla basis slot per antipodal pair), verifies it, compares the extended
projectors an element receives in its two contexts, and machine-checks that
no slot assignment can serve both families. Its certificate against any
one-to-one projector correspondence is narrower: nakamura's direct route
holds when each context is completed by a zero-contribution filler F_c, but
the intersection step of cabello's holds only for tight dilations, where
every F_c = 0, and cites that as its premise ``hypothesis:tight``.

A sequential dilation's extended projectors are all |k><k| (x) V: one ancilla
slot k and one qubit projector V. A scheme keeps each as its (slot, V) pair,
V as its four complex entries, and every check is 2x2 algebra on those. The
ancilla starts in the uniform superposition over its N slots, so the
projector on slot k realizes V/N. Two projectors on different slots multiply
to exactly 0, so orthogonality needs only the products within a slot, and
completeness holds slot by slot. Two contexts give an element the same
extended projector exactly when they give it the same slot and the same V.
None of it loads an array library.

The one-to-one reasoner is one derivation per element that reads the
family's contexts and, through ``element_contexts``, the incidence the
family recorded when it was built: two element atoms are orthogonal when
they share a context, and no element atom is orthogonal to another
context's filler. It computes the element's confinements and its route
(direct, or intersection with its eliminations), then emits every
certificate step through one step function.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Sequence

from .bloch import ATOL, Entries
from .povm import PovmFamily
from .tables import Frozen, check_int

#: An extended projector |slot><slot| (x) V as its slot and V's entries.
SlotProjector = tuple[int, Entries]

_IDENTITY: Entries = (1 + 0j, 0j, 0j, 1 + 0j)


def _max_norm(entries: Iterable[complex]) -> float:
    """The largest modulus of the entries, 0.0 for none, and NaN when any is
    NaN (Python's max keeps a NaN only when it comes first)."""
    moduli = [abs(z) for z in entries]
    return math.nan if any(map(math.isnan, moduli)) else max(moduli, default=0.0)


def _product(a: Entries, b: Entries) -> Entries:
    """The 2x2 matrix product a @ b."""
    return (
        a[0] * b[0] + a[1] * b[2],
        a[0] * b[1] + a[1] * b[3],
        a[2] * b[0] + a[3] * b[2],
        a[2] * b[1] + a[3] * b[3],
    )


class DilationScheme(Frozen):
    """Extended projectors realizing one context with a uniform ancilla.

    ``projectors`` pairs each element label with its extended projector
    |slot><slot| (x) V, as (slot, V entries), in projector order; the ancilla
    is prepared in the uniform superposition over ``ancilla_dim`` slots.
    """

    __slots__ = _fields = ("ancilla_dim", "context_index", "projectors")

    def __init__(
        self,
        ancilla_dim: int,
        context_index: int,
        projectors: tuple[tuple[str, SlotProjector], ...],
    ):
        check_int("invalid scheme: ancilla dimension", ancilla_dim, 1)
        check_int("invalid scheme: context index", context_index)
        seen = set()
        for label, (slot, _) in projectors:
            if label in seen:
                raise ValueError(f"invalid scheme: label {label!r} has more than one projector")
            seen.add(label)
            check_int(f"invalid scheme: {label} slot", slot, 0, ancilla_dim - 1)
        super().__init__(ancilla_dim, context_index, projectors)


def sequential_dilation(
    family: PovmFamily, context_index: int, slot_order: Sequence[int] | None = None
) -> DilationScheme:
    """Dilate one context by assigning each antipodal pair an ancilla basis slot.

    The ancilla is prepared in the uniform superposition over N basis kets
    (N = pair count), and the pair on slot k gets projectors |k><k| (x) V(+-v).
    The 2N projectors resolve the identity. By default pairs take slots in
    context listing order; ``slot_order`` gives the pair index occupying each
    slot.
    """
    pairs = family.context_pairs(context_index)
    n_slots = len(pairs)
    if n_slots == 0:
        raise ValueError(f"invalid context: context {context_index + 1} has no pairs to dilate")
    if slot_order is None:
        slot_order = tuple(range(n_slots))
    for pair_index in slot_order:
        check_int("slot order entry", pair_index, 0, n_slots - 1)
    if sorted(slot_order) != list(range(n_slots)):
        raise ValueError(f"invalid context: slot order {slot_order!r} is not a permutation")
    projectors = tuple(
        (label, (slot, family.elements[label].projector_entries))
        for slot, pair_index in enumerate(slot_order)
        for label in pairs[pair_index]
    )
    return DilationScheme(n_slots, context_index, projectors)


class DilationReport(Frozen):
    """Max-norm residuals of the dilation contracts for one context.

    ``to_dict`` writes ``filler_residuals`` as ``[]``: a sequential dilation
    resolves the identity with its element projectors alone.
    """

    __slots__ = _fields = (
        "context_index", "element_residuals", "orthogonality_residual", "completeness_residual",
    )

    @property
    def max_residual(self) -> float:
        # NaN when any residual is NaN, so that passed() fails.
        residuals = self.element_residuals.values()
        return _max_norm((self.orthogonality_residual, self.completeness_residual, *residuals))

    def passed(self) -> bool:
        return self.max_residual <= ATOL

    def to_dict(self) -> dict:
        return {
            "context": self.context_index + 1,
            "element_residuals": dict(self.element_residuals),
            "filler_residuals": [],
            "orthogonality_residual": self.orthogonality_residual,
            "completeness_residual": self.completeness_residual,
            "max_residual": self.max_residual,
        }


def verify_dilation(
    scheme: DilationScheme, family: PovmFamily, context_index: int
) -> DilationReport:
    """Check a scheme against its context: recovered elements, mutual
    orthogonality, and completeness on the extended space."""
    check_int("context index", context_index, 0, len(family.contexts) - 1)
    context = family.contexts[context_index]
    scheme_labels = [label for label, _ in scheme.projectors]
    if sorted(scheme_labels) != sorted(context):
        raise ValueError(
            f"invalid scheme: projector labels {scheme_labels!r} do not match context {context!r}"
        )

    # Tracing out the uniform ancilla weights slot k's V by its population 1/N.
    population = complex(1 / scheme.ancilla_dim)
    element_residuals = {}
    by_slot: list[list[Entries]] = [[] for _ in range(scheme.ancilla_dim)]
    for label, (slot, v) in scheme.projectors:
        expected = family.elements[label].entries
        element_residuals[label] = _max_norm(population * x - e for x, e in zip(v, expected))
        by_slot[slot].append(v)

    orthogonality = _max_norm(
        z
        for vs in by_slot
        for a, b in itertools.combinations(vs, 2)
        for z in _product(a, b)
    )
    completeness = []
    for vs in by_slot:
        total = (0j,) * 4
        for v in vs:
            total = tuple(t + x for t, x in zip(total, v))
        completeness.extend(t - i for t, i in zip(total, _IDENTITY))

    return DilationReport(context_index, element_residuals, orthogonality, _max_norm(completeness))


class AuditEntry(Frozen):
    """Comparison of one element's extended projectors across two contexts."""

    __slots__ = _fields = ("label", "context_indices", "equal", "max_difference")

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

    ``schemes[i]`` must dilate context i, and all schemes must share the
    ancilla dimension; elements occurring in a single context produce no
    entries. On one slot the projectors differ by their V's difference; on
    two slots each keeps its whole V, so the difference is the larger V.
    """
    if len(schemes) != len(family.contexts):
        raise ValueError("incomparable schemes: need one scheme per context")
    for i, scheme in enumerate(schemes):
        if scheme.context_index != i:
            raise ValueError(
                f"incomparable schemes: scheme {i + 1} dilates context {scheme.context_index + 1}"
            )
        if scheme.ancilla_dim != schemes[0].ancilla_dim:
            raise ValueError("incomparable schemes: ancilla dimension differs")

    projectors = [dict(scheme.projectors) for scheme in schemes]
    entries = []
    for label in family.elements:
        for i, j in itertools.combinations(family.element_contexts(label), 2):
            try:
                (slot_i, v_i), (slot_j, v_j) = projectors[i][label], projectors[j][label]
            except KeyError:
                raise KeyError(f"missing element: scheme has no projector for {label!r}") from None
            if slot_i == slot_j:
                diff = _max_norm(a - b for a, b in zip(v_i, v_j))
            else:
                diff = _max_norm(v_i + v_j)
            entries.append(AuditEntry(label, (i, j), diff <= ATOL, diff))
    return tuple(entries)


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
    from .ks import ContextHypergraph, enumerate_assignments

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


class CertificateStep(Frozen):
    __slots__ = _fields = ("index", "rule", "premises", "conclusion")

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "rule": self.rule,
            "premises": list(self.premises),
            "conclusion": self.conclusion,
        }


class ContradictionCertificate(Frozen):
    """Ordered deduction chain ending in a zero-contribution contradiction."""

    __slots__ = _fields = ("family", "element", "steps")

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "verdict": "contradiction",
            "element": self.element,
            "steps": [step.to_dict() for step in self.steps],
        }


def _contradiction_for(family: PovmFamily, label: str) -> ContradictionCertificate | None:
    atom = element_atom(label)
    contexts_of = family.element_contexts
    own = set(contexts_of(label))

    def members(c: int, labels: Iterable[str]) -> list[str]:
        return [*map(element_atom, labels), filler_atom(c)]

    # A context without the element confines its atom in its filler and the
    # members sharing no context with it, when that drops at least one member.
    confinements = []
    for c, context in enumerate(family.contexts):
        if c not in own:
            kept = tuple(x for x in context if own.isdisjoint(contexts_of(x)))
            if len(kept) < len(context):
                confinements.append((c, kept))

    # The route: the confinements the proof cites, the final span and the
    # blockers it eliminates, each with the contexts that justify it.
    eliminations: dict[str, list[int]] = {}
    direct = next(((c, kept) for c, kept in confinements if not kept), None)
    if direct is not None:
        # Direct route: some context confines the atom in its filler alone.
        cited, within = [direct], [filler_atom(direct[0])]
    elif len(confinements) >= 2:
        # Intersection route: eliminate every kept member that shares a context
        # with each member kept by a confinement it is absent from, by the least
        # such context. Atom order ("P[A+]" < "P[A]") numbers the steps it adds.
        blockers = {x for _, kept in confinements for x in kept}
        for q in sorted(blockers, key=element_atom):
            holding_q = set(contexts_of(q))
            for _, kept in confinements:
                shared = [holding_q.intersection(contexts_of(x)) for x in kept]
                if q not in kept and all(shared):
                    eliminations[q] = sorted({min(s) for s in shared})
                    break
            else:
                return None
        cited, within = confinements, sorted(filler_atom(c) for c, _ in confinements)
    else:
        return None

    steps: list[CertificateStep] = []
    context_steps: dict[int, int] = {}

    def step(rule: str, premises: list[str], conclusion: str) -> int:
        steps.append(CertificateStep(len(steps) + 1, rule, tuple(premises), conclusion))
        return len(steps)

    def orthogonality(c: int) -> int:
        if c not in context_steps:
            listed = ", ".join(members(c, family.contexts[c]))
            context_steps[c] = step(
                RULE_ORTHOGONALITY,
                [f"context:{c + 1}"],
                f"members of context {c + 1} are mutually orthogonal: {listed}",
            )
        return context_steps[c]

    def confinement(premises: list[str], span: Sequence[str], reason: str) -> int:
        return step(RULE_CONFINEMENT, premises, f"{atom} confined in {' + '.join(span)} ({reason})")

    base = [f"step:{orthogonality(c)}" for c in sorted(own)]
    confined = [
        confinement([f"context:{c + 1}", *base], members(c, kept), f"completeness of context {c + 1}")
        for c, kept in cited
    ]
    final = confined[-1]
    if eliminations:
        # Only the intersection route eliminates; each of its confinements keeps a
        # member. Its step holds only in a tight dilation, and cites that premise.
        justified = sorted({orthogonality(c) for cs in eliminations.values() for c in cs})
        premises = [*(f"step:{i}" for i in confined + justified), "hypothesis:tight"]
        final = confinement(premises, within, "intersection of the confinements")
    step(
        RULE_ZERO_TRACE,
        [f"step:{final}", *(f"zero-trace:{f}" for f in within), f"element:{label}"],
        f"{atom} is confined in zero-contribution projectors, forcing a zero "
        f"POVM contribution, but element {label} has weight "
        f"{family.elements[label].weight} > 0",
    )
    return ContradictionCertificate(family.name, label, tuple(steps))


def one_to_one_feasibility(family: PovmFamily) -> ContradictionCertificate | None:
    """Test the hypothesis that every element keeps one extended projector.

    Reads the family's contexts and recorded incidence: each context is
    completed by its element atoms plus a zero-contribution filler, and two
    atoms are orthogonal when they share a context. Runs one derivation per
    element, in label order; returns the first contradiction certificate, or
    None when no rule fires.
    None proves nothing: the case is undecided, not feasible.

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
    atom's range. That holds only when every filler is 0 (a tight dilation):
    another context's filler need not be orthogonal to the blocker. So the
    intersection step cites the premise ``hypothesis:tight``.
    """
    for label in sorted(family.elements):
        certificate = _contradiction_for(family, label)
        if certificate is not None:
            return certificate
    return None


_PREMISE_KINDS = ("step", "context", "zero-trace", "element", "hypothesis")


def validate_certificate(cert: ContradictionCertificate, family: PovmFamily) -> None:
    """Raise ValueError unless the deduction chain is well formed for ``family``.

    The certificate must name the family, every premise must be an earlier
    step, a declared input fact or the hypothesis ``tight``, and the final
    step must name the certificate's element, of positive weight.
    """
    if cert.family != family.name:
        raise ValueError(f"certificate is for family {cert.family!r}, not {family.name!r}")
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
            if kind == "hypothesis" and value != "tight":
                raise ValueError(f"unknown hypothesis premise {premise!r}")
    final = cert.steps[-1]
    if final.rule != RULE_ZERO_TRACE:
        raise ValueError("final step must propagate zero trace")
    named = [p.split(":", 1)[1] for p in final.premises if p.startswith("element:")]
    if not named or family.elements[named[0]].weight <= 0:
        raise ValueError("final step must name an element of positive weight")
    if named[0] != cert.element:
        raise ValueError(f"certificate names element {cert.element!r}, its final step {named[0]!r}")
