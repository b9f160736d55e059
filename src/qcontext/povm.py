"""The Cabello and Nakamura POVM families and Born-rule statistics.

An element's projector and operator are kept as their four complex entries:
``check_completeness`` sums the operators', and the Born rule reads the
state's rows into entries and takes trace(state * operator) on them. The
module loads no numpy; only ``hv`` imports it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from numbers import Number
from typing import Sequence

from .bloch import (
    ATOL,
    BlochVector,
    Entries,
    dodecahedron_vertices,
    hexagon_vertices,
    is_density_operator,
    projector_entries,
)
from .tables import MODEL_CONTEXTS, Frozen, check_int

Context = tuple[str, ...]


class PovmElement(Frozen):
    """Weighted rank-1 POVM element: operator = weight * (I + v.sigma)/2.

    The weight lies in (0, 1]: w * P <= I holds for a rank-1 projector P only
    when w <= 1. ``projector_entries`` and ``entries``, the four complex
    entries of the projector and of the operator, are computed on first use
    and kept with the element.
    """

    _fields = ("label", "weight", "direction")
    # __dict__ holds the two cached properties.
    __slots__ = (*_fields, "__dict__")

    def __init__(self, label: str, weight: Fraction, direction: BlochVector):
        # Written as negations so that a NaN weight fails the first test.
        if not weight > 0:
            raise ValueError(f"element {label!r} must have positive weight")
        if not weight <= 1:
            raise ValueError(f"element {label!r} must have weight at most 1")
        super().__init__(label, weight, direction)

    @cached_property
    def projector_entries(self) -> Entries:
        """Row-major entries of (I + v.sigma)/2 for the element's direction."""
        return projector_entries(self.direction)

    @cached_property
    def entries(self) -> Entries:
        """Row-major entries of weight * (I + v.sigma)/2."""
        weight = float(self.weight)
        return tuple(_scaled(weight, entry) for entry in self.projector_entries)


def _scaled(w: float, z: complex) -> complex:
    """w * z with numpy's bits for a float times a complex array: a part keeps
    its sign when w * part underflows to zero, and only a zero part adds the
    cross term of the full complex product."""
    a, b = z.real, z.imag
    return complex(w * a if a else w * a - 0.0 * b, w * b if b else w * b + 0.0 * a)


class PovmFamily(Frozen):
    """A labeled element pool plus the contexts (measurements) drawing on it.

    Element identity is the label: two contexts listing "B+" reference one
    element object, which is exactly the identification the dilation audit
    probes. The walk that validates the context labels also records each
    element's incidence, the ascending indices of the contexts holding it
    (``()`` for an element in no context), which ``element_contexts`` looks
    up; neither it nor the memo of ``context_pairs`` is part of the value.
    """

    _fields = ("name", "elements", "contexts")
    __slots__ = (*_fields, "_incidence", "_pairs")

    def __init__(self, name: str, elements: dict[str, PovmElement], contexts: tuple[Context, ...]):
        # A copy: the caller's dict could otherwise gain or lose an element
        # behind the recorded incidence, and move the hash.
        elements = dict(elements)
        holders = {label: [] for label in elements}
        for index, context in enumerate(contexts):
            if len(set(context)) != len(context):
                raise ValueError(f"duplicate labels inside context {context!r}")
            for label in context:
                if label not in elements:
                    raise KeyError(f"missing element: context references {label!r}")
                holders[label].append(index)
        super().__init__(name, elements, contexts)
        object.__setattr__(self, "_incidence", {l: tuple(h) for l, h in holders.items()})
        object.__setattr__(self, "_pairs", {})

    def __hash__(self) -> int:
        # The field-wise hash would hash the elements dict; a frozenset of its
        # items agrees with ==, which compares dicts ignoring insertion order.
        return hash((self.name, frozenset(self.elements.items()), self.contexts))

    def element_contexts(self, label: str) -> tuple[int, ...]:
        """Indices of the contexts containing the given element, ascending."""
        try:
            return self._incidence[label]
        except KeyError:
            raise KeyError(f"missing element: {label!r}") from None

    def context_pairs(self, context_index: int) -> tuple[tuple[str, str], ...]:
        """Antipodal (plus, minus) label pairs of one context, in slot order.

        Contexts list elements pairwise (X+, X-, Y+, Y-, ...); this validates
        the pairing geometrically and is the slot convention shared by the
        dilation builder and the hidden-variable sampler. A context's pairs
        are validated on first use and kept in the family's memo; a context
        that fails validation is never kept, so it raises on every call.
        """
        # Checked before the memo lookup: True would find context 2's entry.
        check_int("context index", context_index, 0, len(self.contexts) - 1)
        if context_index in self._pairs:
            return self._pairs[context_index]
        context = self.contexts[context_index]
        if len(context) % 2 != 0:
            raise ValueError(f"invalid context: odd element count in {context!r}")
        pairs = []
        for k in range(0, len(context), 2):
            plus, minus = context[k], context[k + 1]
            dot = self.elements[plus].direction.dot(self.elements[minus].direction)
            if abs(dot + 1.0) > ATOL:
                raise ValueError(
                    f"invalid context: {plus!r}/{minus!r} are not an antipodal pair"
                )
            pairs.append((plus, minus))
        self._pairs[context_index] = tuple(pairs)
        return self._pairs[context_index]

    def restrict(self, context_indices: Sequence[int]) -> "PovmFamily":
        """Sub-family keeping only the selected contexts and their elements."""
        for n, i in enumerate(context_indices):
            check_int("context index", i, 0, len(self.contexts) - 1)
            if i in context_indices[:n]:
                raise ValueError(f"invalid context index {i}: repeated")
        kept = tuple(self.contexts[i] for i in context_indices)
        labels = {label for context in kept for label in context}
        return PovmFamily(
            name=f"{self.name}[{','.join(str(i) for i in context_indices)}]",
            elements={l: e for l, e in self.elements.items() if l in labels},
            contexts=kept,
        )

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "elements": [
                {
                    "label": e.label,
                    "weight": float(e.weight),
                    "direction": [e.direction.x, e.direction.y, e.direction.z],
                }
                for e in self.elements.values()
            ],
            "contexts": [list(c) for c in self.contexts],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "PovmFamily":
        """Build a family from its ``to_dict`` form.

        Raises ValueError, with a message naming the offending field, for any
        document that does not have that shape.
        """
        if not isinstance(doc, dict):
            raise ValueError(f"expected a JSON object, got {type(doc).__name__}")
        name = doc.get("name")
        if not isinstance(name, str):
            raise ValueError("'name' must be a string")
        entries = doc.get("elements")
        if not isinstance(entries, (list, tuple)):
            raise ValueError("'elements' must be a list of objects")
        elements = {}
        for position, entry in enumerate(entries, start=1):
            where = f"element {position}"
            if not isinstance(entry, dict):
                raise ValueError(f"{where}: expected an object")
            label = entry.get("label")
            if not isinstance(label, str):
                raise ValueError(f"{where}: 'label' must be a string")
            if label in elements:
                raise ValueError(f"{where}: duplicate label {label!r}")
            weight = entry.get("weight")
            if not _is_finite_number(weight):
                raise ValueError(f"{where} ({label}): 'weight' must be a finite number")
            direction = entry.get("direction")
            if not (
                isinstance(direction, (list, tuple))
                and len(direction) == 3
                and all(_is_finite_number(c) for c in direction)
            ):
                raise ValueError(f"{where} ({label}): 'direction' must be a list of 3 finite numbers")
            # to_dict writes a weight as its nearest float, so a small
            # denominator with that float is the weight written: 1/3 stays 1/3.
            nearest = Fraction(weight).limit_denominator(10**6)
            elements[label] = PovmElement(
                label=label,
                weight=nearest if float(nearest) == weight else Fraction(str(weight)),
                direction=BlochVector.from_array(direction),
            )
        contexts = doc.get("contexts")
        if not (
            isinstance(contexts, (list, tuple))
            and all(
                isinstance(c, (list, tuple)) and all(isinstance(l, str) for l in c)
                for c in contexts
            )
        ):
            raise ValueError("'contexts' must be a list of label lists")
        if not contexts:
            raise ValueError("'contexts' must list at least one context")
        try:
            return cls(name=name, elements=elements, contexts=tuple(tuple(c) for c in contexts))
        except KeyError as exc:  # a context names a label no element has
            raise ValueError(exc.args[0]) from exc


def _is_finite_number(value) -> bool:
    # bool is an int subclass, but true/false is not a number in a family file.
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer too large for a float
        return False


def _build_family(name, directions, weight) -> PovmFamily:
    elements = {label: PovmElement(label, weight, v) for label, v in directions.items()}
    return PovmFamily(name=name, elements=elements, contexts=MODEL_CONTEXTS[name])


def cabello_family() -> PovmFamily:
    """Twenty weight-1/4 elements on the dodecahedron, five 8-element contexts.

    Context k points at the vertices of inscribed cube k, so each context sums
    to the identity and every element sits in exactly two contexts.
    """
    return _build_family("cabello", dodecahedron_vertices(), Fraction(1, 4))


def nakamura_family() -> PovmFamily:
    """Six weight-1/2 elements on the hexagon, three 4-element contexts."""
    return _build_family("nakamura", hexagon_vertices(), Fraction(1, 2))


def check_completeness(context: Sequence[str], family: PovmFamily) -> float:
    """Max-norm residual of (sum of element operators - I) for one context.

    A valid measurement has residual <= 1e-12. Unknown labels raise KeyError.
    The sum starts from -I and adds the operators' entries in context order.
    """
    total = [-(1 + 0j), -0j, -0j, -(1 + 0j)]
    for label in context:
        if label not in family.elements:
            raise KeyError(f"missing element: {label!r}")
        total = [t + e for t, e in zip(total, family.elements[label].entries)]
    return max(abs(t) for t in total)


def _state_entries(state) -> Entries:
    """The entries of a 2x2 density operator given by its two rows, such as a
    nested sequence or a 2x2 array."""
    try:
        (a, b), (c, d) = state
        if all(isinstance(x, Number) for x in (a, b, c, d)):
            entries = (complex(a), complex(b), complex(c), complex(d))
            if is_density_operator(entries):
                return entries
    except (TypeError, ValueError, OverflowError):  # not two rows of two numbers
        pass
    raise ValueError("invalid state: expected a 2x2 density operator")


def born_probabilities(state, elements: Sequence[PovmElement]) -> tuple[float, ...]:
    """trace(state * element operator) for each element, the state checked once.

    ``state`` is a 2x2 operator given by its two rows; a numpy array is one.
    """
    a, b, c, d = _state_entries(state)
    return tuple(
        ((a * o0 + b * o2) + (c * o1 + d * o3)).real
        for o0, o1, o2, o3 in (element.entries for element in elements)
    )


def born_probability(state, element: PovmElement) -> float:
    """trace(state * element operator) = weight * (1 + n.v)/2, in [0, weight]."""
    return born_probabilities(state, (element,))[0]
