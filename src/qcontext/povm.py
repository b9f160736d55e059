"""The Cabello and Nakamura POVM families and Born-rule statistics."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

import numpy as np

from .bloch import (
    ATOL,
    IDENTITY2,
    BlochVector,
    dodecahedron_vertices,
    hexagon_vertices,
    is_density_operator,
    projector_from_bloch,
)
from .tables import MODEL_CONTEXTS

Context = tuple[str, ...]


@dataclass(frozen=True)
class PovmElement:
    """Weighted rank-1 POVM element: operator = weight * (I + v.sigma)/2.

    ``projector`` and ``operator`` are computed on first use and kept with the
    element as read-only arrays.
    """

    label: str
    weight: Fraction
    direction: BlochVector

    def __post_init__(self):
        if self.weight <= 0:
            raise ValueError(f"element {self.label!r} must have positive weight")

    @cached_property
    def projector(self) -> np.ndarray:
        """(I + v.sigma)/2 for the element's direction."""
        projector = projector_from_bloch(self.direction)
        projector.flags.writeable = False
        return projector

    @cached_property
    def operator(self) -> np.ndarray:
        operator = float(self.weight) * self.projector
        operator.flags.writeable = False
        return operator


@dataclass(frozen=True)
class PovmFamily:
    """A labeled element pool plus the contexts (measurements) drawing on it.

    Element identity is the label: two contexts listing "B+" reference one
    element object, which is exactly the identification the dilation audit
    probes.
    """

    name: str
    elements: dict[str, PovmElement]
    contexts: tuple[Context, ...]

    def __post_init__(self):
        for context in self.contexts:
            if len(set(context)) != len(context):
                raise ValueError(f"duplicate labels inside context {context!r}")
            for label in context:
                if label not in self.elements:
                    raise KeyError(f"missing element: context references {label!r}")

    def __hash__(self) -> int:
        # The generated hash would hash the elements dict; a frozenset of its
        # items agrees with ==, which compares dicts ignoring insertion order.
        return hash((self.name, frozenset(self.elements.items()), self.contexts))

    def element_contexts(self, label: str) -> tuple[int, ...]:
        """Indices of the contexts containing the given element."""
        if label not in self.elements:
            raise KeyError(f"missing element: {label!r}")
        return tuple(i for i, c in enumerate(self.contexts) if label in c)

    def context_pairs(self, context_index: int) -> tuple[tuple[str, str], ...]:
        """Antipodal (plus, minus) label pairs of one context, in slot order.

        Contexts list elements pairwise (X+, X-, Y+, Y-, ...); this validates
        the pairing geometrically and is the slot convention shared by the
        dilation builder and the hidden-variable sampler.
        """
        if not 0 <= context_index < len(self.contexts):
            raise ValueError(f"invalid context index {context_index}")
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
        return tuple(pairs)

    def restrict(self, context_indices: Sequence[int]) -> "PovmFamily":
        """Sub-family keeping only the selected contexts and their elements."""
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
        try:
            return cls(name=name, elements=elements, contexts=tuple(tuple(c) for c in contexts))
        except KeyError as exc:  # a context names a label no element has
            raise ValueError(exc.args[0]) from exc

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "PovmFamily":
        return cls.from_dict(json.loads(text))


def _is_finite_number(value) -> bool:
    # bool is an int subclass, but true/false is not a number in a family file.
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer too large for a float
        return False


def _build_family(name, vertex_set, weight) -> PovmFamily:
    elements = {}
    for letter in vertex_set.labels:
        for sign in "+-":
            label = f"{letter}{sign}"
            elements[label] = PovmElement(label, weight, vertex_set.direction(label))
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
    """
    total = -IDENTITY2.copy()
    for label in context:
        if label not in family.elements:
            raise KeyError(f"missing element: {label!r}")
        total = total + family.elements[label].operator
    return float(np.max(np.abs(total)))


def born_probabilities(state: np.ndarray, elements: Sequence[PovmElement]) -> tuple[float, ...]:
    """trace(state * element.operator) for each element, the state checked once."""
    state = np.asarray(state, dtype=complex)
    if state.shape != (2, 2) or not is_density_operator(state):
        raise ValueError("invalid state: expected a 2x2 density operator")
    return tuple(float(np.trace(state @ element.operator).real) for element in elements)


def born_probability(state: np.ndarray, element: PovmElement) -> float:
    """trace(state * element.operator) = weight * (1 + n.v)/2, in [0, weight]."""
    return born_probabilities(state, (element,))[0]
