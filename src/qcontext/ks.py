"""Noncontextual 0/1-colorability of element-context hypergraphs.

An assignment is valid when every context contains exactly one element valued
1, so the 1-valued elements of a valid assignment are an exact cover of the
contexts. Both deciders live here: an exact-cover search (Knuth's Algorithm
X; its only state is the mask of covered contexts, which fixes the blocked
elements) that counts the valid assignments and finds the least one, and the
counting (parity) obstruction that explains why the two measurement families
admit none. The same search counts the consistent slot maps that
dilation.count_consistent_slot_assignments reduces to a hypergraph.
"""

from __future__ import annotations

from collections import Counter

from .tables import Frozen

#: Search-node budget of one enumerate_assignments call. Counting exact
#: covers is exponential in the worst case; past this many expanded nodes the
#: search gives up with ValueError rather than run without bound.
SEARCH_LIMIT = 200_000


class ContextHypergraph(Frozen):
    """Abstract element-context incidence structure."""

    __slots__ = _fields = ("elements", "contexts")

    def __init__(self, elements: tuple[str, ...], contexts: tuple[tuple[str, ...], ...]):
        pool = set(elements)
        if len(pool) != len(elements):
            raise ValueError("duplicate element labels")
        for context in contexts:
            if len(set(context)) != len(context):
                raise ValueError(f"duplicate labels inside context {context!r}")
            if not pool.issuperset(context):
                unknown = [label for label in context if label not in pool]
                raise ValueError(f"context references unknown labels {unknown!r}")
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "contexts", contexts)

    @classmethod
    def from_contexts(cls, contexts) -> "ContextHypergraph":
        """Build from context label lists; elements in first-appearance order."""
        contexts = tuple(tuple(c) for c in contexts)
        seen = dict.fromkeys(label for context in contexts for label in context)
        return cls(elements=tuple(seen), contexts=contexts)


class ParityObstruction(Frozen):
    """Certificate that no valid assignment exists, by incidence counting.

    When every element lies in exactly ``incidence_multiplicity`` = 2 contexts
    and ``context_count`` is odd, a valid assignment would need the per-context
    ones to total an odd number while every 1-valued element contributes an
    even number of incidences.
    """

    __slots__ = _fields = ("context_count", "incidence_multiplicity")

    def __init__(self, context_count: int, incidence_multiplicity: int):
        object.__setattr__(self, "context_count", context_count)
        object.__setattr__(self, "incidence_multiplicity", incidence_multiplicity)

    def to_dict(self) -> dict:
        return {
            "context_count": self.context_count,
            "incidence_multiplicity": self.incidence_multiplicity,
        }


class ColorabilityVerdict(Frozen):
    __slots__ = _fields = ("colorable", "valid_count", "total_assignments", "witness", "obstruction")

    def __init__(
        self,
        colorable: bool,
        valid_count: int,
        total_assignments: int,
        witness: dict[str, int] | None,
        obstruction: ParityObstruction | None,
    ):
        object.__setattr__(self, "colorable", colorable)
        object.__setattr__(self, "valid_count", valid_count)
        object.__setattr__(self, "total_assignments", total_assignments)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "obstruction", obstruction)

    def to_dict(self) -> dict:
        return {
            "colorable": self.colorable,
            "valid_count": self.valid_count,
            "total_assignments": self.total_assignments,
            "witness": self.witness,
            "obstruction": self.obstruction.to_dict() if self.obstruction else None,
        }


def parity_obstruction(h: ContextHypergraph) -> ParityObstruction | None:
    """The counting obstruction, or None when it does not apply."""
    if not h.contexts or len(h.contexts) % 2 == 0:
        return None
    incidences = Counter(label for context in h.contexts for label in context)
    if any(incidences[label] != 2 for label in h.elements):
        return None
    return ParityObstruction(context_count=len(h.contexts), incidence_multiplicity=2)


def _exact_covers(masks: list[int], holders: dict[int, int]) -> tuple[int, int | None]:
    """(number of exact covers, least cover or None) of the context bitmasks.

    ``masks[i]`` has one bit per element of context i; ``holders`` maps an
    element bit to the mask of the contexts holding it. This is Knuth's
    Algorithm X whose one piece of state, memoised, is the mask of covered
    contexts: a node blocks the elements of its covered contexts and branches
    on the uncovered context with the fewest elements not blocked. An explicit
    stack keeps the depth (one level per context) off the recursion limit.
    Every cover holds one element of the branching context, so counts add
    over those elements, and the least cover is the least of element | least
    cover of what is left. Raises ValueError after SEARCH_LIMIT nodes.
    """
    memo = {(1 << len(masks)) - 1: (1, 0)}
    branches: dict[int, int] = {}  # expanded, unfinished node -> its branch
    nodes = 0
    stack = [0]  # covered contexts
    while stack:
        covered = stack[-1]
        if covered in memo:
            stack.pop()
        elif covered not in branches:
            nodes += 1
            if nodes > SEARCH_LIMIT:
                raise ValueError(
                    f"search limit: more than {SEARCH_LIMIT} search nodes "
                    f"for {len(masks)} contexts"
                )
            blocked = 0
            for i, mask in enumerate(masks):
                if covered >> i & 1:
                    blocked |= mask
            best, best_size = 0, len(holders) + 1
            for i, mask in enumerate(masks):
                if not covered >> i & 1:
                    fits = mask & ~blocked
                    size = fits.bit_count()
                    if size < best_size:
                        best, best_size = fits, size
                        if size < 2:
                            break
            branches[covered] = best
            while best:
                e = best & -best
                stack.append(covered | holders[e])
                best ^= e
        else:
            count, least = 0, None
            rest = branches.pop(covered)
            while rest:
                e = rest & -rest
                rest ^= e
                sub_count, sub_least = memo[covered | holders[e]]
                if sub_count:
                    count += sub_count
                    if least is None or e | sub_least < least:
                        least = e | sub_least
            memo[covered] = (count, least)
            stack.pop()
    return memo[0]


def enumerate_assignments(h: ContextHypergraph, workers: int = 1) -> ColorabilityVerdict:
    """Count the valid assignments of the hypergraph and find the least one.

    A valid assignment is an exact cover of the contexts by its 1-valued
    elements, with elements in no context free either way, so the count is
    (number of exact covers) * 2^(elements in no context). The witness is the
    lexicographically smallest valid assignment over element labels in
    sorted order. ``workers`` is accepted for compatibility and has no
    effect. Raises ValueError when the search exceeds SEARCH_LIMIT nodes.
    """
    n = len(h.elements)
    # Bit (n-1-j) holds the j-th label in sorted order, so integer order is
    # lexicographic order over assignments.
    bit = {label: 1 << (n - 1 - j) for j, label in enumerate(sorted(h.elements))}
    masks = []
    holders: dict[int, int] = {}  # element bit -> contexts holding it
    for i, context in enumerate(h.contexts):
        mask = 0
        for label in context:
            b = bit[label]
            mask |= b
            holders[b] = holders.get(b, 0) | 1 << i
        masks.append(mask)
    covers, least = _exact_covers(masks, holders)
    valid_count = covers << (n - len(holders))
    witness = None
    if covers:
        witness = {label: int(least & b != 0) for label, b in bit.items()}

    return ColorabilityVerdict(
        colorable=valid_count > 0,
        valid_count=valid_count,
        total_assignments=1 << n,
        witness=witness,
        obstruction=parity_obstruction(h),
    )


def parse_hypergraph(text: str) -> ContextHypergraph:
    """Parse the one-context-per-line text format.

    Labels are comma-separated; blank lines and lines starting with '#' are
    skipped. Text with no context line raises ValueError.
    """
    contexts = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        labels = [part.strip() for part in stripped.split(",")]
        if any(not label for label in labels):
            raise ValueError(f"line {lineno}: empty label in context line {line!r}")
        contexts.append(tuple(labels))
    if not contexts:
        raise ValueError("no context line")
    return ContextHypergraph.from_contexts(contexts)
