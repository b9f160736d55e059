"""Noncontextual 0/1-colorability of element-context hypergraphs.

An assignment is valid when every context contains exactly one element valued
1, so the 1-valued elements of a valid assignment are an exact cover of the
contexts. Both deciders live here: an exact-cover search (Knuth's Algorithm
X, memoised on the covered contexts) that counts the valid assignments and
finds the least one, and the counting (parity) obstruction that explains why
the two measurement families admit none.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Search-node budget of one enumerate_assignments call. Counting exact
#: covers is exponential in the worst case; past this many expanded nodes the
#: search gives up with ValueError rather than run without bound.
SEARCH_LIMIT = 200_000


@dataclass(frozen=True)
class ContextHypergraph:
    """Abstract element-context incidence structure."""

    elements: tuple[str, ...]
    contexts: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        if len(set(self.elements)) != len(self.elements):
            raise ValueError("duplicate element labels")
        pool = set(self.elements)
        for context in self.contexts:
            if len(set(context)) != len(context):
                raise ValueError(f"duplicate labels inside context {context!r}")
            unknown = [label for label in context if label not in pool]
            if unknown:
                raise ValueError(f"context references unknown labels {unknown!r}")

    @classmethod
    def from_contexts(cls, contexts) -> "ContextHypergraph":
        """Build from context label lists; elements in first-appearance order."""
        seen: list[str] = []
        for context in contexts:
            for label in context:
                if label not in seen:
                    seen.append(label)
        return cls(elements=tuple(seen), contexts=tuple(tuple(c) for c in contexts))

    def incidence_count(self, label: str) -> int:
        return sum(label in context for context in self.contexts)


@dataclass(frozen=True)
class ParityObstruction:
    """Certificate that no valid assignment exists, by incidence counting.

    When every element lies in exactly ``incidence_multiplicity`` = 2 contexts
    and ``context_count`` is odd, a valid assignment would need the per-context
    ones to total an odd number while every 1-valued element contributes an
    even number of incidences.
    """

    context_count: int
    incidence_multiplicity: int

    def to_dict(self) -> dict:
        return {
            "context_count": self.context_count,
            "incidence_multiplicity": self.incidence_multiplicity,
        }


@dataclass(frozen=True)
class ColorabilityVerdict:
    colorable: bool
    valid_count: int
    total_assignments: int
    witness: dict[str, int] | None
    obstruction: ParityObstruction | None

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
    if any(h.incidence_count(label) != 2 for label in h.elements):
        return None
    return ParityObstruction(context_count=len(h.contexts), incidence_multiplicity=2)


def _bits(mask: int):
    """The set bits of ``mask``, lowest first, each as its own power of two."""
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


def _exact_covers(masks: list[int]) -> tuple[int, int | None]:
    """(number of exact covers, least cover or None) of the context bitmasks.

    ``masks[i]`` has one bit per element of context i, and a cover is the OR
    of its elements. This is Knuth's Algorithm X on the bitmask of covered
    contexts. It branches on the uncovered context with the fewest elements
    still allowed (those in no covered context) and memoises on the covered
    mask. It runs on an explicit stack, so its depth, at most one level per
    context, is not bounded by the interpreter's recursion limit. Every cover
    holds exactly one element of the branching context, so counts add over
    those elements, and the least cover is the least of element | least
    cover of what is left. Raises ValueError after SEARCH_LIMIT nodes.
    """
    holders: dict[int, int] = {}  # element -> contexts it covers
    kills: dict[int, int] = {}  # element -> elements it rules out
    for i, mask in enumerate(masks):
        for element in _bits(mask):
            holders[element] = holders.get(element, 0) | 1 << i
            kills[element] = kills.get(element, 0) | mask
    memo = {(1 << len(masks)) - 1: (1, 0)}
    branches: dict[int, int] = {}  # expanded, unfinished node -> its branch
    nodes = 0
    stack = [(0, -1)]  # (covered contexts, allowed elements)
    while stack:
        covered, allowed = stack[-1]
        if covered in memo:
            stack.pop()
        elif covered not in branches:
            nodes += 1
            if nodes > SEARCH_LIMIT:
                raise ValueError(
                    f"search limit: more than {SEARCH_LIMIT} search nodes "
                    f"for {len(masks)} contexts"
                )
            best, best_size = 0, len(holders) + 1
            for i, mask in enumerate(masks):
                if not covered >> i & 1:
                    fits = mask & allowed
                    size = fits.bit_count()
                    if size < best_size:
                        best, best_size = fits, size
                        if size < 2:
                            break
            branches[covered] = best
            stack.extend((covered | holders[e], allowed & ~kills[e]) for e in _bits(best))
        else:
            count, least = 0, None
            for element in _bits(branches.pop(covered)):
                sub_count, sub_least = memo[covered | holders[element]]
                if sub_count:
                    count += sub_count
                    if least is None or element | sub_least < least:
                        least = element | sub_least
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
    masks = [sum(bit[label] for label in context) for context in h.contexts]
    covers, least = _exact_covers(masks)
    free = n - len({label for context in h.contexts for label in context})
    valid_count = covers << free
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
    skipped.
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
    return ContextHypergraph.from_contexts(contexts)
