"""Noncontextual 0/1-colorability of element-context hypergraphs.

An assignment is valid when every context contains exactly one element valued
1, so the 1-valued elements of a valid assignment are an exact cover of the
contexts. One decider lives here, an exact-cover search (Knuth's Algorithm
X; its only state is the mask of covered contexts, which fixes the blocked
elements) that counts the valid assignments and finds the least one in one
depth-first pass over a stack of frames, looking each child up in the memo
once and counting the nodes it expands. Its verdict carries the counting
(parity) obstruction, read off the same incidences, that explains why the
two measurement families admit none. The same search counts the consistent
slot maps that dilation.count_consistent_slot_assignments reduces to a
hypergraph. A hypergraph records the search's bit encoding when it is built,
in the walk that validates its contexts, so the decider walks no label.
"""

from __future__ import annotations

from .tables import Frozen

#: Search-node budget of one enumerate_assignments call. Counting exact
#: covers is exponential in the worst case; past this many expanded nodes the
#: search gives up with ValueError rather than run without bound.
SEARCH_LIMIT = 200_000


class ContextHypergraph(Frozen):
    """Abstract element-context incidence structure, its fields kept as tuples.

    The walk that validates the contexts also records the decider's
    encoding, which is not part of the value: each label's bit, bit (n-1-j)
    for the j-th of the n labels in sorted order, so that integer order is
    lexicographic order over assignments; one mask of element bits per
    context; and, per element in some context, its bit's holder mask, the
    mask of the contexts holding it. Labels that cannot be sorted raise
    ``TypeError`` here.
    """

    _fields = ("elements", "contexts")
    __slots__ = (*_fields, "_encoding")

    def __init__(self, elements: tuple[str, ...], contexts: tuple[tuple[str, ...], ...]):
        elements, contexts = tuple(elements), tuple(map(tuple, contexts))
        if len(set(elements)) != len(elements):
            raise ValueError("duplicate element labels")
        bit = dict(zip(sorted(elements), [1 << j for j in reversed(range(len(elements)))]))
        masks = []
        holders: dict[int, int] = {}  # element bit -> contexts holding it
        for i, context in enumerate(contexts):
            if len(set(context)) != len(context):
                raise ValueError(f"duplicate labels inside context {context!r}")
            mask = 0
            for label in context:
                if label not in bit:
                    unknown = [label for label in context if label not in bit]
                    raise ValueError(f"context references unknown labels {unknown!r}")
                b = bit[label]
                mask |= b
                holders[b] = holders.get(b, 0) | 1 << i
            masks.append(mask)
        super().__init__(elements, contexts)
        object.__setattr__(self, "_encoding", (bit, masks, holders))

    @classmethod
    def from_contexts(cls, contexts) -> "ContextHypergraph":
        """Build from context label lists; elements in first-appearance order."""
        contexts = tuple(tuple(c) for c in contexts)  # read an iterator once
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

    def to_dict(self) -> dict:
        return {
            "context_count": self.context_count,
            "incidence_multiplicity": self.incidence_multiplicity,
        }


class ColorabilityVerdict(Frozen):
    __slots__ = _fields = ("colorable", "valid_count", "total_assignments", "witness", "obstruction")

    def to_dict(self) -> dict:
        return {
            "colorable": self.colorable,
            "valid_count": self.valid_count,
            "total_assignments": self.total_assignments,
            # A copy, as every to_dict makes; {} is the witness of no elements.
            "witness": None if self.witness is None else dict(self.witness),
            "obstruction": self.obstruction.to_dict() if self.obstruction else None,
        }


def _exact_covers(masks: list[int], holders: dict[int, int]) -> tuple[int, int | None, int]:
    """(number of exact covers, least cover or None, nodes) of the masks.

    ``masks[i]`` has one bit per element of context i; ``holders`` maps an
    element bit to the mask of the contexts holding it. This is Knuth's
    Algorithm X whose one piece of state, memoised, is the mask of covered
    contexts: a node blocks the elements of its covered contexts and branches
    on the uncovered context with the fewest elements not blocked. Every
    cover holds one element of the branching context, so counts add over
    those elements, and the least cover is the least of element | least
    cover of what is left.

    One depth-first pass over an explicit stack of frames [covered, untried
    elements, element in progress, count, least] keeps the depth (one level
    per context) off the recursion limit. Each child is looked up in the memo
    once, when reached: a memoised child folds into its frame, an unseen one
    is expanded (a node) as a new frame, and an exhausted frame is memoised
    and folds into its parent. Raises ValueError after SEARCH_LIMIT nodes.
    """
    full = (1 << len(masks)) - 1
    if not full:
        return 1, 0, 0
    contexts = [(1 << i, mask) for i, mask in enumerate(masks)]
    memo = {full: (1, 0)}
    stack = []
    nodes = covered = 0
    while True:
        # Expand the unseen node `covered`.
        nodes += 1
        if nodes > SEARCH_LIMIT:
            raise ValueError(
                f"search limit: more than {SEARCH_LIMIT} search nodes "
                f"for {len(masks)} contexts"
            )
        blocked = 0
        for b, mask in contexts:
            if covered & b:
                blocked |= mask
        best, best_size = 0, len(holders) + 1
        for b, mask in contexts:
            if not covered & b:
                fits = mask & ~blocked
                size = fits.bit_count()
                if size < best_size:
                    best, best_size = fits, size
                    if size < 2:
                        break
        frame = [covered, best, 0, 0, None]
        stack.append(frame)
        # Advance until an unseen child needs expanding.
        while True:
            untried = frame[1]
            if untried:
                e = untried & -untried
                frame[1] = untried ^ e
                covered = frame[0] | holders[e]
                sub = memo.get(covered)
                if sub is None:
                    frame[2] = e
                    break
            else:
                stack.pop()
                sub = memo[frame[0]] = (frame[3], frame[4])
                if not stack:
                    return (*sub, nodes)
                frame = stack[-1]
                e = frame[2]
            count, least = sub
            if count:
                frame[3] += count
                if frame[4] is None or e | least < frame[4]:
                    frame[4] = e | least


def enumerate_assignments(h: ContextHypergraph, workers: int = 1) -> ColorabilityVerdict:
    """Count the valid assignments of the hypergraph and find the least one.

    A valid assignment is an exact cover of the contexts by its 1-valued
    elements, with elements in no context free either way, so the count is
    (number of exact covers) * 2^(elements in no context). The witness is the
    lexicographically smallest valid assignment over element labels in
    sorted order. ``workers`` is accepted for compatibility and has no
    effect. Raises ValueError when the search exceeds SEARCH_LIMIT nodes.
    """
    bit, masks, holders = h._encoding
    covers, least, _ = _exact_covers(masks, holders)
    free = len(bit) - len(holders)
    valid_count = covers << free
    witness = None
    if covers:
        witness = {label: int(least & b != 0) for label, b in bit.items()}
    # The parity rule: an odd number of contexts and every element in exactly
    # two, an element's incidence being the bit count of its holder mask.
    parity = len(masks) % 2 and not free and all(m.bit_count() == 2 for m in holders.values())

    obstruction = ParityObstruction(len(masks), 2) if parity else None
    return ColorabilityVerdict(valid_count > 0, valid_count, 1 << len(bit), witness, obstruction)


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
