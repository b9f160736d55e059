"""Seeded hypergraph generator and an independent colorability reference.

The reference counts valid 0/1 assignments as exact covers of the contexts
(each context holds exactly one element valued 1) times 2^(elements in no
context), and finds the lexicographically smallest witness over sorted
labels by fixing one label at a time. It shares no code with ``qcontext.ks``,
so the benchmark can check the library's verdicts against it.
"""

from __future__ import annotations

import random
from functools import lru_cache

#: Generator kinds, cycled by the workloads so every run has the same mix.
KINDS = ("parity", "planted", "random", "even")


def random_hypergraph(rng: random.Random, n: int, kind: str, k: int | None = None):
    """Return (elements, contexts) for a seeded hypergraph of n elements and
    ``k`` contexts (seeded when None).

    ``parity``: every element in exactly two of an odd number of contexts, so
    the parity obstruction applies. ``even``: the same with an even number of
    contexts. ``planted``: colorable by construction, with free elements.
    ``random``: contexts of 2-5 random elements; colorability varies.
    Labels are shuffled so first-appearance order differs from sorted order.
    """
    labels = [f"v{i:02d}" for i in range(n)]
    rng.shuffle(labels)
    k_max = min(8, n // 2)
    if kind in ("parity", "even"):
        if k is None:
            choices = (3, 5, 7) if kind == "parity" else (4, 6)
            k = rng.choice([c for c in choices if c <= max(k_max, choices[0])])
        while True:
            members: list[list[str]] = [[] for _ in range(k)]
            for label in labels:
                a, b = rng.sample(range(k), 2)
                members[a].append(label)
                members[b].append(label)
            if all(members):
                break
        contexts = members
    elif kind == "planted":
        k = k or rng.randint(2, k_max)
        ones = rng.sample(labels, k)
        zeros = [label for label in labels if label not in ones]
        contexts = []
        for one in ones:
            context = [one] + rng.sample(zeros, rng.randint(1, min(3, len(zeros))))
            rng.shuffle(context)
            contexts.append(context)
    elif kind == "random":
        k = k or rng.randint(2, k_max)
        contexts = [rng.sample(labels, rng.randint(2, min(5, n))) for _ in range(k)]
    else:
        raise ValueError(f"unknown hypergraph kind {kind!r}")
    return tuple(labels), tuple(tuple(c) for c in contexts)


def parity_applies(elements, contexts) -> bool:
    """Odd, non-zero context count and every element in exactly two contexts."""
    if not contexts or len(contexts) % 2 == 0:
        return False
    return all(sum(label in c for c in contexts) == 2 for label in elements)


def _cover_counter(contexts):
    """Return count(zeros, ones) -> number of exact covers honouring fixed values."""
    sets = [frozenset(c) for c in contexts]
    holders: dict[str, frozenset[int]] = {}
    for i, context in enumerate(sets):
        for label in context:
            holders[label] = holders.get(label, frozenset()) | {i}

    def count(zeros: frozenset, ones: frozenset) -> int:
        covered: frozenset[int] = frozenset()
        for label in ones:
            if label not in holders:
                continue
            if holders[label] & covered:
                return 0
            covered |= holders[label]

        @lru_cache(maxsize=None)
        def covers(done: frozenset) -> int:
            open_contexts = [i for i in range(len(sets)) if i not in done]
            if not open_contexts:
                return 1
            first = open_contexts[0]
            total = 0
            for label in sets[first]:
                if label in zeros or label in ones or holders[label] & done:
                    continue
                total += covers(done | holders[label])
            return total

        return covers(covered)

    return holders, count


def reference_verdict(elements, contexts):
    """(valid_count, witness or None, parity_applies) for the hypergraph."""
    holders, count = _cover_counter(contexts)
    free = [label for label in elements if label not in holders]
    valid = count(frozenset(), frozenset()) << len(free)
    witness = None
    if valid:
        zeros: set[str] = set()
        ones: set[str] = set()
        for label in sorted(elements):
            if label not in holders or count(frozenset(zeros | {label}), frozenset(ones)):
                zeros.add(label)
            else:
                ones.add(label)
        witness = {label: int(label in ones) for label in sorted(elements)}
    return valid, witness, parity_applies(elements, contexts)


def hypergraph_text(contexts) -> str:
    """The one-context-per-line text format read by ``ks-search --hypergraph``."""
    return "# generated\n" + "".join(",".join(c) + "\n" for c in contexts)


def text_elements(contexts) -> tuple[str, ...]:
    """Elements as the text format defines them: labels in first-appearance order."""
    seen: dict[str, None] = {}
    for context in contexts:
        for label in context:
            seen.setdefault(label)
    return tuple(seen)
