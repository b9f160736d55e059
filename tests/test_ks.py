import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qcontext import (
    ContextHypergraph,
    enumerate_assignments,
    parity_obstruction,
    parse_hypergraph,
)

#: The Cabello-Estebaranz-Garcia-Alcaine Kochen-Specker set in R^4
#: (Phys. Lett. A 212, 183 (1996)): 18 vectors in 9 orthogonal bases.
CEG_BASES = (
    ((0, 0, 0, 1), (0, 0, 1, 0), (1, 1, 0, 0), (1, -1, 0, 0)),
    ((0, 0, 0, 1), (0, 1, 0, 0), (1, 0, 1, 0), (1, 0, -1, 0)),
    ((1, -1, 1, -1), (1, -1, -1, 1), (1, 1, 0, 0), (0, 0, 1, 1)),
    ((1, -1, 1, -1), (1, 1, 1, 1), (1, 0, -1, 0), (0, 1, 0, -1)),
    ((0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 1), (1, 0, 0, -1)),
    ((1, -1, -1, 1), (1, 1, 1, 1), (1, 0, 0, -1), (0, 1, -1, 0)),
    ((1, 1, -1, 1), (1, 1, 1, -1), (1, -1, 0, 0), (0, 0, 1, 1)),
    ((1, 1, -1, 1), (-1, 1, 1, 1), (1, 0, 1, 0), (0, 1, 0, -1)),
    ((1, 1, 1, -1), (-1, 1, 1, 1), (1, 0, 0, 1), (0, 1, -1, 0)),
)


def brute_force_count(h):
    """Independent oracle: walk every assignment tuple in python."""
    order = sorted(h.elements)
    count = 0
    witnesses = []
    for bits in itertools.product((0, 1), repeat=len(order)):
        value = dict(zip(order, bits))
        if all(sum(value[l] for l in context) == 1 for context in h.contexts):
            count += 1
            witnesses.append(value)
    return count, (witnesses[0] if witnesses else None)


def scan_oracle(h):
    """Exhaustive numpy scan of all 2^n assignments: (count, least witness or None).

    Assignments are integers whose bit (n-1-j) is the value of the j-th label
    in sorted order, so integer order is lexicographic order over assignments.
    Validity per context: the masked bits form a power of two (exactly one 1).
    """
    order = sorted(h.elements)
    bit = {label: len(order) - 1 - j for j, label in enumerate(order)}
    arr = np.arange(1 << len(order), dtype=np.uint64)
    ok = np.ones(arr.shape, dtype=bool)
    one = np.uint64(1)
    for context in h.contexts:
        masked = arr & np.uint64(sum(1 << bit[label] for label in context))
        ok &= (masked != 0) & ((masked & (masked - one)) == 0)
    count = int(np.count_nonzero(ok))
    if not count:
        return 0, None
    first = int(np.argmax(ok))
    return count, {label: (first >> bit[label]) & 1 for label in order}


@st.composite
def hypergraphs(draw):
    """Up to 14 elements, with empty and duplicate contexts and elements in none."""
    labels = draw(st.permutations([f"e{i:02d}" for i in range(draw(st.integers(0, 14)))]))
    context = st.lists(st.sampled_from(labels), unique=True, max_size=5) if labels else st.just([])
    contexts = draw(st.lists(context, max_size=7))
    if contexts and draw(st.booleans()):
        contexts.append(draw(st.sampled_from(contexts)))
    return ContextHypergraph(elements=tuple(labels), contexts=tuple(map(tuple, contexts)))


@pytest.fixture(scope="module")
def ceg():
    """The CEG set as a hypergraph, after checking its closed-form structure."""
    for basis in CEG_BASES:
        for u, v in itertools.combinations(basis, 2):
            assert np.dot(u, v) == 0
    vectors = sorted({v for basis in CEG_BASES for v in basis})
    assert len(vectors) == 18
    for u, v in itertools.combinations(vectors, 2):
        assert np.linalg.matrix_rank(np.array([u, v])) == 2, "vectors must span distinct rays"
    assert all(sum(v in basis for basis in CEG_BASES) == 2 for v in vectors)
    label = {v: f"v{i:02d}" for i, v in enumerate(vectors)}
    return ContextHypergraph.from_contexts([[label[v] for v in basis] for basis in CEG_BASES])


class TestEnumerate:
    def test_nakamura_not_colorable(self, nakamura):
        h = ContextHypergraph.from_contexts(nakamura.contexts)
        verdict = enumerate_assignments(h)
        assert not verdict.colorable
        assert verdict.valid_count == 0
        assert verdict.total_assignments == 64
        assert verdict.witness is None
        assert verdict.obstruction is not None

    def test_nakamura_matches_brute_force(self, nakamura):
        h = ContextHypergraph.from_contexts(nakamura.contexts)
        count, _ = brute_force_count(h)
        assert count == 0

    def test_single_context_pair(self):
        h = ContextHypergraph.from_contexts([("a", "b")])
        verdict = enumerate_assignments(h)
        assert verdict.colorable
        assert verdict.valid_count == 2
        assert verdict.total_assignments == 4
        # Lexicographically smallest valid assignment over sorted labels.
        assert verdict.witness == {"a": 0, "b": 1}

    def test_witness_matches_oracle_order(self):
        h = ContextHypergraph.from_contexts([("a", "b", "c"), ("c", "d")])
        verdict = enumerate_assignments(h)
        count, first = brute_force_count(h)
        assert verdict.valid_count == count
        assert verdict.witness == first

    def test_random_hypergraphs_match_oracle(self):
        import random

        rng = random.Random(1234)
        labels = [f"e{i}" for i in range(8)]
        for _ in range(25):
            contexts = []
            for _ in range(rng.randint(1, 4)):
                size = rng.randint(1, 4)
                contexts.append(tuple(rng.sample(labels, size)))
            h = ContextHypergraph.from_contexts(contexts)
            verdict = enumerate_assignments(h)
            count, first = brute_force_count(h)
            assert verdict.valid_count == count
            assert verdict.witness == first
            # Soundness: a parity certificate always means zero colorings.
            if verdict.obstruction is not None:
                assert verdict.valid_count == 0

    def test_worker_count_does_not_change_verdict(self, cabello):
        h = ContextHypergraph.from_contexts(cabello.contexts)
        sequential = enumerate_assignments(h, workers=1)
        parallel = enumerate_assignments(h, workers=4)
        assert sequential == parallel

    @pytest.mark.parametrize(
        "sizes,free", [((3,) * 10, 1), ((2, 3) * 20, 11)], ids=["31_elements", "111_elements"]
    )
    def test_beyond_the_old_scan_ceiling(self, sizes, free):
        # Disjoint contexts plus free elements: each context holds exactly one
        # 1 independently, so the count is prod(sizes) * 2^free and the least
        # witness puts each context's 1 on its last label in sorted order.
        labels = [f"x{i:03d}" for i in range(sum(sizes) + free)]
        contexts, start = [], 0
        for size in sizes:
            contexts.append(tuple(labels[start:start + size]))
            start += size
        h = ContextHypergraph(elements=tuple(reversed(labels)), contexts=tuple(contexts))
        assert len(h.elements) in (31, 111)
        verdict = enumerate_assignments(h)
        assert verdict.valid_count == math.prod(sizes) << free
        assert verdict.total_assignments == 1 << len(labels)
        assert verdict.witness == {label: int(any(label == c[-1] for c in contexts)) for label in labels}

    def test_search_limit(self, monkeypatch, ceg):
        # The parity obstruction applies, but the count is still searched, so
        # a search over budget refuses to answer.
        monkeypatch.setattr("qcontext.ks.SEARCH_LIMIT", 2)
        with pytest.raises(ValueError, match="^search limit: "):
            enumerate_assignments(ceg)

    @settings(max_examples=300, deadline=None)
    @given(hypergraphs())
    def test_matches_scan_oracle(self, h):
        verdict = enumerate_assignments(h)
        assert (verdict.valid_count, verdict.witness) == scan_oracle(h)
        assert verdict.colorable == (verdict.valid_count > 0)
        assert verdict.total_assignments == 1 << len(h.elements)

    def test_ceg_not_colorable(self, ceg):
        verdict = enumerate_assignments(ceg)
        assert verdict.valid_count == 0
        assert verdict.total_assignments == 1 << 18
        assert verdict.witness is None
        assert verdict.obstruction.context_count == 9
        assert verdict.obstruction.incidence_multiplicity == 2

    @settings(max_examples=30, deadline=None)
    @given(st.permutations(list(range(6))), st.randoms(use_true_random=False))
    def test_relabeling_invariance(self, perm, rnd):
        base = ContextHypergraph.from_contexts(
            [("p", "q"), ("q", "r", "s"), ("s", "t", "u")]
        )
        names = ["p", "q", "r", "s", "t", "u"]
        mapping = {names[i]: f"n{perm[i]}" for i in range(6)}
        contexts = [tuple(mapping[l] for l in c) for c in base.contexts]
        rnd.shuffle(contexts)
        renamed = ContextHypergraph.from_contexts(contexts)
        assert (
            enumerate_assignments(renamed).valid_count
            == enumerate_assignments(base).valid_count
        )


class TestParityObstruction:
    def test_present_for_both_families(self, nakamura, cabello):
        for family, count in ((nakamura, 3), (cabello, 5)):
            h = ContextHypergraph.from_contexts(family.contexts)
            obstruction = parity_obstruction(h)
            assert obstruction is not None
            assert obstruction.context_count == count
            assert obstruction.incidence_multiplicity == 2

    def test_absent_for_even_context_count(self):
        # Two identical contexts: every element occurs twice but the count is
        # even, so the parity argument is silent and witnesses exist.
        h = ContextHypergraph.from_contexts([("a", "b"), ("a", "b")])
        assert parity_obstruction(h) is None
        assert enumerate_assignments(h).colorable

    def test_absent_when_incidence_is_not_two(self):
        h = ContextHypergraph.from_contexts([("a", "b"), ("b", "c"), ("c", "d")])
        assert parity_obstruction(h) is None

    def test_absent_without_contexts(self):
        h = ContextHypergraph(elements=("a",), contexts=())
        assert parity_obstruction(h) is None


class TestHypergraphParsing:
    def test_parse_with_comments_and_blanks(self):
        text = "# measurement rows\n\na, b\n b,c \n"
        h = parse_hypergraph(text)
        assert h.elements == ("a", "b", "c")
        assert h.contexts == (("a", "b"), ("b", "c"))

    def test_parse_rejects_empty_labels(self):
        with pytest.raises(ValueError, match="empty label"):
            parse_hypergraph("a,,b\n")

    def test_duplicate_label_in_context_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_hypergraph("a,a\n")

    def test_unknown_labels_rejected_in_constructor(self):
        with pytest.raises(ValueError, match="unknown"):
            ContextHypergraph(elements=("a",), contexts=(("a", "b"),))
