import itertools
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qcontext import (
    ContextHypergraph,
    ParityObstruction,
    enumerate_assignments,
    parse_hypergraph,
)
from qcontext.ks import _exact_covers
from qcontext.tables import MODEL_CONTEXTS

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


@st.composite
def paired_hypergraphs(draw):
    """Up to 10 elements, each in exactly two of 2-7 contexts, so the parity
    rule applies whenever the context count is odd."""
    k = draw(st.integers(2, 7))
    contexts = [[] for _ in range(k)]
    labels = [f"e{i:02d}" for i in range(draw(st.integers(1, 10)))]
    for label in labels:
        for i in draw(st.lists(st.integers(0, k - 1), min_size=2, max_size=2, unique=True)):
            contexts[i].append(label)
    return ContextHypergraph(elements=tuple(labels), contexts=tuple(map(tuple, contexts)))


def signed_rays(*seeds):
    """The rays of every signed permutation of the seeds, sorted, each written
    with its first nonzero entry +1."""
    rays = set()
    for seed in seeds:
        for perm in itertools.permutations(seed):
            for signs in itertools.product((1, -1), repeat=len(seed)):
                v = tuple(s * c for s, c in zip(signs, perm))
                lead = next(c for c in v if c)
                rays.add(tuple(lead * c for c in v))
    return sorted(rays)


@pytest.fixture(scope="module")
def peres():
    """The Peres Kochen-Specker set in R^4 (J. Phys. A 24, L175 (1991)): the 24
    rays of (1,0,0,0), (1,1,0,0) and (1,1,1,1) up to permutation and sign,
    whose orthogonal 4-subsets are its 24 bases."""
    rays = signed_rays((1, 0, 0, 0), (1, 1, 0, 0), (1, 1, 1, 1))
    assert len(rays) == 24
    bases = [
        basis for basis in itertools.combinations(rays, 4)
        if all(np.dot(u, v) == 0 for u, v in itertools.combinations(basis, 2))
    ]
    assert len(bases) == 24
    assert all(np.linalg.matrix_rank(np.array(basis)) == 4 for basis in bases)
    # Every ray lies in four bases, so the parity count says nothing here.
    assert all(sum(v in basis for basis in bases) == 4 for v in rays)
    label = {v: f"r{i:02d}" for i, v in enumerate(rays)}
    return ContextHypergraph.from_contexts([[label[v] for v in basis] for basis in bases])


def golden_dot(u, v):
    """u.v for vectors whose entries are a + b*phi written (a, b), phi the
    golden ratio: exact, since phi^2 = phi + 1 and phi is irrational, so
    u.v = 0 exactly when the result is (0, 0)."""
    total_a = total_b = 0
    for (a, b), (c, d) in zip(u, v):
        total_a += a * c + b * d
        total_b += a * d + b * c + b * d
    return total_a, total_b


@pytest.fixture(scope="module")
def cell600():
    """The 600-cell Kochen-Specker set in R^4 (Waegell and Aravind, J. Phys. A
    43 (2010)): the 60 rays of the 120 unit quaternions, whose orthogonal
    tetrads are its 75 bases. Coordinates are doubled, so they lie in
    Z[phi]: (+-2,0,0,0) permuted, (+-1,+-1,+-1,+-1) and the even
    permutations of (+-phi,+-1,+-1/phi,0), with 1/phi = phi - 1."""
    zero, one, two, phi, inverse = (0, 0), (1, 0), (2, 0), (0, 1), (-1, 1)
    seeds = [tuple(two if j == i else zero for j in range(4)) for i in range(4)]
    seeds += [(one,) * 4, *(
        tuple((phi, one, inverse, zero)[k] for k in perm)
        for perm in itertools.permutations(range(4))
        if sum(i > j for i, j in itertools.combinations(perm, 2)) % 2 == 0
    )]
    quaternions = {
        tuple((s * a, s * b) for s, (a, b) in zip(signs, seed))
        for seed in seeds for signs in itertools.product((1, -1), repeat=4)
    }
    assert len(quaternions) == 120
    assert all(golden_dot(q, q) == (4, 0) for q in quaternions)
    # A ray is q and -q; keep the lesser of the two.
    rays = sorted({min(q, tuple((-a, -b) for a, b in q)) for q in quaternions})
    assert len(rays) == 60
    orthogonal = {u: {v for v in rays if golden_dot(u, v) == (0, 0)} for u in rays}
    bases = [
        (a, b, c, d)
        for a in rays for b in sorted(orthogonal[a]) if b > a
        for c in sorted(orthogonal[a] & orthogonal[b]) if c > b
        for d in sorted(orthogonal[a] & orthogonal[b] & orthogonal[c]) if d > c
    ]
    assert len(bases) == 75
    for basis in bases:
        for u, v in itertools.combinations(basis, 2):
            assert golden_dot(u, v) == (0, 0)
    # Every ray lies in five bases, not two, so the parity rule does not apply.
    assert all(sum(v in basis for basis in bases) == 5 for v in rays)
    label = {v: f"q{i:02d}" for i, v in enumerate(rays)}
    return ContextHypergraph.from_contexts([[label[v] for v in basis] for basis in bases])


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

    def test_search_depth_is_off_the_recursion_limit(self):
        # One level per context: a recursive search would overflow here.
        labels = [f"x{i:05d}" for i in range(sys.getrecursionlimit() + 100)]
        h = ContextHypergraph.from_contexts((label,) for label in labels)
        verdict = enumerate_assignments(h)
        assert verdict.valid_count == 1
        assert verdict.witness == dict.fromkeys(labels, 1)

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

    def test_peres_not_colorable_without_parity(self, peres):
        # A not-colorable verdict that the counting obstruction cannot explain.
        verdict = enumerate_assignments(peres)
        assert verdict.valid_count == 0
        assert not verdict.colorable
        assert verdict.total_assignments == 1 << 24
        assert verdict.witness is None
        assert verdict.obstruction is None

    def test_600_cell_not_colorable_without_parity(self, cell600):
        # Decided within ks.SEARCH_LIMIT: the search refuses past it.
        verdict = enumerate_assignments(cell600)
        assert not verdict.colorable
        assert verdict.valid_count == 0
        assert verdict.total_assignments == 1 << 60
        assert verdict.witness is None
        assert verdict.obstruction is None

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


class TestSearchBudget:
    """Expanded-node counts of the decider, as _exact_covers returns them and
    at the budget: SEARCH_LIMIT = nodes answers and nodes - 1 refuses.
    Changing the branch rule or the memo moves them; the order of the element
    bits does not, so the masks here number labels in listing order."""

    @pytest.mark.parametrize(
        "name,nodes", [("nakamura", 3), ("cabello", 8), ("ceg", 31), ("peres", 49)]
    )
    def test_node_count(self, request, monkeypatch, name, nodes):
        if name in MODEL_CONTEXTS:
            h = ContextHypergraph.from_contexts(MODEL_CONTEXTS[name])
        else:
            h = request.getfixturevalue(name)
        masks = [sum(1 << h.elements.index(label) for label in c) for c in h.contexts]
        holders = {
            1 << j: sum(1 << i for i, c in enumerate(h.contexts) if label in c)
            for j, label in enumerate(h.elements)
        }
        assert _exact_covers(masks, holders) == (0, None, nodes)
        monkeypatch.setattr("qcontext.ks.SEARCH_LIMIT", nodes)
        assert enumerate_assignments(h).valid_count == 0
        monkeypatch.setattr("qcontext.ks.SEARCH_LIMIT", nodes - 1)
        message = f"^search limit: more than {nodes - 1} search nodes for {len(h.contexts)} contexts$"
        with pytest.raises(ValueError, match=message):
            enumerate_assignments(h)


class TestParityObstruction:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(hypergraphs(), paired_hypergraphs()))
    def test_verdict_carries_the_parity_rule(self, h):
        verdict = enumerate_assignments(h)
        # The rule, by one scan of the contexts per label.
        applies = len(h.contexts) % 2 == 1 and all(
            sum(label in c for c in h.contexts) == 2 for label in h.elements
        )
        if applies:
            assert verdict.obstruction == ParityObstruction(len(h.contexts), 2)
            assert verdict.valid_count == 0
        else:
            assert verdict.obstruction is None

    def test_present_for_both_families(self, nakamura, cabello):
        for family, count in ((nakamura, 3), (cabello, 5)):
            h = ContextHypergraph.from_contexts(family.contexts)
            obstruction = enumerate_assignments(h).obstruction
            assert obstruction is not None
            assert obstruction.context_count == count
            assert obstruction.incidence_multiplicity == 2

    def test_absent_for_even_context_count(self):
        # Two identical contexts: every element occurs twice but the count is
        # even, so the parity argument is silent and witnesses exist.
        h = ContextHypergraph.from_contexts([("a", "b"), ("a", "b")])
        verdict = enumerate_assignments(h)
        assert verdict.obstruction is None
        assert verdict.colorable

    def test_absent_when_incidence_is_not_two(self):
        h = ContextHypergraph.from_contexts([("a", "b"), ("b", "c"), ("c", "d")])
        assert enumerate_assignments(h).obstruction is None

    def test_free_element_lifts_the_rule(self):
        # Nakamura's contexts give every label incidence 2; one more label in
        # no context has incidence 0 and no holder mask, so the rule no
        # longer applies.
        paired = ContextHypergraph.from_contexts(MODEL_CONTEXTS["nakamura"])
        assert enumerate_assignments(paired).obstruction == ParityObstruction(3, 2)
        free = ContextHypergraph(elements=(*paired.elements, "free"), contexts=paired.contexts)
        verdict = enumerate_assignments(free)
        assert verdict.obstruction is None
        assert verdict.valid_count == 0

    def test_absent_without_contexts(self):
        h = ContextHypergraph(elements=("a",), contexts=())
        assert enumerate_assignments(h).obstruction is None


class TestHypergraphParsing:
    def test_parse_with_comments_and_blanks(self):
        text = "# measurement rows\n\na, b\n b,c \n"
        h = parse_hypergraph(text)
        assert h.elements == ("a", "b", "c")
        assert h.contexts == (("a", "b"), ("b", "c"))

    def test_parse_rejects_empty_labels(self):
        with pytest.raises(ValueError, match="empty label"):
            parse_hypergraph("a,,b\n")

    @pytest.mark.parametrize(
        "text", ["", "\n\n", "# a comment\n   \n"], ids=["empty", "blank", "comments-only"]
    )
    def test_parse_rejects_text_without_context(self, text):
        with pytest.raises(ValueError, match="no context line"):
            parse_hypergraph(text)

    def test_duplicate_label_in_context_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_hypergraph("a,a\n")

    def test_from_contexts_reads_an_iterator_once(self):
        rows = [("b", "a"), ("a", "c")]
        h = ContextHypergraph.from_contexts(iter(rows))
        assert h == ContextHypergraph.from_contexts(rows)
        assert h.elements == ("b", "a", "c")
        assert h.contexts == tuple(rows)

    def test_list_built_equals_tuple_built(self):
        # Stored as given, lists left the hypergraph unequal and unhashable.
        from_lists = ContextHypergraph(["a", "b", "c"], [["a", "b"], ["b", "c"]])
        from_tuples = ContextHypergraph(("a", "b", "c"), (("a", "b"), ("b", "c")))
        assert from_lists == from_tuples
        assert hash(from_lists) == hash(from_tuples)
        assert enumerate_assignments(from_lists) == enumerate_assignments(from_tuples)

    def test_unknown_labels_rejected_in_constructor(self):
        with pytest.raises(ValueError, match=r"^context references unknown labels \['y', 'z'\]$"):
            ContextHypergraph(elements=("a",), contexts=(("a",), ("y", "a", "z")))

    def test_duplicate_element_labels_rejected(self):
        with pytest.raises(ValueError, match="^duplicate element labels$"):
            ContextHypergraph(elements=("a", "b", "a"), contexts=(("a", "b"),))

    def test_repeat_reported_before_unknown_label(self):
        # The unknown label comes first, but the repeat is what is reported.
        with pytest.raises(ValueError, match=r"^duplicate labels inside context \('a', 'z', 'a'\)$"):
            ContextHypergraph(elements=("a",), contexts=(("a", "z", "a"),))

    def test_unsortable_labels_raise_where_built(self):
        # The bit encoding orders the labels when the hypergraph is built.
        with pytest.raises(TypeError):
            ContextHypergraph(elements=("a", 1), contexts=(("a", 1),))
