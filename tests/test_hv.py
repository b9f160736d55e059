import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from qcontext import (
    BlochVector,
    HiddenVariable,
    bell_marginal_estimate,
    born_probabilities,
    noncontextual_value_map,
    simulate_povm,
)
from qcontext.bloch import projector_entries
from qcontext.hv import _BLOCK, MAX_SAMPLES, SHARD_SIZE, _povm_shard, _shard_rng

from conftest import _unit_sphere

Z = BlochVector(0, 0, 1)

def _array(v: BlochVector) -> np.ndarray:
    return np.array((v.x, v.y, v.z))


unit_arrays = st.tuples(
    st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1)
).filter(lambda t: math.sqrt(sum(c * c for c in t)) > 1e-3).map(
    lambda t: _array(BlochVector.normalized(*t))
)


def acceptance_region_integral(n_dot_v: float) -> float:
    """Quadrature oracle for P[(m+n).v > 0] with m uniform on the sphere.

    Integrates the indicator over the polar angle about v with density
    sin(theta)/2, splitting at the discontinuity.
    """
    boundary = math.acos(max(-1.0, min(1.0, -n_dot_v)))
    value, _ = integrate.quad(
        lambda th: 0.5 * math.sin(th) * (math.cos(th) > -n_dot_v),
        0.0,
        math.pi,
        points=[boundary],
        limit=200,
    )
    return value


def draw_hidden_variable(n_slots: int, rng: np.random.Generator) -> HiddenVariable:
    """lam uniform over {0..n_slots-1}, then m uniform on the sphere."""
    lam = int(rng.integers(0, n_slots))
    return HiddenVariable(lam=lam, m=BlochVector.from_array(_unit_sphere(rng, 1)[0]))


def direction_at(degrees: float) -> BlochVector:
    theta = math.radians(degrees)
    return BlochVector.normalized(math.sin(theta), 0.0, math.cos(theta))


class TestSphereSampling:
    def test_samples_are_unit(self):
        m = _unit_sphere(np.random.default_rng(0), 10_000)
        assert np.max(np.abs(np.linalg.norm(m, axis=1) - 1.0)) <= 1e-12

    def test_componentwise_mean_vanishes(self):
        n = 1_000_000
        m = _unit_sphere(np.random.default_rng(1), n)
        # Var of each component of a uniform sphere point is 1/3.
        sigma = math.sqrt(1 / 3 / n)
        assert np.max(np.abs(m.mean(axis=0))) <= 5 * sigma

    def test_abs_z_mean(self):
        # m_z is uniform on [-1, 1], so |m_z| has mean 1/2 and variance 1/12.
        n = 1_000_000
        m = _unit_sphere(np.random.default_rng(2), n)
        sigma = math.sqrt(1 / 12 / n)
        assert abs(np.abs(m[:, 2]).mean() - 0.5) <= 5 * sigma


class TestBellOutcome:
    """The sphere rule as the value map applies it, on slot 0 of nakamura's
    first context: the A pair, with A+ at the north pole."""

    def test_aligned_measurement_fires(self, nakamura):
        rng = np.random.default_rng(4)
        for m in _unit_sphere(rng, 200):
            hv = HiddenVariable(lam=0, m=BlochVector.from_array(m))
            assert noncontextual_value_map(hv, nakamura, Z)[0]["A+"] == 1

    def test_anti_aligned_everything(self, nakamura):
        minus = BlochVector(0, 0, -1)
        hv = HiddenVariable(lam=0, m=minus)
        assert noncontextual_value_map(hv, nakamura, minus)[0]["A-"] == 1

    def test_boundary_returns_zero(self, nakamura):
        m = BlochVector(0, 1, 0)
        n = BlochVector(1, 0, 0)
        assert (m.x + n.x) * Z.x + (m.y + n.y) * Z.y + (m.z + n.z) * Z.z == 0.0
        hv = HiddenVariable(lam=0, m=m)
        assert noncontextual_value_map(hv, nakamura, n)[0]["A-"] == 1


class TestBellMarginal:
    def test_aligned_is_exactly_one(self):
        assert bell_marginal_estimate(Z, Z, 100_000, seed=10) == 1.0

    def test_orthogonal_is_half(self):
        estimate = bell_marginal_estimate(Z, BlochVector(1, 0, 0), 1_000_000, seed=11)
        sigma = math.sqrt(0.25 / 1_000_000)
        assert abs(estimate - 0.5) <= 5 * sigma

    def test_sixty_degrees_against_quadrature_oracle(self):
        # Trust order: the independent integral first, then the sampler.
        oracle = acceptance_region_integral(0.5)
        assert abs(oracle - 0.75) <= 1e-9
        estimate = bell_marginal_estimate(Z, direction_at(60), 1_000_000, seed=12)
        sigma = math.sqrt(0.75 * 0.25 / 1_000_000)
        assert abs(estimate - oracle) <= 5 * sigma

    def test_worker_count_does_not_change_estimate(self):
        v = direction_at(117)
        one = bell_marginal_estimate(Z, v, 500_000, seed=13, workers=1)
        four = bell_marginal_estimate(Z, v, 500_000, seed=13, workers=4)
        assert one == four

    def test_rejects_zero_samples(self):
        with pytest.raises(ValueError):
            bell_marginal_estimate(Z, Z, 0, seed=1)

    def test_rejects_samples_above_ceiling(self, nakamura):
        # Refused before the shard plan is built, so nothing is allocated.
        with pytest.raises(ValueError, match="MAX_SAMPLES"):
            bell_marginal_estimate(Z, Z, MAX_SAMPLES + 1, seed=1)
        with pytest.raises(ValueError, match="MAX_SAMPLES"):
            simulate_povm(nakamura, 0, Z, MAX_SAMPLES + 1, seed=1, workers=2)


class TestHatBoxTheorem:
    """The paper's second claim, exactly: the model reproduces the Born rule.

    lam picks slot k of a context of N pairs with probability 1/N, and by the
    hat-box theorem the sphere rule then selects the "+" element along d_k
    with probability P[(m + n).d_k > 0] = (1 + n.d_k)/2. So the model gives
    the pair (1 + n.d_k)/(2N) and (1 - n.d_k)/(2N), which must be the Born
    values of the pair's two elements in the state (I + n.sigma)/2.
    """

    @settings(max_examples=200, deadline=None)
    @given(unit_arrays)
    def test_model_probabilities_equal_born_values(self, nakamura, cabello, n):
        n = BlochVector.from_array(n)
        e = projector_entries(n)
        state = ((e[0], e[1]), (e[2], e[3]))
        for family in (nakamura, cabello):
            for index, context in enumerate(family.contexts):
                pairs = family.context_pairs(index)
                model = []
                for plus, _ in pairs:
                    n_dot_d = n.dot(family.elements[plus].direction)
                    model += [(1 + n_dot_d) / (2 * len(pairs)), (1 - n_dot_d) / (2 * len(pairs))]
                born = born_probabilities(state, [family.elements[label] for label in context])
                assert [label for pair in pairs for label in pair] == list(context)
                assert max(abs(m - b) for m, b in zip(model, born, strict=True)) <= 1e-12


def _simulate(nakamura, samples, workers, seed=1):
    return simulate_povm(nakamura, 0, Z, samples, seed=seed, workers=workers)


def _marginal(nakamura, samples, workers, seed=1):
    return bell_marginal_estimate(Z, Z, samples, seed=seed, workers=workers)


@pytest.mark.parametrize("run", [_simulate, _marginal])
class TestSampleArguments:
    """Both entry points reach the one runner, which names the bad argument."""

    @pytest.mark.parametrize("workers", [0, -1, 2.0, 1.5, True, "2", None])
    def test_rejects_workers_below_one(self, nakamura, run, workers):
        with pytest.raises(ValueError, match="workers"):
            run(nakamura, 1000, workers)

    def test_rejects_bool_samples(self, nakamura, run):
        with pytest.raises(ValueError, match="samples"):
            run(nakamura, True, 1)

    @pytest.mark.parametrize("samples", [10.5, 1000.0, "1000", None, np.int64(1000)])
    def test_rejects_non_int_samples(self, nakamura, run, samples):
        with pytest.raises(ValueError, match="samples"):
            run(nakamura, samples, 1)

    @pytest.mark.parametrize("seed", [None, True, 1.5, "3", np.int64(3), -1])
    def test_rejects_seed_not_a_non_negative_int(self, nakamura, run, seed):
        with pytest.raises(ValueError, match="seed"):
            run(nakamura, 1000, 1, seed)


class TestSimulatePovm:
    def test_nakamura_aligned_state(self, nakamura):
        report = simulate_povm(nakamura, 0, Z, 1_000_000, seed=42)
        by_label = dict(zip(report.labels, report.counts))
        assert sum(report.counts) == report.samples
        assert report.frequencies_sum_to_one()
        # The antipodal element cannot fire away from the boundary set.
        assert by_label["A-"] == 0
        assert max(abs(z) for z in report.z_scores) <= 5.0

    def test_born_column_matches_analytic_values(self, nakamura):
        report = simulate_povm(nakamura, 0, Z, 1000, seed=1)
        expected = {"A+": 0.5, "A-": 0.0, "B+": 0.375, "B-": 0.125}
        for label, born in zip(report.labels, report.born):
            assert born == pytest.approx(expected[label], abs=1e-12)

    def test_seed_determinism(self, cabello):
        a = simulate_povm(cabello, 3, BlochVector.normalized(1, -2, 0.5), 200_000, seed=9)
        b = simulate_povm(cabello, 3, BlochVector.normalized(1, -2, 0.5), 200_000, seed=9)
        assert a == b
        assert a.to_json() == b.to_json()

    def test_different_seeds_differ(self, nakamura):
        a = simulate_povm(nakamura, 0, Z, 100_000, seed=1)
        b = simulate_povm(nakamura, 0, Z, 100_000, seed=2)
        assert a.counts != b.counts

    def test_worker_count_invariance(self, cabello):
        n = BlochVector.normalized(0.3, 0.2, -1.0)
        one = simulate_povm(cabello, 1, n, 600_000, seed=21, workers=1)
        four = simulate_povm(cabello, 1, n, 600_000, seed=21, workers=4)
        assert one.to_json() == four.to_json()

    def test_worker_count_invariance_with_short_last_shard(self, cabello):
        # The last shard holds 5 samples, fewer than one block.
        n = BlochVector.normalized(-0.7, 0.1, 0.4)
        one = simulate_povm(cabello, 0, n, SHARD_SIZE + 5, seed=31, workers=1)
        two = simulate_povm(cabello, 0, n, SHARD_SIZE + 5, seed=31, workers=2)
        assert one.to_json() == two.to_json()

    def test_pool_never_wider_than_the_shard_count(self, cabello, monkeypatch):
        import os
        import threading

        from qcontext import hv

        ran_on = []

        def recording_shard(task):
            ran_on.append(threading.get_ident())
            return _povm_shard(task)

        monkeypatch.setattr(hv, "_povm_shard", recording_shard)
        n = BlochVector.normalized(0.2, -0.4, 0.9)
        # A thread pool starts a thread only for a task that finds none idle,
        # so 64 workers over 3 shards run on at most 3 threads.
        wide = simulate_povm(cabello, 2, n, 2 * SHARD_SIZE + 1, seed=5, workers=64)
        assert len(ran_on) == 3
        assert len(set(ran_on)) <= 3
        assert threading.get_ident() not in ran_on
        one = simulate_povm(cabello, 2, n, 2 * SHARD_SIZE + 1, seed=5, workers=1)
        assert wide.to_json() == one.to_json()

        # Nor wider than the CPUs the process may use: 40 small shards at 64
        # workers on 2 usable CPUs run on at most 2 threads.
        monkeypatch.setattr(hv, "SHARD_SIZE", 1 << 10)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        ran_on.clear()
        wide = simulate_povm(cabello, 2, n, 40 << 10, seed=5, workers=64)
        assert len(ran_on) == 40
        assert len(set(ran_on)) <= 2
        assert threading.get_ident() not in ran_on
        one = simulate_povm(cabello, 2, n, 40 << 10, seed=5, workers=1)
        assert wide.to_json() == one.to_json()

    def test_invalid_inputs(self, nakamura):
        with pytest.raises(ValueError):
            simulate_povm(nakamura, 9, Z, 10, seed=0)
        with pytest.raises(ValueError):
            simulate_povm(nakamura, 0, Z, 0, seed=0)

    def test_csv_round_trip(self, nakamura):
        report = simulate_povm(nakamura, 1, Z, 10_000, seed=5)
        lines = report.to_csv().strip().splitlines()
        assert lines[0] == "label,count,frequency,born,zscore"
        assert len(lines) == 1 + len(report.labels)
        label, count, freq, born, z = lines[1].split(",")
        assert label == report.labels[0]
        assert int(count) == report.counts[0]
        assert float(freq) == report.frequencies[0]
        assert float(born) == report.born[0]
        assert float(z) == report.z_scores[0]


def _reference_shard(args) -> tuple[np.ndarray, int]:
    """The sampling kernel as first written: it builds m on the sphere,
    adds n and selects each sample's slot projection with np.choose."""
    plus_dirs, n_arr, seed, shard_index, count = args
    n_slots = len(plus_dirs)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(shard_index,)))
    lams = rng.integers(0, n_slots, size=count)
    g = _unit_sphere(rng, count) + n_arr
    signed = np.choose(lams, [g @ d for d in plus_dirs])
    element_index = 2 * lams + (signed <= 0)
    counts = np.bincount(element_index, minlength=2 * n_slots)
    return counts, int(np.count_nonzero(signed == 0))


@st.composite
def shard_tasks(draw):
    n_slots = draw(st.sampled_from([1, 2, 4]))
    plus_dirs = np.array(draw(st.lists(unit_arrays, min_size=n_slots, max_size=n_slots)))
    d = plus_dirs[draw(st.integers(0, len(plus_dirs) - 1))]
    kind = draw(st.sampled_from(["random", "along", "against", "orthogonal"]))
    if kind == "random":
        n_arr = draw(unit_arrays)
    elif kind == "along":
        n_arr = d.copy()
    elif kind == "against":
        n_arr = -d
    else:
        other = draw(unit_arrays)
        cross = np.cross(d, other)
        if np.linalg.norm(cross) < 1e-3:
            cross = np.cross(d, np.eye(3)[np.argmin(np.abs(d))])
        n_arr = cross / np.linalg.norm(cross)
    seed = draw(st.integers(0, 2**63 - 1))
    shard_index = draw(st.integers(0, 10_000))
    # _BLOCK - 1 is a shard below one block; _BLOCK + 1 ends on a one-sample block.
    count = draw(
        st.sampled_from([1, 2, 997, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3, SHARD_SIZE])
    )
    return plus_dirs, n_arr, seed, shard_index, count


class TestKernelOracle:
    @settings(max_examples=150, deadline=None)
    @given(shard_tasks())
    def test_matches_reference_shard(self, task):
        # The kernel tests the sign of z.d + |z|(n.d) instead of (z/|z| + n).d.
        # The two round differently, so a sign could flip only where the exact
        # value is within a few ulps of zero: about 1e-16 per sample.
        counts, boundary = _povm_shard(task)
        expected_counts, expected_boundary = _reference_shard(task)
        assert counts.tolist() == expected_counts.tolist()
        assert boundary == expected_boundary


@functools.lru_cache(maxsize=None)
def _value_map_counts(family, n: BlochVector, seed: int, count: int) -> tuple[np.ndarray, ...]:
    """Per context, how often the value map gives each element 1 over the
    draws of shard 0: lam first, then z, and m = z/|z|."""
    n_slots = len(family.context_pairs(0))
    rng = _shard_rng(seed, 0)
    lams = rng.integers(0, n_slots, size=count)
    z = rng.standard_normal((count, 3))
    ms = z / np.linalg.norm(z, axis=1, keepdims=True)
    counts = [np.zeros(len(context), dtype=np.int64) for context in family.contexts]
    for lam, m in zip(lams, ms):
        hv = HiddenVariable(lam=int(lam), m=BlochVector.from_array(m))
        for total, context, assignment in zip(
            counts, family.contexts, noncontextual_value_map(hv, family, n)
        ):
            total += [assignment[label] for label in context]
    return tuple(counts)


class TestKernelImplementsModel:
    """The kernel's z-form of the sphere rule counts exactly what the value
    map's m-form gives on the same draws."""

    @pytest.mark.parametrize("seed", [8, 2**40 + 3])
    @pytest.mark.parametrize(
        "model, context", [("nakamura", i) for i in range(3)] + [("cabello", i) for i in range(5)]
    )
    def test_shard_counts_equal_value_map_counts(self, request, model, context, seed):
        family = request.getfixturevalue(model)
        n = BlochVector.normalized(0.3, -0.5, 0.8)
        plus_dirs = np.array(
            [_array(family.elements[plus].direction) for plus, _ in family.context_pairs(context)]
        )
        # _BLOCK + 904 samples span two blocks, the second a partial one.
        count = _BLOCK + 904
        counts, _ = _povm_shard((plus_dirs, _array(n), seed, 0, count))
        assert counts.tolist() == _value_map_counts(family, n, seed, count)[context].tolist()


class TestBlockSize:
    """The block is a cache size, not part of the seed-to-report contract: a
    shard counts the same at any block size."""

    @pytest.mark.parametrize("count", [SHARD_SIZE, SHARD_SIZE - 3])
    @pytest.mark.parametrize("n_slots", [1, 2, 4])
    def test_counts_do_not_depend_on_the_block(self, monkeypatch, n_slots, count):
        from qcontext import hv

        rng = np.random.default_rng(n_slots)
        plus_dirs = rng.standard_normal((n_slots, 3))
        plus_dirs /= np.linalg.norm(plus_dirs, axis=1, keepdims=True)
        task = (plus_dirs, _array(BlochVector.normalized(0.3, -0.5, 0.8)), 19, 2, count)
        results = []
        for block in (1 << 12, 1 << 13, 1 << 14):
            monkeypatch.setattr(hv, "_BLOCK", block)
            counts, boundary = _povm_shard(task)
            results.append((counts.tolist(), boundary))
        assert results == [results[0]] * 3
        assert sum(results[0][0]) == count


class TestPinnedReports:
    """Literal reports that any change to the sampling kernel must reproduce.

    Every case spans more than one shard. A kernel change that alters these
    values breaks the seed-to-report contract and must say so.
    """

    @pytest.mark.parametrize("workers", [1, 2])
    def test_cabello_counts(self, cabello, workers):
        n = BlochVector.normalized(0.3, -0.4, 0.8)
        report = simulate_povm(cabello, 2, n, 300_000, seed=2024, workers=workers)
        assert report.labels == ("B+", "B-", "D+", "D-", "F+", "F-", "J+", "J-")
        assert report.counts == (37346, 37372, 2111, 72959, 53681, 21165, 56917, 18449)
        assert report.boundary_count == 0

    @pytest.mark.parametrize("workers", [1, 2])
    def test_nakamura_counts(self, nakamura, workers):
        n = BlochVector.normalized(-0.5, 0.2, 0.7)
        report = simulate_povm(nakamura, 1, n, 270_000, seed=77, workers=workers)
        assert report.labels == ("A+", "A-", "C+", "C-")
        assert report.counts == (120817, 13908, 7657, 127618)
        assert report.boundary_count == 0

    def test_bell_marginal(self):
        n = BlochVector.normalized(0.1, 0.9, -0.3)
        v = BlochVector.normalized(-0.6, 0.2, 0.4)
        assert bell_marginal_estimate(n, v, 400_001, seed=5) == 0.49989625025937434


class TestNoncontextualValueMap:
    def test_exactly_one_per_context(self, nakamura, cabello):
        rng = np.random.default_rng(6)
        n = BlochVector.from_array(_unit_sphere(rng, 1)[0])
        for family, slots in ((nakamura, 2), (cabello, 4)):
            for _ in range(1000):
                hv = draw_hidden_variable(slots, rng)
                for assignment in noncontextual_value_map(hv, family, n):
                    assert sum(assignment.values()) == 1

    def test_forced_outcome(self, nakamura):
        hv = HiddenVariable(lam=0, m=Z)
        assignments = noncontextual_value_map(hv, nakamura, Z)
        # Slot 0 of context 1 is the A pair and (m+n).v = 2 > 0 selects "+".
        assert assignments[0]["A+"] == 1
        assert assignments[1]["A+"] == 1
        assert sum(assignments[2].values()) == 1

    def test_out_of_range_lambda(self, nakamura):
        hv = HiddenVariable(lam=3, m=Z)
        with pytest.raises(ValueError, match="out of range"):
            noncontextual_value_map(hv, nakamura, Z)

    def test_same_element_can_take_context_dependent_values(self, cabello):
        # The restriction to element labels is contextual: some sampled hidden
        # variable gives one element different values in its two contexts.
        rng = np.random.default_rng(7)
        n = BlochVector.from_array(_unit_sphere(rng, 1)[0])
        saw_disagreement = False
        for _ in range(500):
            hv = draw_hidden_variable(4, rng)
            maps = noncontextual_value_map(hv, cabello, n)
            for label in cabello.elements:
                first, second = cabello.element_contexts(label)
                if maps[first][label] != maps[second][label]:
                    saw_disagreement = True
                    break
            if saw_disagreement:
                break
        assert saw_disagreement
