"""Noncontextual hidden-variable model for the dilated measurements.

A sample is an ancilla value lam, which picks one antipodal pair (slot) per
context, and a uniform Bloch-sphere vector m, which picks that pair's sign:
the "+" projector along v takes value 1 exactly when (m + n).v > 0 for
system direction n, and the measure-zero boundary gives "-".
``noncontextual_value_map`` applies that rule to one sample; Monte Carlo
aggregation checks the model against Born-rule statistics.

One kernel, ``_povm_shard``, samples a context of N pairs; the Bell marginal
is its one-pair case. One runner, ``_sample``, shards and merges the counts.
The kernel draws a Gaussian triple z per sample, so m = z/|z| is uniform on
the sphere, but it never builds m: for |z| > 0 the sign of (z/|z| + n).v is
the sign of z.v + |z|(n.v), so only the row norms are needed; |z| is the
square root of square(z) @ (1, 1, 1). It works through a shard in blocks of
``_BLOCK`` samples, drawing the same numbers as one whole-shard draw. Per
block it draws z into a reused buffer, writes each slot's projections z.v
into one row of another and picks sample i's own with one ``take`` at flat
index lam * (row length) + i.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bloch import BlochVector, projector_from_bloch
from .povm import PovmFamily, born_probabilities
from .tables import MAX_SAMPLES

#: Fixed Monte Carlo shard size; substreams derive from (seed, shard index)
#: alone, so reports are identical for any worker count.
SHARD_SIZE = 1 << 17
#: Samples per block inside a shard. A block's temporaries (32 KiB per sample
#: vector) and the shard's buffers, reused by every block (96 KiB for z,
#: 32-128 KiB of projections for 1-4 slots), stay in cache, while whole-shard
#: temporaries (1-4 MiB) are mapped and page-faulted afresh on most shards.
#: 1 << 13 is no faster and holds 0.3 MiB more at a 4-slot shard's peak.
_BLOCK = 1 << 12
#: Largest |z| of a passing simulation: the 5-sigma acceptance rule.
Z_LIMIT = 5.0

_VALID_SLOT_COUNTS = (2, 4)


@dataclass(frozen=True)
class HiddenVariable:
    """One sample: ancilla value lam in {0..N-1} plus sphere vector m."""

    lam: int
    m: BlochVector


def _shard_rng(seed: int, shard_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(shard_index,)))


def _povm_shard(args) -> tuple[np.ndarray, int]:
    """Counts of slot k's "+" (index 2k) and "-" (2k + 1) elements, and boundary hits."""
    plus_dirs, n_arr, seed, shard_index, count = args
    n_slots = len(plus_dirs)
    rng = _shard_rng(seed, shard_index)
    # integers(0, 1, ...) draws nothing, so a one-slot shard draws z alone.
    lams = rng.integers(0, n_slots, size=count)
    n_dots = plus_dirs @ n_arr
    size = min(_BLOCK, count)
    # Buffers every block reuses: z, and one row per slot k holding the
    # block's projections onto slot k's "+" direction, so sample i's own
    # projection sits at flat index lam[i] * size + i.
    zbuf = np.empty((size, 3))
    proj = np.empty((n_slots, size))
    offsets = np.arange(size)
    ones = np.ones(3)
    counts = np.zeros(2 * n_slots, dtype=np.int64)
    boundary = 0
    for start in range(0, count, _BLOCK):
        lam = lams[start : start + _BLOCK]
        width = len(lam)
        # Successive standard_normal calls continue one stream, so drawing z
        # block by block gives the same z as drawing it whole.
        z = rng.standard_normal(out=zbuf[:width])
        # m = z/|z| is never built: sign((z/|z| + n).d) = sign(z.d + |z|(n.d)).
        # One matrix-vector product per slot: a gemm against plus_dirs.T would
        # start BLAS threads inside every pool worker and oversubscribe the cores.
        for k in range(n_slots):
            np.matmul(z, plus_dirs[k], out=proj[k, :width])
        signed = proj.take(lam * size + offsets[:width])
        # z is spent once projected, so its squares overwrite it.
        r = np.square(z, out=z) @ ones
        np.sqrt(r, out=r)
        # A zero triple (probability zero) counts as m = 0.
        r[r == 0] = 1.0
        r *= n_dots.take(lam)
        signed += r
        # Outcome 1 picks the "+" element of the slot pair; the boundary counts as 0.
        counts += np.bincount(2 * lam + (signed <= 0), minlength=2 * n_slots)
        boundary += int(np.count_nonzero(signed == 0))
    return counts, boundary


def _sample(
    plus_dirs: np.ndarray, n: BlochVector, samples: int, seed: int, workers: int
) -> tuple[np.ndarray, int]:
    """Merged shard counts; shard k draws from substream (seed, k) alone, so
    the counts are the same for any worker count."""
    # bool is an int subclass, so True would otherwise run one sample (or seed
    # 1). A numpy integer is refused too: the report stores both, and json
    # cannot write one. A seed of None would run on fresh OS entropy.
    for name, value in (("samples", samples), ("seed", seed)):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"{name} must be an int, got {type(value).__name__}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if samples > MAX_SAMPLES:
        raise ValueError(f"samples must be <= MAX_SAMPLES = {MAX_SAMPLES}, got {samples}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    n_arr = n.as_array()
    tasks = [
        (plus_dirs, n_arr, seed, k, min(SHARD_SIZE, samples - start))
        for k, start in enumerate(range(0, samples, SHARD_SIZE))
    ]
    if workers > 1 and len(tasks) > 1:
        # Imported here: the pool machinery costs ~17 ms to import, which
        # every CLI start would pay for nothing.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_povm_shard, tasks))
    else:
        results = [_povm_shard(task) for task in tasks]
    return sum(counts for counts, _ in results), sum(boundary for _, boundary in results)


def bell_marginal_estimate(
    n: BlochVector, v: BlochVector, samples: int, seed: int, workers: int = 1
) -> float:
    """Monte Carlo estimate of P(outcome = 1); converges to (1 + n.v)/2.

    The one-pair case of the context sampler: a single slot with "+" along v.
    """
    counts, _ = _sample(v.as_array()[None, :], n, samples, seed, workers)
    return int(counts[0]) / samples


@dataclass(frozen=True)
class SimulationReport:
    """Aggregated outcome statistics for one context against Born values."""

    family: str
    context_index: int
    state: tuple[float, float, float]
    samples: int
    seed: int
    labels: tuple[str, ...]
    counts: tuple[int, ...]
    frequencies: tuple[float, ...]
    born: tuple[float, ...]
    z_scores: tuple[float, ...]
    boundary_count: int

    def frequencies_sum_to_one(self) -> bool:
        """Exact rational check that the per-element frequencies total 1."""
        return sum(Fraction(c, self.samples) for c in self.counts) == 1

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "context": self.context_index + 1,
            "state": list(self.state),
            "samples": self.samples,
            "seed": self.seed,
            "boundary_count": self.boundary_count,
            "rows": [
                {
                    "label": label,
                    "count": count,
                    "frequency": freq,
                    "born": born,
                    "zscore": z,
                }
                for label, count, freq, born, z in zip(
                    self.labels, self.counts, self.frequencies, self.born, self.z_scores
                )
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def to_csv(self) -> str:
        lines = ["label,count,frequency,born,zscore"]
        for label, count, freq, born, z in zip(
            self.labels, self.counts, self.frequencies, self.born, self.z_scores
        ):
            lines.append(f"{label},{count},{freq!r},{born!r},{z!r}")
        return "\n".join(lines) + "\n"


def _z_score(freq: float, p: float, samples: int) -> float:
    if 0.0 < p < 1.0:
        return (freq - p) * math.sqrt(samples / (p * (1.0 - p)))
    return 0.0 if freq == p else math.inf


def simulate_povm(
    family: PovmFamily,
    context_index: int,
    n: BlochVector,
    samples: int,
    seed: int,
    workers: int = 1,
) -> SimulationReport:
    """Sample the two-stage model for one context and compare with Born values.

    Each sample draws a hidden variable for the context's pair count; the
    ancilla value selects the slot pair and the sphere rule on that pair's "+"
    direction selects the sign. Counts merge over fixed-size shards, making
    the report deterministic in (inputs, seed) for any worker count. The
    model agrees with the Born rule when every |z| is at most ``Z_LIMIT``
    (5 sigma); ``qcontext simulate`` exits 1 otherwise.
    """
    pairs = family.context_pairs(context_index)
    if len(pairs) not in _VALID_SLOT_COUNTS:
        raise ValueError(f"invalid context: {len(pairs)} pairs, expected one of {_VALID_SLOT_COUNTS}")

    plus_dirs = np.array([family.elements[plus].direction.as_array() for plus, _ in pairs])
    counts, boundary = _sample(plus_dirs, n, samples, seed, workers)

    labels = family.contexts[context_index]
    born = born_probabilities(projector_from_bloch(n), [family.elements[l] for l in labels])
    frequencies = tuple(int(c) / samples for c in counts)
    z_scores = tuple(
        _z_score(freq, p, samples) for freq, p in zip(frequencies, born)
    )

    return SimulationReport(
        family=family.name,
        context_index=context_index,
        state=(n.x, n.y, n.z),
        samples=samples,
        seed=seed,
        labels=tuple(labels),
        counts=tuple(int(c) for c in counts),
        frequencies=frequencies,
        born=born,
        z_scores=z_scores,
        boundary_count=boundary,
    )


def noncontextual_value_map(
    hv: HiddenVariable, family: PovmFamily, n: BlochVector
) -> tuple[dict[str, int], ...]:
    """Product value assignment over every context's extended outcomes.

    The ancilla value marks one slot per context and the sphere rule on that
    slot's pair picks the sign, so each context receives exactly one outcome
    valued 1 from a single hidden-variable sample. The boundary
    (m + n).v = 0, which has probability zero, gives "-".
    """
    m = hv.m
    assignments = []
    for context_index in range(len(family.contexts)):
        pairs = family.context_pairs(context_index)
        if not 0 <= hv.lam < len(pairs):
            raise ValueError(
                f"hidden variable lam={hv.lam} out of range for {len(pairs)} pairs"
            )
        plus, minus = pairs[hv.lam]
        v = family.elements[plus].direction
        s = (m.x + n.x) * v.x + (m.y + n.y) * v.y + (m.z + n.z) * v.z
        assignment = {label: 0 for label in family.contexts[context_index]}
        assignment[plus if s > 0 else minus] = 1
        assignments.append(assignment)
    return tuple(assignments)
