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
``_BLOCK`` samples, drawing the same numbers as one whole-shard draw and
doing the same arithmetic on each sample at any block size. (numpy computes
a one-row block's products as a dot, not a matrix-vector product, which can
round a last bit differently; a one-sample last block is the only such
case.) A block allocates nothing: it draws z into scratch made once per shard,
writes each slot's projections z.v into one row of another, picks sample
i's own with one ``take`` at flat index lam * (row length) + i, and writes
every later step into scratch with ``out=``. The shard counts its "-" and
boundary masks once, after its last block.

The runner runs a call's shards on a thread pool. numpy releases the GIL in
the Gaussian draw and in the matrix-vector products, which do most of a
shard's work, so two threads overlap on two cores with no fork and no
pickling. Every numpy call also drops and retakes the GIL, and under the
pool each handoff can cost a context switch, so the block is as large as
the cache allows.

This is the one module that knows numpy, and its array functions import it
when called, so ``noncontextual_value_map`` and the report types load none.
The Born values it compares against are computed on 2x2 entries by ``povm``.
"""

from __future__ import annotations

import json
import math
import os
from fractions import Fraction
from typing import TYPE_CHECKING

from .bloch import BlochVector, projector_entries
from .povm import PovmFamily, born_probabilities
from .tables import MAX_SAMPLES, Frozen, check_int

if TYPE_CHECKING:  # imported for real inside the array functions
    import numpy as np

#: Fixed Monte Carlo shard size; substreams derive from (seed, shard index)
#: alone, so reports are identical for any worker count.
SHARD_SIZE = 1 << 17
#: Samples per block inside a shard. The size trades the per-call GIL
#: handoffs against the cache. A block makes a fixed number of numpy calls,
#: each of which drops and retakes the GIL, and two pool threads contend for
#: it at every call: a 4e6-sample op at workers=2 made about 2,500 voluntary
#: context switches at 1 << 12 and about 1,000 at 1 << 13. The scratch every
#: block reuses (192 KiB for z, 64-256 KiB of projections for 1-4 slots,
#: 64 KiB per sample vector) stays in cache: at workers=1 a shard runs 1-5%
#: slower than at 1 << 12, but 10-18% slower at 1 << 14.
_BLOCK = 1 << 13
#: Largest |z| of a passing simulation: the 5-sigma acceptance rule.
Z_LIMIT = 5.0

_VALID_SLOT_COUNTS = (2, 4)


class HiddenVariable(Frozen):
    """One sample: ancilla value lam in {0..N-1} plus sphere vector m."""

    __slots__ = _fields = ("lam", "m")

    def __init__(self, lam: int, m: BlochVector):
        check_int("hidden variable lam", lam)
        if not isinstance(m, BlochVector):
            raise ValueError(f"hidden variable m must be a BlochVector, got {type(m).__name__}")
        super().__init__(lam, m)


def _shard_rng(seed: int, shard_index: int) -> np.random.Generator:
    import numpy as np

    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(shard_index,)))


def _povm_shard(args) -> tuple[np.ndarray, int]:
    """Counts of slot k's "+" (index 2k) and "-" (2k + 1) elements, and boundary hits."""
    import numpy as np

    plus_dirs, n_arr, seed, shard_index, count = args
    n_slots = len(plus_dirs)
    rng = _shard_rng(seed, shard_index)
    # integers(0, 1, ...) draws nothing, so a one-slot shard draws z alone.
    lams = rng.integers(0, n_slots, size=count)
    # Float, so it can be taken into a float buffer: integer directions give int64.
    n_dots = (plus_dirs @ n_arr).astype(float)
    size = min(_BLOCK, count)
    # Scratch made once per shard, so a block allocates nothing. The float
    # rows hold z (three rows' worth), one row per slot k of the block's
    # projections onto slot k's "+" direction, sample i's own projection, |z|
    # and n.d. They are one allocation: as separate buffers above malloc's
    # mmap threshold they were mapped and page-faulted afresh on every call
    # (155 minor faults per 8000-sample call); one larger block raises glibc's
    # dynamic threshold, so later calls reuse heap pages. flat holds sample
    # i's flat index lam[i] * width + i. The "-" and boundary masks span the
    # shard and are counted once, after its last block.
    scratch = np.empty((6 + n_slots, size))
    z_buf, proj_buf = scratch[:3].reshape(-1), scratch[3 : 3 + n_slots].reshape(-1)
    signed_buf, r_buf, nd_buf = scratch[3 + n_slots :]
    flat_buf = np.empty(size, dtype=np.intp)
    minus_all, zero_all = np.empty((2, count), dtype=bool)
    offsets = np.arange(size)
    ones = np.ones(3)
    width = 0
    for start in range(0, count, _BLOCK):
        stop = start + _BLOCK
        lam = lams[start:stop]
        if len(lam) != width:
            # The first block, and a shorter last one, view the front of the scratch.
            width = len(lam)
            z = z_buf[: width * 3].reshape(width, 3)
            proj = proj_buf[: n_slots * width].reshape(n_slots, width)
            flat, signed, r, nd = (b[:width] for b in (flat_buf, signed_buf, r_buf, nd_buf))
        minus, zero = minus_all[start:stop], zero_all[start:stop]
        # Successive standard_normal calls continue one stream, so drawing z
        # block by block gives the same z as drawing it whole.
        rng.standard_normal(out=z)
        # m = z/|z| is never built: sign((z/|z| + n).d) = sign(z.d + |z|(n.d)).
        # One matrix-vector product per slot: a gemm against plus_dirs.T would
        # start BLAS threads inside every pool thread and oversubscribe the cores.
        for k in range(n_slots):
            np.matmul(z, plus_dirs[k], out=proj[k])
        np.multiply(lam, width, out=flat)
        np.add(flat, offsets[:width], out=flat)
        # mode="raise" would write into a copy of signed; every index is in range.
        proj.take(flat, out=signed, mode="clip")
        # z is spent once projected, so its squares overwrite it.
        np.matmul(np.square(z, out=z), ones, out=r)
        np.sqrt(r, out=r)
        # A zero triple (probability zero) counts as m = 0.
        np.equal(r, 0, out=zero)
        np.copyto(r, 1.0, where=zero)
        n_dots.take(lam, out=nd, mode="clip")
        np.multiply(r, nd, out=r)
        np.add(signed, r, out=signed)
        # Outcome 1 picks the "+" element of the slot pair; the boundary counts as 0.
        np.less_equal(signed, 0, out=minus)
        np.equal(signed, 0, out=zero)
    # Sample i's element index is 2 lam[i] + minus[i].
    lams += lams
    lams += minus_all
    return np.bincount(lams, minlength=2 * n_slots), int(np.count_nonzero(zero_all))


def _sample(
    plus_dirs: list[BlochVector], n: BlochVector, samples: int, seed: int, workers: int
) -> tuple[np.ndarray, int]:
    """Merged counts over the slots' "+" directions; shard k draws from
    substream (seed, k) alone, so the counts are the same for any worker count."""
    # Before any shard is planned; a seed of None would run on fresh entropy.
    check_int("samples", samples, 1, MAX_SAMPLES)
    check_int("seed", seed)
    check_int("workers", workers, 1)
    import numpy as np

    dirs = np.array([(v.x, v.y, v.z) for v in plus_dirs])
    n_arr = np.array((n.x, n.y, n.z))
    tasks = [
        (dirs, n_arr, seed, k, min(SHARD_SIZE, samples - start))
        for k, start in enumerate(range(0, samples, SHARD_SIZE))
    ]
    if workers > 1 and len(tasks) > 1:
        # Imported here: the thread pool costs ~6 ms to import, which every
        # CLI start would pay for nothing.
        from concurrent.futures import ThreadPoolExecutor

        # No wider than the shards or than the CPUs this process may run on:
        # a pool starts a thread for each task that finds none idle.
        if hasattr(os, "sched_getaffinity"):
            usable = len(os.sched_getaffinity(0))
        else:
            usable = os.cpu_count() or 1
        with ThreadPoolExecutor(max_workers=min(workers, len(tasks), usable)) as pool:
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
    counts, _ = _sample([v], n, samples, seed, workers)
    return int(counts[0]) / samples


class SimulationReport(Frozen):
    """Aggregated outcome statistics for one context against Born values."""

    __slots__ = _fields = (
        "family", "context_index", "state", "samples", "seed", "labels", "counts",
        "frequencies", "born", "z_scores", "boundary_count",
    )

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

    plus_dirs = [family.elements[plus].direction for plus, _ in pairs]
    counts, boundary = _sample(plus_dirs, n, samples, seed, workers)

    labels = family.contexts[context_index]
    state = projector_entries(n)
    born = born_probabilities((state[:2], state[2:]), [family.elements[l] for l in labels])
    frequencies = tuple(int(c) / samples for c in counts)
    z_scores = tuple(
        _z_score(freq, p, samples) for freq, p in zip(frequencies, born)
    )

    return SimulationReport(
        family.name, context_index, (n.x, n.y, n.z), samples, seed, tuple(labels),
        tuple(int(c) for c in counts), frequencies, born, z_scores, boundary,
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
