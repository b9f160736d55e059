"""Tests of the benchmark itself: the colorability reference and a reduced
smoke run of every workload, untraced and traced.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import itertools
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

import ksref

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def brute_force(elements, contexts):
    order = sorted(elements)
    valid = [
        dict(zip(order, bits))
        for bits in itertools.product((0, 1), repeat=len(order))
        if all(sum(dict(zip(order, bits))[label] for label in c) == 1 for c in contexts)
    ]
    return len(valid), (valid[0] if valid else None)


@pytest.mark.parametrize("kind", ksref.KINDS)
def test_reference_matches_brute_force(kind):
    rng = random.Random(kind)
    for _ in range(40):
        elements, contexts = ksref.random_hypergraph(rng, rng.randint(6, 11), kind)
        count, witness, parity = ksref.reference_verdict(elements, contexts)
        assert (count, witness) == brute_force(elements, contexts)
        if parity:
            assert count == 0


def test_parity_kind_always_applies():
    rng = random.Random(7)
    for n in (6, 12, 18, 24):
        elements, contexts = ksref.random_hypergraph(rng, n, "parity")
        assert ksref.parity_applies(elements, contexts)
        assert ksref.reference_verdict(elements, contexts)[0] == 0


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True,
        timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run(workload, trace, tmp_path):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "5", "--seconds", "1",
                     "--trace", str(trace), "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 2
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: entry["unit"] for name, entry in result["metrics"].items()
    }
    schema = json.loads((HERE / "result.schema.json").read_text())
    saved = json.loads((tmp_path / f"{workload}-seed5-trace{trace}.json").read_text())
    jsonschema.validate(saved, schema)
    assert saved["meta"]["seed"] == 5
    if trace:
        assert (tmp_path / f"{workload}-seed5-spans.json.gz").is_file()


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(tmp_path, "--workload", "api_small", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
