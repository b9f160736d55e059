"""Every committed BENCH_*.json record validates against schemas/bench.schema.json."""

import json
from pathlib import Path

import jsonschema
import pytest

from conftest import load_schema

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_bench_files_exist():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_matches_schema(path):
    jsonschema.validate(json.loads(path.read_text()), load_schema("bench"))


def test_schema_rejects_a_metric_without_per_seed_values():
    doc = json.loads(BENCH_FILES[0].read_text())
    workload = next(iter(doc["workloads"].values()))
    del workload["change"]["ops_per_s"]["per_seed"]
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(doc, load_schema("bench"))
