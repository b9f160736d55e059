"""Every golden case of ``tests/golden.py``, in-process and through the
console-script body in a fresh interpreter, and every pinned file against
its command's schema."""

import io
import json

import jsonschema
import pytest

from qcontext.cli import main

from conftest import load_schema
from golden import PINNED_DIR, ROWS, SCHEMAS, mismatches, run_console_script

ROW_PARAMS = [pytest.param(row, id=row.id) for row in ROWS]

#: Each pinned stdout file and the command whose output it is.
PINNED_COMMANDS = {row.stdout: row.argv[0] for row in ROWS if row.stdout}


@pytest.mark.parametrize("row", ROW_PARAMS)
def test_in_process(row, capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(row.cwd or tmp_path)
    monkeypatch.setattr("sys.stdin", io.StringIO(row.stdin))
    code = main(list(row.argv))
    captured = capsys.readouterr()
    assert mismatches(row, code, captured.out, captured.err) == []


@pytest.mark.parametrize("row", ROW_PARAMS)
def test_console_script(row, tmp_path):
    assert run_console_script(row, tmp_path) == []


@pytest.mark.parametrize("name", sorted(PINNED_COMMANDS))
def test_pinned_output_matches_schema(name):
    doc = json.loads((PINNED_DIR / name).read_text())
    jsonschema.validate(doc, load_schema(SCHEMAS[PINNED_COMMANDS[name]]))


def test_every_pinned_file_is_used():
    # A row's stdout, or an input that a row running in tests/pinned names.
    inputs = {arg for row in ROWS if row.cwd == PINNED_DIR for arg in row.argv}
    used = {*PINNED_COMMANDS, *inputs}
    assert sorted(path.name for path in PINNED_DIR.iterdir() if path.name not in used) == []


def test_row_ids_are_unique():
    assert len({row.id for row in ROWS}) == len(ROWS)
