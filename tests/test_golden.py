"""Every golden case of ``tests/golden.py``, in-process and through the
console-script body in a fresh interpreter."""

import io

import pytest

from qcontext.cli import main

from golden import ROWS, mismatches, run_console_script

ROW_PARAMS = [pytest.param(row, id=row.id) for row in ROWS]


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


def test_row_ids_are_unique():
    assert len({row.id for row in ROWS}) == len(ROWS)
