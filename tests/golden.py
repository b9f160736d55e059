"""Every pinned CLI contract, as one table of golden cases.

A row is one command line and what it must give: the exit code, stdout
(a file in ``tests/pinned`` or nothing at all) and, for a usage error (exit
2), a fragment of its one ``qcontext: error:`` line. A pinned stdout also
matches its command's schema (``SCHEMAS``), and no run imports the modules
that ``blocked`` names for its row. An output change is pinned here and
nowhere else. ``tests/test_golden.py`` runs every row twice: in-process
through ``cli.main``, and in a fresh interpreter that runs the
console-script body, through ``run_probe``, with the blocked modules set to
None in ``sys.modules`` so that importing one is a traceback. It also
validates each pinned file against its schema.

This module imports only the standard library. Run as a script,
``python tests/golden.py`` runs every row that loads no numpy through
``run_console_script``, blocked imports included, on the running
interpreter, with no pytest, and exits 1 on the first failure.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

PINNED_DIR = Path(__file__).resolve().parent / "pinned"
SRC_DIR = Path(__file__).resolve().parent.parent / "src"

#: The body of the installed ``qcontext`` console script.
CONSOLE_SCRIPT = "import sys; from qcontext.cli import run; sys.exit(run())"

#: The schema in ``schemas/`` of each command's report.
SCHEMAS = {
    "family": "family",
    "check": "check",
    "ks-search": "ks",
    "simulate": "simulation",
    "dilate": "dilation",
    "audit": "audit",
    "feasibility": "certificate",
}

USAGE_PREFIX = "qcontext: error: "


class Row(NamedTuple):
    id: str
    argv: tuple
    code: int
    #: A file name in tests/pinned, or None: stdout must be empty.
    stdout: str | None = None
    #: For exit 2, a fragment of the error line after USAGE_PREFIX.
    stderr: str | None = None
    #: The working directory; None runs in an empty temporary directory.
    cwd: Path | None = None
    stdin: str = ""
    #: config keys left out when the output is compared with its file.
    ignore: tuple = ()


def _model_rows():
    # Each command on each built-in, against tests/pinned/<command>-<model>.json.
    for model in ("nakamura", "cabello"):
        for command in ("family", "check", "dilate", "audit", "feasibility", "ks-search"):
            name = command.removesuffix("-search")
            code = 3 if command in ("feasibility", "ks-search") else 0
            yield Row(f"{name}-{model}", (command, "--model", model), code, f"{name}-{model}.json")


SIMULATE = ("simulate", "--context", "2", "--samples", "300001", "--seed", "7")
USAGE_SIMULATE = ("simulate", "--model", "nakamura", "--context", "1", "--samples", "10")


def _usage(name, *argv, stderr):
    return Row(f"usage-{name}", argv, 2, stderr=stderr)


ROWS = (
    *_model_rows(),
    # config echoes the path as given, so it is given relative to the file.
    Row("ks-colorable", ("ks-search", "--hypergraph", "ks-colorable.txt"), 0,
        "ks-colorable.json", cwd=PINNED_DIR),
    # A family read from a file or stdin checks as the built-in does; only
    # the echoed source moves.
    Row("check-file-nakamura", ("check", "--family-file", "family-nakamura.json"), 0,
        "check-nakamura.json", cwd=PINNED_DIR, ignore=("model", "family_file")),
    *(Row(f"check-stdin-{model}", ("check", "--family-file", "-"), 0, f"check-{model}.json",
          stdin=(PINNED_DIR / f"family-{model}.json").read_text(), ignore=("model", "family_file"))
      for model in ("nakamura", "cabello")),
    # The report goes to --out: this row pins the exit code of an empty family.
    Row("check-empty-family-stdin", ("check", "--family-file", "-", "--out", os.devnull), 1,
        stdin='{"name": "x", "elements": [], "contexts": []}'),
    # 300001 samples span three shards, and the last one ends on a partial block.
    Row("simulate-nakamura", (*SIMULATE, "--model", "nakamura"), 0, "simulate-nakamura.json"),
    Row("simulate-cabello", (*SIMULATE, "--model", "cabello"), 0, "simulate-cabello.json"),
    # Two workers run the thread pool, and only the echoed worker count moves.
    Row("simulate-cabello-workers-2", (*SIMULATE, "--model", "cabello", "--workers", "2"), 0,
        "simulate-cabello.json", ignore=("workers",)),
    _usage("context-not-int", *USAGE_SIMULATE, "--context", "x", stderr="--context"),
    _usage("context-4", *USAGE_SIMULATE, "--context", "4",
           stderr="context must be in 1..3 for nakamura, got 4"),
    _usage("dilate-context-6", "dilate", "--model", "nakamura", "--context", "6",
           stderr="context must be in 1..3 for nakamura, got 6"),
    _usage("seed-negative", *USAGE_SIMULATE, "--seed", "-1", stderr="seed must be >= 0, got -1"),
    _usage("unknown-model", "family", "--model", "foo", stderr="--model"),
    _usage("workers-0", *USAGE_SIMULATE, "--workers", "0", stderr="workers must be >= 1"),
    _usage("samples-0", *USAGE_SIMULATE, "--samples", "0", stderr="samples must be >= 1"),
    # Refused while argv is parsed: no shard plan is built.
    _usage("samples-above-ceiling", *USAGE_SIMULATE, "--samples", "99999999999999999999",
           stderr="samples must be <= 4294967296, got 99999999999999999999"),
    _usage("state-looks-like-flag", *USAGE_SIMULATE, "--state", "-0.5,0,1", stderr="--state"),
    _usage("state-north", *USAGE_SIMULATE, "--state", "north,0,1", stderr="unparseable state"),
    *(_usage(f"state-{name}", *USAGE_SIMULATE, f"--state={state}", stderr="invalid direction")
      for name, state in (("zero", "0,0,0"), ("nan", "nan,0,1"), ("inf", "inf,0,1"))),
    _usage("check-no-source", "check", stderr="--model or --family-file"),
    _usage("ks-search-no-source", "ks-search", stderr="--model or --hypergraph"),
    # Neither file exists: the command line is refused before any read.
    _usage("check-both-sources", "check", "--family-file", "/nonexistent", "--model", "cabello",
           stderr="check takes --model or --family-file, not both"),
    _usage("ks-search-both-sources", "ks-search", "--hypergraph", "/nonexistent", "--model", "cabello",
           stderr="ks-search takes --model or --hypergraph, not both"),
    _usage("ks-search-empty-hypergraph", "ks-search", "--hypergraph", os.devnull,
           stderr="cannot parse hypergraph: no context line"),
    _usage("family-format-csv", "family", "--model", "nakamura", "--format", "csv", stderr="--format"),
    _usage("missing-required", "simulate", "--model", "nakamura", stderr="--context"),
    _usage("stray-arg", "family", "--model", "nakamura", "stray", stderr="unrecognized"),
    _usage("no-command", stderr="command"),
    _usage("out-no-dir", "family", "--model", "nakamura", "--out", "missing/out.json",
           stderr="cannot write --out: "),
    _usage("out-is-dir", "family", "--model", "nakamura", "--out", ".",
           stderr="cannot write --out: "),
    _usage("out-empty", "family", "--model", "nakamura", "--out", "",
           stderr="cannot write --out: empty path"),
    # A name longer than any file system allows fails only when written.
    _usage("out-name-too-long", "family", "--model", "nakamura", "--out", "x" * 300,
           stderr="cannot write --out: "),
    # Refused before any sampling: the run never imports numpy.
    _usage("simulate-out-no-dir", "simulate", "--model", "cabello", "--context", "1",
           "--samples", "4000000", "--seed", "1", "--out", "missing/out.json",
           stderr="cannot write --out: no directory 'missing'"),
)


def loads_numpy(row: Row) -> bool:
    """Only ``simulate`` loads numpy, and not when its command line is refused."""
    return row.argv[:1] == ("simulate",) and row.code != 2


def blocked(row: Row) -> tuple:
    """The modules a run of ``row`` must never import. Shards run on threads
    and the value types are plain classes; only ``ks-search`` decides
    colorability. numpy imports ``secrets`` itself, so a run that loads numpy
    cannot block it."""
    names = ("multiprocessing", "concurrent.futures.process", "dataclasses")
    if row.argv[:1] != ("ks-search",):
        names += ("qcontext.ks",)
    if not loads_numpy(row):
        names += ("numpy", "secrets", "concurrent.futures")
    return names


def _config_dropped(text: str, keys) -> dict:
    doc = json.loads(text)
    for key in keys:
        doc["config"].pop(key)
    return doc


def mismatches(row: Row, code: int, out: str, err: str) -> list:
    """What a run of ``row`` that gave ``code``, ``out`` and ``err`` got
    wrong, one line each; empty when it kept the contract."""
    problems = []
    if code != row.code:
        problems.append(f"exit code {code}, expected {row.code}")
    if row.stdout is None:
        if out:
            problems.append(f"stdout not empty: {out[:200]!r}")
    else:
        expected = (PINNED_DIR / row.stdout).read_text()
        if row.ignore:
            out, expected = (_config_dropped(text, row.ignore) for text in (out, expected))
        if out != expected:
            problems.append(f"stdout differs from {row.stdout}")
    if row.code == 2:
        lines = err.splitlines()
        if not (
            len(lines) == 1
            and lines[0].startswith(USAGE_PREFIX)
            and row.stderr in lines[0][len(USAGE_PREFIX):]
        ):
            problems.append(f"stderr is not one error line with {row.stderr!r}: {err!r}")
    elif err:
        problems.append(f"stderr not empty: {err[:200]!r}")
    return problems


def run_probe(code: str, *args: str, cwd=None, stdin: str = "") -> subprocess.CompletedProcess:
    """Run ``python -c code args...`` in a fresh interpreter that imports
    qcontext from this checkout, with ``stdin`` as its standard input."""
    path = [str(SRC_DIR), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env, cwd=cwd, input=stdin, capture_output=True, text=True,
    )


def run_console_script(row: Row, tmp_dir) -> list:
    """Run ``row`` through the console-script body in a fresh interpreter
    that first sets each of its blocked modules to None in ``sys.modules``."""
    block = "".join(f"sys.modules[{name!r}] = None; " for name in blocked(row))
    code = f"import sys; {block}{CONSOLE_SCRIPT}"
    proc = run_probe(code, *row.argv, cwd=row.cwd or tmp_dir, stdin=row.stdin)
    return mismatches(row, proc.returncode, proc.stdout, proc.stderr)


def main() -> int:
    rows = [row for row in ROWS if not loads_numpy(row)]
    for row in rows:
        with tempfile.TemporaryDirectory() as tmp_dir:
            problems = run_console_script(row, tmp_dir)
        if problems:
            print(f"FAIL {row.id}: " + "; ".join(problems))
            return 1
        print(f"ok {row.id}")
    print(f"{len(rows)} numpy-free rows passed on Python {sys.version.split()[0]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
