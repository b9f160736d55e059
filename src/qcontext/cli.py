"""Command-line workbench: build, check, search, dilate, audit, simulate.

Exit codes: 0 success/pass, 1 check failure, 2 usage or parse error, 3 for the
expected impossibility verdicts (hypergraph not colorable, one-to-one
extension infeasible).

Every usage error, argparse's own included, is a ``UsageError`` that ``main``
prints as one ``qcontext: error:`` line, with exit 2; only ``-h`` exits by
``SystemExit``. Flag values are checked where argparse parses them, by their
``type=`` or ``choices`` (``--format csv`` is a ``simulate`` flag only).

Each handler imports the modules it uses. The module itself imports only the
standard library and ``tables``, and checks ``--model``, ``--context`` and
``--samples`` against ``tables`` before any family is built. Only ``hv``
imports numpy, inside its sampling functions, so only ``simulate`` loads it:
every other command works on qubit operators as four complex entries, and
the usage errors never reach a layer.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .tables import MAX_SAMPLES, MODEL_CONTEXTS, check_int

if TYPE_CHECKING:  # imported for real inside the handlers
    from .bloch import BlochVector
    from .povm import PovmFamily

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_IMPOSSIBLE = 3


class UsageError(Exception):
    """A bad command line; ``main`` prints it as one line and returns 2."""


class _Parser(argparse.ArgumentParser):
    """Raises argparse's errors as ``UsageError``; subparsers share the class."""

    def error(self, message):
        raise UsageError(message)


def _bounded_int(name: str, low: int, high: float = float("inf")):
    """An argparse type: an int in [low, high]. argparse does not catch the
    ``UsageError``, so the message carries no "argument --flag:" prefix."""

    def parse(text: str) -> int:
        value = int(text)  # its ValueError reaches argparse as "invalid int value"
        try:
            return check_int(name, value, low, high)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc

    parse.__name__ = "int"  # argparse names it in "invalid int value: ..."
    return parse


def _load_model(name: str) -> PovmFamily:
    from .povm import cabello_family, nakamura_family

    return nakamura_family() if name == "nakamura" else cabello_family()


def _parse_state(text: str) -> BlochVector:
    parts = text.split(",")
    if len(parts) != 3:
        raise UsageError(f"state must be three comma-separated numbers, got {text!r}")
    try:
        x, y, z = (float(p) for p in parts)
    except ValueError as exc:
        raise UsageError(f"unparseable state component in {text!r}") from exc
    from .bloch import BlochVector

    try:
        return BlochVector.normalized(x, y, z)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _context_index(model: str, context: int) -> int:
    count = len(MODEL_CONTEXTS[model])
    if not 1 <= context <= count:
        raise UsageError(f"context must be in 1..{count} for {model}, got {context}")
    return context - 1


def _emit(text: str, out: str | None) -> None:
    if out:
        try:
            Path(out).write_text(text)
        except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
            raise UsageError(f"cannot write --out: {exc}") from exc
    else:
        sys.stdout.write(text)


def _emit_json(payload: dict, out: str | None) -> None:
    _emit(json.dumps(payload, indent=2) + "\n", out)


def _config(args, *flags: str) -> dict:
    """The echoed command line: the command, the named flags, format and out."""
    names = ("model", *flags, "format", "out")
    return {"command": args.command, **{name: getattr(args, name) for name in names}}


def _require_one_source(args, path: str | None, flag: str) -> None:
    """Refuse a command line that names no source, or both ``--model`` and the
    file flag: neither would be silently ignored."""
    if args.model is not None and path is not None:
        raise UsageError(f"{args.command} takes --model or {flag}, not both")
    if not (args.model or path):
        raise UsageError(f"{args.command} requires --model or {flag}")


def cmd_family(args) -> int:
    family = _load_model(args.model)
    _emit_json({"config": _config(args), "family": family.to_dict()}, args.out)
    return EXIT_OK


def cmd_check(args) -> int:
    _require_one_source(args, args.family_file, "--family-file")
    from .bloch import ATOL, hermitian_min_eigenvalue
    from .povm import PovmFamily, check_completeness

    config = _config(args, "family_file")
    if args.model:
        family = _load_model(args.model)
    else:
        try:
            text = sys.stdin.read() if args.family_file == "-" else Path(args.family_file).read_text()
            # json raises RecursionError on a document nested too deeply.
            doc = json.loads(text)
            # Also accept the whole output of `qcontext family`: config plus family.
            if isinstance(doc, dict) and "elements" not in doc and "family" in doc:
                doc = doc["family"]
            family = PovmFamily.from_dict(doc)
        except (OSError, ValueError, KeyError, TypeError, RecursionError) as exc:
            _emit_json({"config": config, "passed": False, "error": f"invalid family: {exc}"}, args.out)
            return EXIT_CHECK_FAILED

    completeness = [
        {"context": i + 1, "residual": check_completeness(context, family)}
        for i, context in enumerate(family.contexts)
    ]
    incidence = [
        {"label": label, "count": len(family.element_contexts(label))}
        for label in family.elements
    ]
    psd = [
        {"label": label, "min_eigenvalue": hermitian_min_eigenvalue(element.entries)}
        for label, element in family.elements.items()
    ]
    passed = (
        all(row["residual"] <= ATOL for row in completeness)
        and all(row["count"] == 2 for row in incidence)
        and all(row["min_eigenvalue"] >= -ATOL for row in psd)
    )
    payload = {
        "config": config,
        "family": family.name,
        "completeness": completeness,
        "incidence": incidence,
        "psd": psd,
        "passed": passed,
    }
    _emit_json(payload, args.out)
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def cmd_ks_search(args) -> int:
    _require_one_source(args, args.hypergraph, "--hypergraph")
    from .ks import ContextHypergraph, enumerate_assignments, parse_hypergraph

    config = _config(args, "hypergraph", "workers")
    if args.model:
        hypergraph = ContextHypergraph.from_contexts(MODEL_CONTEXTS[args.model])
    else:
        try:
            hypergraph = parse_hypergraph(Path(args.hypergraph).read_text())
        except (OSError, ValueError) as exc:
            raise UsageError(f"cannot parse hypergraph: {exc}") from exc
    try:
        verdict = enumerate_assignments(hypergraph, workers=args.workers)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    _emit_json({"config": config, "verdict": verdict.to_dict()}, args.out)
    return EXIT_OK if verdict.colorable else EXIT_IMPOSSIBLE


def cmd_simulate(args) -> int:
    context = _context_index(args.model, args.context)
    from .hv import Z_LIMIT, simulate_povm

    family = _load_model(args.model)
    state = args.state
    seed = args.seed
    if seed is None:
        import secrets  # imported here: it would cost every CLI start ~6 ms

        seed = secrets.randbits(64)
    config = {
        **_config(args, "context", "state", "samples", "seed", "workers"),
        "state": [state.x, state.y, state.z],
        "seed": seed,
    }
    report = simulate_povm(
        family, context, state, args.samples, seed, workers=args.workers
    )
    if args.format == "csv":
        lines = [f"# {key}={value}" for key, value in config.items()]
        _emit("\n".join(lines) + "\n" + report.to_csv(), args.out)
    else:
        _emit_json({"config": config, "report": report.to_dict()}, args.out)
    return EXIT_OK if max(abs(z) for z in report.z_scores) <= Z_LIMIT else EXIT_CHECK_FAILED


def cmd_dilate(args) -> int:
    if args.context is None:
        indices = range(len(MODEL_CONTEXTS[args.model]))
    else:
        indices = [_context_index(args.model, args.context)]
    from .dilation import sequential_dilation, verify_dilation

    family = _load_model(args.model)
    config = _config(args, "context")
    reports = [
        verify_dilation(sequential_dilation(family, i), family, i) for i in indices
    ]
    passed = all(report.passed() for report in reports)
    payload = {
        "config": config,
        "family": family.name,
        "reports": [report.to_dict() for report in reports],
        "passed": passed,
    }
    _emit_json(payload, args.out)
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def cmd_audit(args) -> int:
    from .dilation import extension_audit, sequential_dilation

    family = _load_model(args.model)
    config = _config(args)
    schemes = [sequential_dilation(family, i) for i in range(len(family.contexts))]
    entries = extension_audit(family, schemes)
    payload = {
        "config": config,
        "family": family.name,
        "entries": [entry.to_dict() for entry in entries],
        "mismatched": sum(not entry.equal for entry in entries),
    }
    _emit_json(payload, args.out)
    return EXIT_OK


def cmd_feasibility(args) -> int:
    from .dilation import one_to_one_feasibility

    family = _load_model(args.model)
    certificate = one_to_one_feasibility(family)
    if certificate is None:
        verdict = {"family": family.name, "verdict": "feasible", "element": None, "steps": []}
    else:
        verdict = certificate.to_dict()
    _emit_json({"config": _config(args), **verdict}, args.out)
    return EXIT_OK if certificate is None else EXIT_IMPOSSIBLE


def _add_common(parser, model_required=True, formats=("json",), workers_help=None):
    parser.add_argument(
        "--model", choices=list(MODEL_CONTEXTS), required=model_required,
        help="built-in measurement family",
    )
    parser.add_argument("--format", choices=formats, default="json")
    parser.add_argument("--out", metavar="PATH", default=None, help="write output to PATH")
    if workers_help:
        parser.add_argument(
            "--workers", type=_bounded_int("workers", 1), default=1, help=workers_help
        )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qcontext",
        description="Single-qubit POVM contextuality workbench",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("family", help="emit a measurement family as JSON")
    _add_common(p)
    p.set_defaults(handler=cmd_family)

    p = sub.add_parser("check", help="validate completeness, incidence, and positivity")
    _add_common(p, model_required=False)
    p.add_argument("--family-file", metavar="PATH", default=None,
                   help="family JSON to check instead of a built-in model ('-' reads stdin)")
    p.set_defaults(handler=cmd_check)

    p = sub.add_parser("ks-search", help="count and find valid 0/1 assignments (exact cover)")
    _add_common(p, model_required=False, workers_help="accepted for compatibility; has no effect")
    p.add_argument("--hypergraph", metavar="PATH", default=None,
                   help="hypergraph text file (one context per line, comma-separated labels)")
    p.set_defaults(handler=cmd_ks_search)

    p = sub.add_parser("simulate", help="hidden-variable Monte Carlo vs Born statistics")
    _add_common(p, formats=("json", "csv"), workers_help="parallel workers; never changes the output")
    p.add_argument("--context", type=int, required=True, help="context number, 1-based")
    p.add_argument("--state", type=_parse_state, default="0,0,1",
                   help="system direction x,y,z (normalized on ingest)")
    p.add_argument("--samples", type=_bounded_int("samples", 1, MAX_SAMPLES), default=1_000_000)
    p.add_argument("--seed", type=_bounded_int("seed", 0), default=None,
                   help="master seed (default: fresh entropy)")
    p.set_defaults(handler=cmd_simulate)

    p = sub.add_parser("dilate", help="build and verify sequential dilations")
    _add_common(p)
    p.add_argument("--context", type=int, default=None, help="context number, 1-based (default all)")
    p.set_defaults(handler=cmd_dilate)

    p = sub.add_parser("audit", help="compare extended projectors across contexts")
    _add_common(p)
    p.set_defaults(handler=cmd_audit)

    p = sub.add_parser("feasibility", help="one-to-one extension feasibility verdict")
    _add_common(p)
    p.set_defaults(handler=cmd_feasibility)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.handler(args)
    except UsageError as exc:
        # Raw argv can reach the message (argparse's "unrecognized arguments").
        print("qcontext: error:", " ".join(str(exc).splitlines()), file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
