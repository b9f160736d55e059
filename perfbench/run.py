"""qcontext benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload mc_bulk --seed 1 --seconds 25 --trace 0

Runs the workload's op stream for ``--seconds`` seconds. Each operation runs
at workers=1 and at workers=2 (alternating which goes first), both outputs
are checked and must be byte-identical. ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` runs the stream for half the time untraced, replays
the same operations with every public ``qcontext`` function wrapped in spans,
and prints the per-layer metrics. The last line of stdout is the result
object; the full result (metadata, failures, tail percentile) is written to
``perfbench/out/`` and checked against ``perfbench/result.schema.json``.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from array import array
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Environment of every child process: the checkout's sources come first.
CHILD_ENV = dict(os.environ, PYTHONPATH=str(SRC))

#: Fresh processes timed per run for ``setup_s`` and ``cli.import_s``. The
#: ``setup_s`` ones are spread evenly over the stream, so that their median
#: spans the run rather than one moment of the host's load.
SETUP_RUNS = 15
#: hv calls of at most this many samples fit one shard; their busy time per
#: call minus that of the shard kernel is ``hv.call_overhead_us``.
ONE_SHARD_SAMPLES = 100_000
#: A timing tail is the highest percentile with this many samples beyond it,
#: capped at TAIL_CAP: above p99 the host's scheduling stalls (1-13 ms, several
#: per 10 s on the 2-core box measured) set the value instead of the program.
TAIL_BEYOND = 10
TAIL_CAP = 0.99

SETUP_SNIPPET = (
    "import time; t = time.perf_counter(); import qcontext; "
    "qcontext.cabello_family(); qcontext.nakamura_family(); "
    "print(repr(time.perf_counter() - t))"
)
IMPORT_CLI_SNIPPET = (
    "import time; t = time.perf_counter(); import qcontext.cli; "
    "print(repr(time.perf_counter() - t))"
)

#: Layers whose calls, busy and self time are reported per traced execution...
SPAN_LAYERS = (
    "hv.simulate_povm", "hv.bell_marginal_estimate", "hv._povm_shard", "hv._marginal_shard",
    "hv.noncontextual_value_map",
    "povm.context_pairs", "povm.born_probability", "povm.check_completeness", "povm.from_json",
    "dilation.sequential_dilation", "dilation.verify_dilation", "dilation.extension_audit",
    "dilation.one_to_one_feasibility", "dilation.validate_certificate",
    "ks.enumerate_assignments", "ks.parse_hypergraph", "cli.main",
)
#: ...and per traced set-up (one build of both families).
SETUP_LAYERS = ("povm.cabello_family", "povm.nakamura_family", "bloch.dodecahedron_vertices")
HV_CALLS = ("hv.simulate_povm", "hv.bell_marginal_estimate")
#: Operation id of the spans of the traced family builds (set-up).
SETUP_OP = -1


class Env:
    """What the workloads share: the library, the families, the work dir."""

    def __init__(self, work: Path):
        import jsonschema
        import qcontext
        import qcontext.cli

        self.q = qcontext
        self.cli = qcontext.cli
        self.work = work
        self.child_env = CHILD_ENV
        self.families = {"cabello": qcontext.cabello_family(), "nakamura": qcontext.nakamura_family()}
        self._validators = {
            path.name.split(".")[0]: jsonschema.Draft202012Validator(json.loads(path.read_text()))
            for path in (ROOT / "schemas").glob("*.schema.json")
        }

    def schema_problem(self, name: str, doc) -> str | None:
        error = next(iter(self._validators[name].iter_errors(doc)), None)
        return None if error is None else f"{name}.schema.json: {error.message}"


def fresh_process_time(snippet: str) -> float:
    proc = subprocess.run(
        [sys.executable, "-c", snippet], capture_output=True, text=True,
        env=CHILD_ENV, cwd=ROOT, timeout=120, check=True,
    )
    return float(proc.stdout.strip())


@dataclass(slots=True)
class Execution:
    id: int
    op: int
    kind: str
    workers: int
    info: dict
    seconds: float = 0.0
    ok: bool = True


class Pass:
    """One pass: latencies per worker count, failures and, with ``keep``,
    every execution (the per-layer metrics need them; an untraced run keeps
    only latencies, so the benchmark's own heap stays small)."""

    def __init__(self, label: str, keep: bool):
        self.label = label
        self.keep = keep
        self.attempted = 0
        self.executions: list[Execution] = []
        self.seconds = {1: array("d"), 2: array("d")}
        self.failures: list[dict] = []

    def start(self, op, workers: int) -> Execution:
        execution = Execution(self.attempted, op.index, op.kind, workers, op.info)
        self.attempted += 1
        if self.keep:
            self.executions.append(execution)
        return execution

    def record(self, execution: Execution, seconds: float) -> None:
        execution.seconds = seconds
        self.seconds[execution.workers].append(seconds)

    def fail(self, execution: Execution, reason: str) -> None:
        if execution.ok:
            execution.ok = False
            self.failures.append({"op": execution.op, "kind": execution.kind, "workers": execution.workers,
                                  "pass": self.label, "reason": reason})



def _timed(fn, *args):
    start = time.perf_counter()
    try:
        result, error = fn(*args), None
    except Exception as exc:  # one failing op must not end the run
        result, error = None, f"{type(exc).__name__}: {exc}"
    return result, error, time.perf_counter() - start


def _worker_order(op) -> tuple[int, int]:
    return (1, 2) if op.index % 2 == 0 else (2, 1)


def run_stream(workload, ops, seconds: float, keep: bool,
               setup_times: list[float] | None = None) -> tuple[Pass, list, dict]:
    """Run ops at workers 1 and 2 for ``seconds``; check every output and
    compare the two worker counts. With ``keep``, also return the ops run and
    the output key of each (op index, workers) for a replay. With
    ``setup_times``, time SETUP_RUNS fresh-process set-ups into it, evenly
    spaced over the stream; the stream's clock stops while they run."""
    run = Pass("untraced", keep)
    done = []
    keys = {}
    setup_every = seconds / (SETUP_RUNS - 1)
    paused = 0.0
    start = time.perf_counter()
    for count, op in enumerate(ops):
        elapsed = time.perf_counter() - start - paused
        if setup_times is not None and elapsed >= len(setup_times) * setup_every:
            setup_times.append(fresh_process_time(SETUP_SNIPPET))
            paused = time.perf_counter() - start - elapsed
        if count and elapsed >= seconds:
            break
        pair = {}
        for workers in _worker_order(op):
            execution = run.start(op, workers)
            result, error, took = _timed(workload.execute, op, workers)
            run.record(execution, took)
            if error:
                run.fail(execution, error)
                continue
            pair[workers] = (execution, workload.key(op, result))
            problem = _guarded(workload.check, op, result)
            if problem:
                run.fail(execution, problem)
        if len(pair) == 2 and pair[1][1] != pair[2][1]:
            run.fail(pair[2][0], "output at workers=2 differs from workers=1")
        if keep:
            done.append(op)
            keys.update(((op.index, workers), key) for workers, (_, key) in pair.items())
    while setup_times is not None and len(setup_times) < SETUP_RUNS:
        setup_times.append(fresh_process_time(SETUP_SNIPPET))
    return run, done, keys


def replay(workload, ops, label: str, expected: dict, mismatch: str, tracer=None) -> tuple[Pass, dict]:
    """Re-run ``ops`` through ``workload.execute_traced`` (spans recorded
    when ``tracer`` is given) and compare each output with ``expected``."""
    run = Pass(label, keep=True)
    keys = {}
    for op in ops:
        for workers in _worker_order(op):
            execution = run.start(op, workers)
            if tracer is not None:
                tracer.op = execution.id
            result, error, seconds = _timed(workload.execute_traced, op, workers)
            run.record(execution, seconds)
            if tracer is not None:
                tracer.op = None
            if error:
                run.fail(execution, error)
                continue
            keys[(op.index, workers)] = workload.key(op, result)
            if keys[(op.index, workers)] != expected.get((op.index, workers)):
                run.fail(execution, mismatch)
    return run, keys


def _guarded(check, op, result):
    try:
        return check(op, result)
    except Exception as exc:  # a malformed output is a failed check
        return f"check raised {type(exc).__name__}: {exc}"


def tail(latencies) -> dict:
    """Nearest-rank percentile with TAIL_BEYOND samples beyond it, at most
    TAIL_CAP (the max when there are too few samples)."""
    ordered = sorted(latencies)
    n = len(ordered)
    rank = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    rank = min(rank, math.ceil(TAIL_CAP * n) - 1)
    return {"value": ordered[rank], "percentile": 100.0 * (rank + 1) / n,
            "beyond": n - rank - 1, "samples": n}


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def end_to_end(run: Pass, setup_times: list[float]) -> tuple[dict, dict]:
    w1, w2 = run.seconds[1], run.seconds[2]
    tail_w1 = tail(w1)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (len(w1) / sum(w1), "1/s"),
        "ops_per_s_w2": (len(w2) / sum(w2), "1/s"),
        "op_p50_s": (statistics.median(w1), "s"),
        "op_tail_s": (tail_w1["value"], "s"),
        "success_frac": (1.0 - len(run.failures) / run.attempted, "ratio"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return metrics, tail_w1


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator > 0 else 0.0


def per_layer(tracer, traced: Pass, untraced: Pass, baseline: Pass, import_times: list[float]) -> dict:
    """Span metrics of the traced pass, per traced execution so that runs of
    different length compare, and of the traced set-up, per build.
    ``baseline`` is the same operations run untraced the way the traced pass
    runs them (in-process for the CLI)."""
    metrics = {}
    for names, ops, count, unit in (
        (SPAN_LAYERS, {e.id for e in traced.executions}, len(traced.executions), "op"),
        (SETUP_LAYERS, {SETUP_OP}, SETUP_RUNS, "setup"),
    ):
        totals = tracer.aggregate(ops)
        for name in names:
            entry = totals.get(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            metrics[f"{name}.calls"] = (entry["calls"] / count, f"count/{unit}")
            metrics[f"{name}.busy_s"] = (entry["busy_s"] / count, f"s/{unit}")
            metrics[f"{name}.self_s"] = (entry["self_s"] / count, f"s/{unit}")

    def busy(names, workers, key):
        ops = {e.id for e in traced.executions if e.workers == workers and key in e.info}
        found = tracer.aggregate(ops)
        work = sum(e.info[key] for e in traced.executions if e.workers == workers and key in e.info)
        return work, sum(found.get(name, {"busy_s": 0.0})["busy_s"] for name in names)

    samples_w1, hv_busy_w1 = busy(HV_CALLS, 1, "samples")
    samples_w2, hv_busy_w2 = busy(HV_CALLS, 2, "samples")
    metrics["hv.samples_per_s_w1"] = (_ratio(samples_w1, hv_busy_w1), "1/s")
    metrics["hv.samples_per_s_w2"] = (_ratio(samples_w2, hv_busy_w2), "1/s")
    metrics["hv.parallel_speedup_w2"] = (_ratio(hv_busy_w1, hv_busy_w2), "ratio")

    small = tracer.aggregate(
        {e.id for e in traced.executions if 0 < e.info.get("samples", 0) <= ONE_SHARD_SAMPLES})
    if "hv.simulate_povm" in small:
        calls = small["hv.simulate_povm"]
        kernel = small.get("hv._povm_shard", {"busy_s": 0.0})
        overhead = (calls["busy_s"] - kernel["busy_s"]) / calls["calls"]
    else:
        overhead = 0.0
    metrics["hv.call_overhead_us"] = (overhead * 1e6, "us")

    ks = ("ks.enumerate_assignments",)
    assignments_w1, ks_busy_w1 = busy(ks, 1, "assignments")
    _, ks_busy_w2 = busy(ks, 2, "assignments")
    metrics["ks.assignments_per_s"] = (_ratio(assignments_w1, ks_busy_w1), "1/s")
    metrics["ks.parallel_speedup_w2"] = (_ratio(ks_busy_w1, ks_busy_w2), "ratio")
    valid = sum(e.info.get("valid", 0) for e in untraced.executions if e.workers == 1)
    attempted = sum(e.info.get("assignments", 0) for e in untraced.executions if e.workers == 1)
    metrics["ks.valid_fraction"] = (_ratio(valid, attempted), "ratio")

    metrics["cli.import_s"] = (statistics.median(import_times), "s")
    startup = [] if baseline is untraced else [
        sub.seconds - inproc.seconds for sub, inproc in zip(untraced.executions, baseline.executions)
    ]
    metrics["cli.startup_s"] = (statistics.median(startup) if startup else 0.0, "s")
    ratios = [t.seconds / b.seconds for t, b in zip(traced.executions, baseline.executions)]
    metrics["trace.overhead_frac"] = (statistics.median(ratios) - 1.0, "ratio")
    return metrics


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def metadata(seed: int) -> dict:
    import numpy

    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "platform": platform.platform(),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["mc_bulk", "api_small", "ks_scan", "cli_session"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", type=Path, default=HERE / "out", help="directory for result files")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qcontext" / "__init__.py").is_file():
        print(f"perfbench: no qcontext sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import qcontext

    if Path(qcontext.__file__).resolve().parent != (SRC / "qcontext").resolve():
        print(f"perfbench: imported qcontext from {qcontext.__file__}, not {SRC}", file=sys.stderr)
        return 2

    from tracer import Tracer
    from workloads import WORKLOADS

    args.out.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f"work-{args.workload}-", dir=args.out) as work:
        env = Env(Path(work))
        workload = WORKLOADS[args.workload](env)
        ops = workload.ops(args.seed)
        if args.trace == 0:
            setup_times: list[float] = []
            run, _, _ = run_stream(workload, ops, args.seconds, keep=False, setup_times=setup_times)
            runs = [run]
            metrics, tail_w1 = end_to_end(run, setup_times)
            extra = {"tail_w1": tail_w1, "setup_times_s": setup_times}
        else:
            import_times = [fresh_process_time(IMPORT_CLI_SNIPPET) for _ in range(SETUP_RUNS)]
            untraced, done, keys = run_stream(workload, ops, args.seconds / 2, keep=True)
            runs = [untraced]
            baseline = untraced
            if workload.inprocess:
                baseline, keys = replay(workload, done, "in-process", keys,
                                        "in-process cli.main output differs from the subprocess")
                runs.append(baseline)
            tracer = Tracer()
            tracer.install()
            try:
                tracer.op = SETUP_OP
                for _ in range(SETUP_RUNS):
                    qcontext.cabello_family()
                    qcontext.nakamura_family()
                tracer.op = None
                traced, _ = replay(workload, done, "traced", keys,
                                   "traced output differs from the untraced output", tracer)
            finally:
                tracer.uninstall()
            runs.append(traced)
            metrics = per_layer(tracer, traced, untraced, baseline, import_times)
            spans_path = args.out / f"{args.workload}-seed{args.seed}-spans.json.gz"
            tracer.write(spans_path)
            extra = {"spans_file": str(spans_path), "cli_import_times_s": import_times}

    attempted = sum(r.attempted for r in runs)
    failures = [f for r in runs for f in r.failures]
    result = {
        "benchmark": "qcontext-perfbench",
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "meta": metadata(args.seed),
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "failed_frac": len(failures) / attempted,
        "failures": failures,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        **extra,
    }
    _validate_result(result)
    path = args.out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=2) + "\n")

    for failure in failures:
        print(f"FAILED op {failure['op']} {failure['kind']} workers={failure['workers']} "
              f"({failure['pass']}): {failure['reason']}", file=sys.stderr)
    print(f"{args.workload}: attempted {attempted}, failed {len(failures)} "
          f"(failed_frac {result['failed_frac']:.6f}); result file {path}")
    if args.trace == 0:
        print(f"op_tail_s is the p{tail_w1['percentile']:.2f} of {tail_w1['samples']} "
              f"workers=1 latencies ({tail_w1['beyond']} beyond it)")
    for name, entry in result["metrics"].items():
        print(f"  {name} = {entry['value']!r} {entry['unit']}")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


def _validate_result(result: dict) -> None:
    import jsonschema

    schema = json.loads((HERE / "result.schema.json").read_text())
    jsonschema.validate(result, schema)


if __name__ == "__main__":
    sys.exit(main())
