"""The four benchmark workloads: op streams, execution and output checks.

Every workload turns ``--seed`` into an endless stream of operations whose
kind and size follow a fixed cycle, so any two runs see the same mix and only
the seeded details differ. ``execute`` is the timed part; ``check`` and the
references it uses run outside the timer. ``key`` is the byte string compared
between the workers=1 and workers=2 executions of one operation.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
import subprocess
import sys
from dataclasses import dataclass, field

import numpy as np

import ksref

#: Residual tolerance of the acceptance suite for closed-form algebra.
ATOL = 1e-12
#: Acceptance rule for Monte Carlo statistics: max |z| <= 5, one fresh-seed retry.
Z_LIMIT = 5.0
#: Mask keeping derived seeds non-negative and below 2^63.
SEED_MASK = (1 << 63) - 1


@dataclass
class Op:
    index: int
    kind: str
    args: dict
    #: Per-layer bookkeeping: ``samples`` for hv calls, ``assignments`` (2^n)
    #: for ks calls.
    info: dict = field(default_factory=dict)


def _unit(x: float, y: float, z: float) -> tuple[float, float, float]:
    norm = math.sqrt(x * x + y * y + z * z)
    return (x / norm, y / norm, z / norm)


def random_state(rng: random.Random) -> tuple[float, float, float]:
    """One of the three axes a quarter of the time, else uniform on the sphere."""
    if rng.random() < 0.25:
        return ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))[rng.randrange(3)]
    return _unit(rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1))


def grid_direction(rng: random.Random) -> tuple[float, float, float]:
    """A direction on the 15-degree polar/azimuth grid."""
    theta = rng.randrange(13) * math.pi / 12
    phi = rng.randrange(24) * math.pi / 12
    return _unit(math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta))


def _dot(a, b) -> float:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _direction(element) -> tuple[float, float, float]:
    d = element.direction
    return (d.x, d.y, d.z)


def z_score(count: int, samples: int, p: float) -> float:
    freq = count / samples
    if 0.0 < p < 1.0:
        return (freq - p) * math.sqrt(samples / (p * (1.0 - p)))
    return 0.0 if freq == p else math.inf


def retry_seed(seed: int) -> int:
    return (seed ^ 0x9E3779B97F4A7C15) & SEED_MASK


def born_values(family, context_index: int, n) -> list[float]:
    """Closed-form Born values weight * (1 + n.v) / 2 of one context."""
    return [
        float(family.elements[label].weight) * (1.0 + _dot(n, _direction(family.elements[label]))) / 2
        for label in family.contexts[context_index]
    ]


def simulation_problem(counts, samples: int, born) -> str | None:
    """Reason the sample counts fail the acceptance checks, or None."""
    if sum(counts) != samples:
        return f"counts sum to {sum(counts)}, expected {samples}"
    worst = max(abs(z_score(c, samples, p)) for c, p in zip(counts, born))
    if worst > Z_LIMIT:
        return f"max |z| = {worst:.2f} > {Z_LIMIT}"
    return None


def verdict_problem(verdict: dict, elements, contexts, reference) -> str | None:
    """Compare a ``ColorabilityVerdict.to_dict()`` with the reference."""
    valid, witness, parity = reference
    if verdict["total_assignments"] != 1 << len(elements):
        return f"total_assignments {verdict['total_assignments']} != 2^{len(elements)}"
    if verdict["valid_count"] != valid:
        return f"valid_count {verdict['valid_count']} != reference {valid}"
    if verdict["colorable"] != (valid > 0):
        return f"colorable={verdict['colorable']} with {valid} valid assignments"
    if verdict["witness"] != witness:
        return "witness is not the lexicographically smallest valid assignment"
    if witness is not None and any(sum(witness[label] for label in c) != 1 for c in contexts):
        return "witness leaves a context without exactly one 1"
    if (verdict["obstruction"] is not None) != parity:
        return f"obstruction {'missing' if parity else 'reported'} where the parity rule {'applies' if parity else 'does not apply'}"
    return None


class LibraryWorkload:
    """Shared machinery for the in-process workloads."""

    inprocess = False

    def __init__(self, env):
        self.env = env
        self.q = env.q

    def execute_traced(self, op: Op, workers: int):
        return self.execute(op, workers)

    def _simulate(self, op: Op, workers: int, seed: int | None = None):
        a = op.args
        return self.q.simulate_povm(
            a["family"], a["context"], self.q.BlochVector(*a["state"]), a["samples"],
            a["seed"] if seed is None else seed, workers=workers,
        )

    def _check_simulation(self, op: Op, report) -> str | None:
        a = op.args
        if report.samples != a["samples"]:
            return f"report samples {report.samples} != {a['samples']}"
        if not report.frequencies_sum_to_one():
            return "frequencies do not sum to one"
        born = born_values(a["family"], a["context"], a["state"])
        if max(abs(x - y) for x, y in zip(report.born, born)) > ATOL:
            return "Born values differ from weight * (1 + n.v) / 2"
        problem = simulation_problem(report.counts, a["samples"], born)
        if problem and problem.startswith("max |z|"):
            retry = self._simulate(op, 1, seed=retry_seed(a["seed"]))
            problem = simulation_problem(retry.counts, a["samples"], born)
            if problem:
                problem = f"after a fresh-seed retry: {problem}"
        return problem

    def _check_marginal(self, op: Op, estimate: float) -> str | None:
        a = op.args
        p = (1.0 + _dot(a["n"], a["v"])) / 2
        hits = round(estimate * a["samples"])
        problem = simulation_problem([hits, a["samples"] - hits], a["samples"], [p, 1 - p])
        if problem:
            retry = self.q.bell_marginal_estimate(
                self.q.BlochVector(*a["n"]), self.q.BlochVector(*a["v"]), a["samples"],
                retry_seed(a["seed"]),
            )
            hits = round(retry * a["samples"])
            problem = simulation_problem([hits, a["samples"] - hits], a["samples"], [p, 1 - p])
            if problem:
                problem = f"after a fresh-seed retry: {problem}"
        return problem


class McBulk(LibraryWorkload):
    """Multi-shard Monte Carlo: ~4e6-sample ``simulate_povm`` over every
    context of both families; every fifth op is ``bell_marginal_estimate``."""

    name = "mc_bulk"

    def ops(self, seed: int):
        rng = random.Random(seed)
        families = (self.env.families["cabello"], self.env.families["nakamura"])
        povm_count = 0
        for k in itertools.count():
            samples = rng.randint(3_900_000, 4_100_000)
            op_seed = rng.getrandbits(63)
            if k % 5 == 4:
                args = dict(n=grid_direction(rng), v=grid_direction(rng), samples=samples, seed=op_seed)
                yield Op(k, "bell_marginal_estimate", args, {"samples": samples})
                continue
            family = families[povm_count % 2]
            povm_count += 1
            args = dict(
                family=family, context=rng.randrange(len(family.contexts)),
                state=random_state(rng), samples=samples, seed=op_seed,
            )
            yield Op(k, "simulate_povm", args, {"samples": samples})

    def execute(self, op: Op, workers: int):
        if op.kind == "simulate_povm":
            return self._simulate(op, workers)
        a = op.args
        return self.q.bell_marginal_estimate(
            self.q.BlochVector(*a["n"]), self.q.BlochVector(*a["v"]), a["samples"], a["seed"],
            workers=workers,
        )

    def key(self, op: Op, result) -> bytes:
        return (result.to_json() if op.kind == "simulate_povm" else repr(result)).encode()

    def check(self, op: Op, result) -> str | None:
        if op.kind == "simulate_povm":
            return self._check_simulation(op, result)
        return self._check_marginal(op, result)


SIGMA = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

API_KINDS = (
    "simulate_povm",
    "noncontextual_value_map",
    "born_probability",
    "check_completeness",
    "dilation",
    "extension_audit",
    "feasibility",
    "enumerate_assignments",
    "enumerate_assignments",
)


class ApiSmall(LibraryWorkload):
    """Sub-millisecond library calls in a fixed cycle of kinds. The cycle has
    nine entries (``enumerate_assignments`` twice) so the median latency falls
    inside one kind's range, not on the boundary between two."""

    name = "api_small"

    def __init__(self, env):
        super().__init__(env)
        #: One-context restrictions of each family, for the feasibility ops.
        self.restricted = {
            name: [f.restrict([i]) for i in range(len(f.contexts))] for name, f in env.families.items()
        }

    def ops(self, seed: int):
        rng = random.Random(seed)
        names = ("cabello", "nakamura")
        for k in itertools.count():
            kind = API_KINDS[k % len(API_KINDS)]
            cycle = k // len(API_KINDS)
            family = self.env.families[names[cycle % 2]]
            ctx = rng.randrange(len(family.contexts))
            info: dict = {}
            if kind == "simulate_povm":
                samples = rng.randint(1_000, 10_000)
                args = dict(family=family, context=ctx, state=random_state(rng), samples=samples,
                            seed=rng.getrandbits(63))
                info["samples"] = samples
            elif kind == "noncontextual_value_map":
                args = dict(family=family, lam=rng.randrange(len(family.contexts[0]) // 2),
                            m=_unit(rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1)),
                            n=random_state(rng))
            elif kind == "born_probability":
                n = random_state(rng)
                label = rng.choice(sorted(family.elements))
                rho = (np.eye(2) + n[0] * SIGMA[0] + n[1] * SIGMA[1] + n[2] * SIGMA[2]) / 2
                args = dict(family=family, label=label, n=n, rho=rho)
            elif kind == "feasibility":
                restrict = cycle % 4 >= 2
                target = self.restricted[family.name][ctx] if restrict else family
                args = dict(family=target, expect_certificate=not restrict)
            elif kind == "enumerate_assignments":
                n_elements = rng.randint(6, 12)
                elements, contexts = ksref.random_hypergraph(rng, n_elements, ksref.KINDS[k % 4])
                args = dict(elements=elements, contexts=contexts,
                            reference=ksref.reference_verdict(elements, contexts))
                info.update(assignments=1 << n_elements, valid=args["reference"][0])
            else:
                args = dict(family=family, context=ctx)
            yield Op(k, kind, args, info)

    def execute(self, op: Op, workers: int):
        q, a = self.q, op.args
        kind = op.kind
        if kind == "simulate_povm":
            return self._simulate(op, workers)
        if kind == "noncontextual_value_map":
            hidden = q.HiddenVariable(a["lam"], q.BlochVector(*a["m"]))
            return q.noncontextual_value_map(hidden, a["family"], q.BlochVector(*a["n"]))
        if kind == "born_probability":
            return q.born_probability(a["rho"], a["family"].elements[a["label"]])
        if kind == "check_completeness":
            return q.check_completeness(a["family"].contexts[a["context"]], a["family"])
        if kind == "dilation":
            scheme = q.sequential_dilation(a["family"], a["context"])
            return q.verify_dilation(scheme, a["family"], a["context"])
        if kind == "extension_audit":
            family = a["family"]
            schemes = [q.sequential_dilation(family, i) for i in range(len(family.contexts))]
            return q.extension_audit(family, schemes)
        if kind == "feasibility":
            certificate = q.one_to_one_feasibility(a["family"])
            if certificate is not None:
                q.validate_certificate(certificate, a["family"])
            return certificate
        hypergraph = q.ContextHypergraph(elements=a["elements"], contexts=a["contexts"])
        return q.enumerate_assignments(hypergraph, workers=workers)

    def key(self, op: Op, result) -> bytes:
        kind = op.kind
        if kind == "simulate_povm":
            return result.to_json().encode()
        if kind in ("born_probability", "check_completeness"):
            return repr(result).encode()
        if kind == "noncontextual_value_map":
            payload = result
        elif kind == "extension_audit":
            payload = [entry.to_dict() for entry in result]
        elif kind == "feasibility":
            payload = result.to_dict() if result is not None else None
        else:
            payload = result.to_dict()
        return json.dumps(payload, sort_keys=True).encode()

    def check(self, op: Op, result) -> str | None:
        a = op.args
        kind = op.kind
        if kind == "simulate_povm":
            return self._check_simulation(op, result)
        if kind == "noncontextual_value_map":
            return self._check_value_map(a, result)
        if kind == "born_probability":
            element = a["family"].elements[a["label"]]
            expected = float(element.weight) * (1.0 + _dot(a["n"], _direction(element))) / 2
            return None if abs(result - expected) <= ATOL else f"Born value off by {abs(result - expected):.3g}"
        if kind == "check_completeness":
            return None if result <= ATOL else f"completeness residual {result:.3g} > {ATOL}"
        if kind == "dilation":
            worst = result.max_residual
            return None if worst <= ATOL else f"dilation residual {worst:.3g} > {ATOL}"
        if kind == "extension_audit":
            return self._check_audit(a["family"], result)
        if kind == "feasibility":
            if (result is not None) != a["expect_certificate"]:
                return f"{a['family'].name}: expected {'a certificate' if a['expect_certificate'] else 'feasible'}"
            return None
        return verdict_problem(result.to_dict(), a["elements"], a["contexts"], a["reference"])

    @staticmethod
    def _check_value_map(a, result) -> str | None:
        family = a["family"]
        for i, (context, assignment) in enumerate(zip(family.contexts, result)):
            plus, minus = context[2 * a["lam"]], context[2 * a["lam"] + 1]
            v = _direction(family.elements[plus])
            shifted = [m + n for m, n in zip(a["m"], a["n"])]
            fired = plus if _dot(shifted, v) > 0 else minus
            if assignment != {label: int(label == fired) for label in context}:
                return f"context {i + 1}: value map does not fire {fired!r} alone"
        if len(result) != len(family.contexts):
            return "value map does not cover every context"
        return None

    @staticmethod
    def _check_audit(family, entries) -> str | None:
        def slot(label, context_index):
            return family.contexts[context_index].index(label) // 2

        expected = sum(
            math.comb(sum(label in c for c in family.contexts), 2) for label in family.elements
        )
        if len(entries) != expected:
            return f"{len(entries)} audit entries, expected {expected}"
        for entry in entries:
            i, j = entry.context_indices
            same_slot = slot(entry.label, i) == slot(entry.label, j)
            if entry.equal != same_slot or entry.equal != (entry.max_difference <= ATOL):
                return f"audit entry {entry.label} {entry.context_indices}: equal={entry.equal}"
        return None


#: One cycle of ks_scan hypergraph sizes: 2^24 and 2^20 sit on either side of
#: the worker-pool crossover; "cabello" is the built-in 20-element hypergraph.
KS_SIZES = (24, 20, 24, 20, 18, 24, 20, 24, "cabello", 18)
#: Context count per generator kind. The scan's cost grows with the number of
#: contexts, so it is fixed to keep every seed's stream equally heavy.
KS_CONTEXTS = {"parity": 5, "planted": 6, "random": 6, "even": 6}


class KsScan(LibraryWorkload):
    """``enumerate_assignments`` on seeded 18-24 element hypergraphs."""

    name = "ks_scan"

    def ops(self, seed: int):
        rng = random.Random(seed)
        cabello = self.env.families["cabello"].contexts
        cabello_elements = ksref.text_elements(cabello)
        cabello_reference = ksref.reference_verdict(cabello_elements, cabello)
        for k in itertools.count():
            size = KS_SIZES[k % len(KS_SIZES)]
            if size == "cabello":
                elements, contexts, reference = cabello_elements, cabello, cabello_reference
                kind = "cabello"
            else:
                kind = ksref.KINDS[k % len(ksref.KINDS)]
                elements, contexts = ksref.random_hypergraph(rng, size, kind, KS_CONTEXTS[kind])
                reference = ksref.reference_verdict(elements, contexts)
            args = dict(elements=elements, contexts=contexts, reference=reference)
            info = {"assignments": 1 << len(elements), "valid": reference[0]}
            yield Op(k, f"ks_{kind}_{len(elements)}", args, info)

    def execute(self, op: Op, workers: int):
        a = op.args
        hypergraph = self.q.ContextHypergraph(elements=a["elements"], contexts=a["contexts"])
        return self.q.enumerate_assignments(hypergraph, workers=workers)

    def key(self, op: Op, result) -> bytes:
        return json.dumps(result.to_dict(), sort_keys=True).encode()

    def check(self, op: Op, result) -> str | None:
        a = op.args
        return verdict_problem(result.to_dict(), a["elements"], a["contexts"], a["reference"])


#: Command templates of one cli_session model round, after the README list.
CLI_COMMANDS = (
    "family", "check-model", "check-file", "check-stdin", "ks-model", "ks-hypergraph",
    "simulate-json", "simulate-csv", "dilate", "audit", "feasibility", "usage-error",
)
#: Documented usage errors, one per model round in rotation (exit code 2).
CLI_ERRORS = (
    ("--context", "99"),
    ("--state", "north,0,1"),
    ("--samples", "0"),
)
CLI_SCHEMAS = {
    "family": "family", "check": "check", "ks-search": "ks", "simulate": "simulation",
    "dilate": "dilation", "audit": "audit", "feasibility": "certificate",
}


class CliSession:
    """Sequential ``python -m qcontext.cli`` invocations of the README list."""

    name = "cli_session"
    inprocess = True

    def __init__(self, env):
        self.env = env
        self.references = {
            name: ksref.reference_verdict(ksref.text_elements(f.contexts), f.contexts)
            for name, f in env.families.items()
        }
        self.family_text = {}
        for model in ("nakamura", "cabello"):
            code, out, err = self._subprocess(["family", "--model", model], None)
            if code != 0:
                raise RuntimeError(f"set-up: family --model {model} exited {code}: {err.strip()}")
            text = json.dumps(json.loads(out)["family"], indent=2)
            path = env.work / f"{model}.family.json"
            path.write_text(text)
            self.family_text[model] = (str(path), text)

    def ops(self, seed: int):
        rng = random.Random(seed)
        for k in itertools.count():
            command = CLI_COMMANDS[k % len(CLI_COMMANDS)]
            model = ("nakamura", "cabello")[(k // len(CLI_COMMANDS)) % 2]
            stdin = None
            info: dict = {}
            expect: dict = {"code": 0}
            workers = False
            if command in ("family", "dilate", "audit", "feasibility"):
                argv = [command, "--model", model]
                if command == "feasibility":
                    expect["code"] = 3
            elif command == "check-model":
                argv = ["check", "--model", model]
            elif command == "check-file":
                argv = ["check", "--family-file", self.family_text[model][0]]
            elif command == "check-stdin":
                argv = ["check", "--family-file", "-"]
                stdin = self.family_text[model][1]
            elif command == "ks-model":
                family = self.env.families[model]
                argv = ["ks-search", "--model", model]
                expect.update(code=3, elements=ksref.text_elements(family.contexts),
                              contexts=family.contexts, reference=self.references[model])
                workers = True
                info.update(assignments=1 << len(expect["elements"]), valid=expect["reference"][0])
            elif command == "ks-hypergraph":
                elements, contexts = ksref.random_hypergraph(
                    rng, rng.randint(8, 16), ksref.KINDS[(k // len(CLI_COMMANDS)) % len(ksref.KINDS)]
                )
                path = self.env.work / f"hypergraph-{k}.txt"
                path.write_text(ksref.hypergraph_text(contexts))
                elements = ksref.text_elements(contexts)
                reference = ksref.reference_verdict(elements, contexts)
                argv = ["ks-search", "--hypergraph", str(path)]
                expect.update(code=0 if reference[0] else 3, elements=elements,
                              contexts=contexts, reference=reference)
                workers = True
                info.update(assignments=1 << len(elements), valid=reference[0])
            elif command.startswith("simulate"):
                family = self.env.families[model]
                context = rng.randrange(len(family.contexts))
                state = random_state(rng)
                argv = [
                    "simulate", "--model", model, "--context", str(context + 1),
                    "--state=" + ",".join(repr(c) for c in state), "--samples", "100000",
                    "--seed", str(rng.getrandbits(63)),
                ]
                if command == "simulate-csv":
                    argv += ["--format", "csv"]
                expect.update(born=born_values(family, context, state), samples=100_000)
                workers = True
                info["samples"] = 100_000
            else:
                flag, value = CLI_ERRORS[(k // len(CLI_COMMANDS)) % len(CLI_ERRORS)]
                argv = ["simulate", "--model", model, "--context", "1", "--samples", "1000",
                        "--seed", "1"]
                if flag in argv:
                    argv[argv.index(flag) + 1] = value
                else:
                    argv += [flag, value]
                expect["code"] = 2
            yield Op(k, command, dict(argv=argv, stdin=stdin, expect=expect, workers=workers), info)

    def _argv(self, op: Op, workers: int) -> list[str]:
        argv = op.args["argv"]
        return argv + ["--workers", str(workers)] if op.args["workers"] and workers > 1 else argv

    def _subprocess(self, argv, stdin):
        proc = subprocess.run(
            [sys.executable, "-m", "qcontext.cli", *argv],
            input=stdin, capture_output=True, text=True, env=self.env.child_env,
            cwd=self.env.work, timeout=120,
        )
        return proc.returncode, proc.stdout, proc.stderr

    def execute(self, op: Op, workers: int):
        return self._subprocess(self._argv(op, workers), op.args["stdin"])

    def execute_traced(self, op: Op, workers: int):
        """Run the same argv through ``cli.main`` in this process."""
        out, err = io.StringIO(), io.StringIO()
        stdin = io.StringIO(op.args["stdin"] or "")
        saved_stdin = sys.stdin
        sys.stdin = stdin
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = self.env.cli.main(self._argv(op, workers))
                except SystemExit as exc:
                    code = exc.code
        finally:
            sys.stdin = saved_stdin
        return code, out.getvalue(), err.getvalue()

    def key(self, op: Op, result) -> bytes:
        """Exit code and output with the echoed worker count removed."""
        code, out, err = result
        if op.args["workers"] and code != 2:
            if op.kind == "simulate-csv":
                out = "".join(line for line in out.splitlines(True) if not line.startswith("# workers="))
            else:
                with contextlib.suppress(ValueError, KeyError, TypeError, AttributeError):
                    doc = json.loads(out)
                    doc["config"].pop("workers", None)
                    out = json.dumps(doc, sort_keys=True)
        return json.dumps([code, out, err]).encode()

    def check(self, op: Op, result) -> str | None:
        code, out, err = result
        expect = op.args["expect"]
        argv = op.args["argv"]
        if expect["code"] == 2:
            if code != 2:
                return f"usage error exited {code}, expected 2"
            if out or not err.endswith("\n") or err.count("\n") != 1:
                return f"usage error output is not one stderr line: {err!r}"
            return None
        if op.kind.startswith("simulate"):
            return self._check_simulate(op, code, out)
        if code != expect["code"]:
            return f"exit code {code}, expected {expect['code']}: {err.strip()[-200:]}"
        doc = json.loads(out)
        problem = self.env.schema_problem(CLI_SCHEMAS[argv[0]], doc)
        if problem:
            return problem
        if argv[0] in ("check", "dilate") and doc["passed"] is not True:
            return f"{argv[0]} reported passed={doc['passed']}"
        if argv[0] == "feasibility" and doc["verdict"] != "contradiction":
            return f"feasibility verdict {doc['verdict']!r}, expected a contradiction"
        if argv[0] == "ks-search":
            return verdict_problem(doc["verdict"], expect["elements"], expect["contexts"], expect["reference"])
        return None

    def _check_simulate(self, op: Op, code, out) -> str | None:
        expect = op.args["expect"]
        if code not in (0, 1):
            return f"simulate exited {code}"
        if op.kind == "simulate-csv":
            rows = [line.split(",") for line in out.splitlines() if not line.startswith("#")]
            if rows[0] != ["label", "count", "frequency", "born", "zscore"]:
                return f"unexpected CSV header {rows[0]!r}"
            counts = [int(row[1]) for row in rows[1:]]
        else:
            doc = json.loads(out)
            problem = self.env.schema_problem("simulation", doc)
            if problem:
                return problem
            counts = [row["count"] for row in doc["report"]["rows"]]
        problem = simulation_problem(counts, expect["samples"], expect["born"])
        if (problem is None) != (code == 0):
            return f"exit code {code} does not match the z-score check ({problem})"
        if problem and problem.startswith("max |z|"):
            argv = list(op.args["argv"])
            seed_at = argv.index("--seed") + 1
            argv[seed_at] = str(retry_seed(int(argv[seed_at])))
            retry = Op(op.index, op.kind, dict(op.args, argv=argv))
            code, out, _ = self.execute(retry, 1)
            if code != 0:
                return f"after a fresh-seed retry: exit code {code}"
            return None
        return problem


WORKLOADS = {w.name: w for w in (McBulk, ApiSmall, KsScan, CliSession)}
