import io
import json

import jsonschema
import pytest

from qcontext import cabello_family, nakamura_family
from qcontext.cli import main

from conftest import load_schema, run_probe


def _malformed_families():
    missing_direction = nakamura_family().to_dict()
    del missing_direction["elements"][0]["direction"]
    contexts_string = nakamura_family().to_dict()
    contexts_string["contexts"] = "AB"
    # A weight this large once overflowed the completeness sum: the report
    # held "residual": Infinity, which is not JSON, and numpy warned on stderr.
    huge_weights = nakamura_family().to_dict()
    for element in huge_weights["elements"]:
        element["weight"] = 1e308
    return [
        pytest.param({"family": 3}, "expected a JSON object, got int", id="not-an-object"),
        pytest.param(
            missing_direction,
            "element 1 (A+): 'direction' must be a list of 3 finite numbers",
            id="missing-direction",
        ),
        pytest.param(
            contexts_string, "'contexts' must be a list of label lists", id="contexts-string"
        ),
        pytest.param(
            huge_weights, "element 'A+' must have weight at most 1", id="weight-above-one"
        ),
        pytest.param(
            {"name": "x", "elements": [], "contexts": []},
            "'contexts' must list at least one context",
            id="empty-family",
        ),
    ]


MALFORMED_FAMILIES = _malformed_families()


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


def usage_error_line(capsys, *argv):
    """Run a usage error: exit 2, nothing on stdout, one stderr line."""
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("qcontext: error: ")
    return lines[0]


class TestFamily:
    def test_unknown_model_exits_2(self, capsys):
        usage_error_line(capsys, "family", "--model", "foo")

    def test_out_writes_file(self, capsys, tmp_path):
        target = tmp_path / "family.json"
        code, out = run_cli(capsys, "family", "--model", "nakamura", "--out", str(target))
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["family"]["name"] == "nakamura"

    def test_csv_not_supported(self, capsys):
        code, _ = run_cli(capsys, "family", "--model", "nakamura", "--format", "csv")
        assert code == 2


class TestCheck:
    @pytest.mark.parametrize("model", ["nakamura", "cabello"])
    def test_models_pass(self, capsys, model):
        code, doc = run_json(capsys, "check", "--model", model)
        assert code == 0
        jsonschema.validate(doc, load_schema("check"))
        assert doc["passed"] is True
        assert all(row["residual"] <= 1e-12 for row in doc["completeness"])
        assert all(row["count"] == 2 for row in doc["incidence"])

    def test_family_file_round_trip(self, capsys, tmp_path):
        _, doc = run_json(capsys, "family", "--model", "cabello")
        path = tmp_path / "fam.json"
        path.write_text(json.dumps(doc["family"]))
        code, report = run_json(capsys, "check", "--family-file", str(path))
        assert code == 0
        assert report["passed"] is True

    @pytest.mark.parametrize("model", ["nakamura", "cabello"])
    def test_family_output_pipes_into_check(self, capsys, monkeypatch, model):
        # qcontext family --model M | qcontext check --family-file -
        _, out = run_cli(capsys, "family", "--model", model)
        monkeypatch.setattr("sys.stdin", io.StringIO(out))
        code, report = run_json(capsys, "check", "--family-file", "-")
        assert code == 0
        jsonschema.validate(report, load_schema("check"))
        assert report["passed"] is True

    def test_corrupt_file_exits_1(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{ not json")
        code, doc = run_json(capsys, "check", "--family-file", str(path))
        assert code == 1
        assert doc["passed"] is False

    def test_corrupt_stdin_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("garbage"))
        code, doc = run_json(capsys, "check", "--family-file", "-")
        assert code == 1

    def test_deeply_nested_document_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("[" * 100_000 + "]" * 100_000))
        code, report = run_json(capsys, "check", "--family-file", "-")
        assert code == 1
        jsonschema.validate(report, load_schema("check"))
        assert report["error"].startswith("invalid family: maximum recursion depth exceeded")

    @pytest.mark.parametrize("doc,message", MALFORMED_FAMILIES)
    def test_malformed_family_is_a_plain_error(self, capsys, monkeypatch, doc, message):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
        code = main(["check", "--family-file", "-"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == ""
        report = json.loads(captured.out, parse_constant=_reject_constant)
        jsonschema.validate(report, load_schema("check"))
        assert report["passed"] is False
        assert report["error"] == f"invalid family: {message}"

    def test_requires_source(self, capsys):
        usage_error_line(capsys, "check")


class TestKsSearch:
    @pytest.mark.parametrize("model,total", [("nakamura", 64), ("cabello", 1_048_576)])
    def test_models_not_colorable(self, capsys, model, total):
        code, doc = run_json(capsys, "ks-search", "--model", model)
        assert code == 3
        jsonschema.validate(doc, load_schema("ks"))
        assert doc["verdict"]["valid_count"] == 0
        assert doc["verdict"]["total_assignments"] == total
        assert doc["verdict"]["obstruction"] is not None

    def test_colorable_file(self, capsys, tmp_path):
        path = tmp_path / "h.txt"
        path.write_text("# one pair\na, b\n")
        code, doc = run_json(capsys, "ks-search", "--hypergraph", str(path))
        assert code == 0
        assert doc["verdict"]["colorable"] is True
        assert doc["verdict"]["witness"] == {"a": 0, "b": 1}

    def test_large_file(self, capsys, tmp_path):
        # 37 disjoint triples (111 labels) plus three repeated: 40 contexts
        # and 3^37 valid assignments, far past the size a 2^n scan can take.
        triples = [",".join(f"t{i:02d}{j}" for j in "abc") for i in range(37)]
        path = tmp_path / "h.txt"
        path.write_text("\n".join(triples + triples[:3]) + "\n")
        code, doc = run_json(capsys, "ks-search", "--hypergraph", str(path))
        assert code == 0
        jsonschema.validate(doc, load_schema("ks"))
        assert doc["verdict"]["valid_count"] == 3**37
        assert doc["verdict"]["total_assignments"] == 2**111

    def test_search_limit_exits_2(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr("qcontext.ks.SEARCH_LIMIT", 1)
        path = tmp_path / "h.txt"
        path.write_text("a,b\nb,c\nc,a\n")
        line = usage_error_line(capsys, "ks-search", "--hypergraph", str(path))
        assert line.startswith("qcontext: error: search limit: ")

    def test_parse_failure_exits_2(self, capsys, tmp_path):
        path = tmp_path / "h.txt"
        path.write_text("a,,b\n")
        code, _ = run_cli(capsys, "ks-search", "--hypergraph", str(path))
        assert code == 2

    def test_requires_source(self, capsys):
        usage_error_line(capsys, "ks-search")


class TestSimulate:
    def test_reproducible_and_valid(self, capsys):
        argv = [
            "simulate", "--model", "nakamura", "--context", "1",
            "--state", "0,0,1", "--samples", "200000", "--seed", "42",
        ]
        code, first = run_cli(capsys, *argv)
        assert code == 0
        code, second = run_cli(capsys, *argv)
        assert first == second
        doc = json.loads(first)
        jsonschema.validate(doc, load_schema("simulation"))
        assert doc["config"]["seed"] == 42
        assert sum(row["count"] for row in doc["report"]["rows"]) == 200000

    def test_state_is_normalized_in_echo(self, capsys):
        code, doc = run_json(
            capsys, "simulate", "--model", "nakamura", "--context", "1",
            "--state", "0,0,9", "--samples", "1000", "--seed", "1",
        )
        assert code == 0
        assert doc["config"]["state"] == [0.0, 0.0, 1.0]

    def test_zero_samples_exits_2(self, capsys):
        code, _ = run_cli(
            capsys, "simulate", "--model", "nakamura", "--context", "1", "--samples", "0"
        )
        assert code == 2

    def test_bad_context_exits_2(self, capsys):
        code, _ = run_cli(
            capsys, "simulate", "--model", "nakamura", "--context", "4", "--samples", "10"
        )
        assert code == 2

    def test_zero_state_exits_2(self, capsys):
        self.test_invalid_state_exits_2(capsys, "0,0,0")

    @pytest.mark.parametrize("state", ["0,0,0", "nan,0,1", "inf,0,1"])
    def test_invalid_state_exits_2(self, capsys, state):
        code = main(["simulate", "--model", "nakamura", "--context", "1",
                     f"--state={state}", "--samples", "10"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("qcontext: error: invalid direction")
        assert len(captured.err.splitlines()) == 1

    def test_csv_output(self, capsys):
        code, out = run_cli(
            capsys, "simulate", "--model", "nakamura", "--context", "2",
            "--samples", "5000", "--seed", "7", "--format", "csv",
        )
        assert code == 0
        lines = out.splitlines()
        config_lines = [l for l in lines if l.startswith("#")]
        assert any(l.startswith("# seed=7") for l in config_lines)
        assert "label,count,frequency,born,zscore" in lines
        data = [l for l in lines if not l.startswith("#")][1:]
        assert len(data) == 4

    def test_workers_flag_does_not_change_output(self, capsys):
        argv = [
            "simulate", "--model", "cabello", "--context", "5",
            "--state", "1,1,0", "--samples", "300000", "--seed", "11",
        ]
        _, one = run_cli(capsys, *argv, "--workers", "1")
        _, four = run_cli(capsys, *argv, "--workers", "4")
        one_doc, four_doc = json.loads(one), json.loads(four)
        assert one_doc["report"] == four_doc["report"]

    def test_invalid_workers_exits_2(self, capsys):
        usage_error_line(
            capsys, "simulate", "--model", "nakamura", "--context", "1", "--workers", "0"
        )

    @pytest.mark.parametrize("label", list(cabello_family().elements))
    def test_state_antipodal_to_an_element_passes(self, capsys, label):
        # The element's Born value rounds to a few 1e-17 below 0 and the
        # model never fires it, so its z-score is 0, not Infinity.
        cabello = cabello_family()
        v = cabello.elements[label].direction
        state = f"--state={-v.x!r},{-v.y!r},{-v.z!r}"
        for context in cabello.element_contexts(label):
            code, out = run_cli(
                capsys, "simulate", "--model", "cabello", "--context", str(context + 1),
                state, "--samples", "20000", "--seed", "1",
            )
            rows = json.loads(out, parse_constant=_reject_constant)["report"]["rows"]
            assert code == 0, (label, context)
            assert [row["zscore"] for row in rows if row["label"] == label] == [0.0]


class TestUsageErrors:
    """The usage errors no golden row can carry; tests/golden.py holds the rest."""

    # subprocess argv cannot carry a NUL byte.
    @pytest.mark.parametrize("target", ["nul\0"], ids=["nul-byte"])
    def test_unwritable_out_exits_2(self, capsys, tmp_path, target):
        line = usage_error_line(
            capsys, "family", "--model", "nakamura", "--out", str(tmp_path / target)
        )
        assert line.startswith("qcontext: error: cannot write --out: ")

    def test_help_still_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "-h"])
        assert exc.value.code == 0
        assert "--samples" in capsys.readouterr().out


class TestDilate:
    def test_single_context(self, capsys):
        code, doc = run_json(capsys, "dilate", "--model", "nakamura", "--context", "2")
        assert code == 0
        assert len(doc["reports"]) == 1
        assert doc["reports"][0]["context"] == 2


#: Runs ``python -m qcontext.cli ARGV`` in the probe process, then reports the
#: exit code and whether numpy was loaded as the last stderr line.
CLI_PROBE = """
import json, runpy, sys
sys.argv = ["qcontext", *sys.argv[1:]]
try:
    runpy.run_module("qcontext.cli", run_name="__main__")
except SystemExit as exc:
    code = exc.code
print(json.dumps([code, "numpy" in sys.modules]), file=sys.stderr)
"""


class TestStartup:
    def test_import_skips_pool_and_secrets(self):
        # The pool, secrets and numpy are imported where they are used, so a
        # CLI start does not pay for them; no module imports dataclasses.
        probe = (
            "import sys, qcontext.cli; print(sorted("
            "{'multiprocessing', 'concurrent.futures', 'secrets', 'numpy', 'dataclasses'} "
            "& set(sys.modules)))"
        )
        assert run_probe(probe).stdout.strip() == "[]"

    def test_commands_import_no_dataclasses(self):
        # The value types are plain classes: building both families and
        # running the numpy-free commands never imports dataclasses.
        probe = (
            "import sys, qcontext as q, qcontext.cli as cli\n"
            "q.cabello_family(); q.nakamura_family()\n"
            "codes = [cli.main([*argv.split(), '--out', '/dev/null']) for argv in "
            "('dilate --model cabello', 'audit --model cabello', "
            "'feasibility --model cabello', 'ks-search --model cabello')]\n"
            "print(codes, 'dataclasses' in sys.modules)\n"
        )
        proc = run_probe(probe)
        assert proc.stderr == ""
        assert proc.stdout.strip() == "[0, 0, 3, 3] False"

    def test_parallel_simulation_starts_no_process(self):
        # Shards run on threads: no process pool is imported, let alone forked.
        probe = (
            "import sys, qcontext as q\n"
            "from qcontext.hv import SHARD_SIZE\n"
            "q.simulate_povm(q.cabello_family(), 0, q.BlochVector(0, 0, 1), "
            "2 * SHARD_SIZE + 1, seed=1, workers=2)\n"
            "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))\n"
        )
        proc = run_probe(probe)
        assert proc.stderr == ""
        assert proc.stdout.strip() == "[]"

    def test_package_import_loads_no_numpy(self):
        probe = "import sys, qcontext; print('numpy' in sys.modules)"
        assert run_probe(probe).stdout.strip() == "False"

    def test_family_builds_execute_only_their_layers(self):
        # The first read of a root name executes only the layer defining it;
        # ks, dilation and hv stay registered but unexecuted.
        probe = (
            "import sys, types, qcontext; qcontext.cabello_family(); qcontext.nakamura_family(); "
            "print(sorted(l for l in ('ks', 'dilation', 'hv') "
            "if type(sys.modules['qcontext.' + l]) is types.ModuleType), 'numpy' in sys.modules)"
        )
        proc = run_probe(probe)
        assert proc.stderr == ""
        assert proc.stdout.strip() == "[] False"

    def test_born_rule_and_checks_load_no_numpy(self):
        # The Born rule, the state check and completeness work on 2x2 entries.
        probe = (
            "import sys, qcontext as q\n"
            "from qcontext.bloch import is_density_operator\n"
            "cabello, nakamura = q.cabello_family(), q.nakamura_family()\n"
            "born = q.born_probabilities(((1, 0), (0, 0)), list(nakamura.elements.values()))\n"
            "assert is_density_operator(cabello.elements['A+'].projector_entries)\n"
            "assert q.check_completeness(cabello.contexts[0], cabello) <= q.ATOL\n"
            "print(born, 'numpy' in sys.modules)\n"
        )
        proc = run_probe(probe)
        assert proc.stderr == ""
        assert proc.stdout.strip() == "(0.5, 0.0, 0.375, 0.125, 0.125, 0.375) False"

    @pytest.mark.parametrize(
        "argv,expected_code",
        [
            pytest.param(("ks-search", "--model", "nakamura"), 3, id="ks-nakamura"),
            pytest.param(("ks-search", "--model", "cabello"), 3, id="ks-cabello"),
            pytest.param(("ks-search", "--hypergraph", "h.txt"), 0, id="ks-hypergraph"),
            pytest.param(("family", "--model", "nakamura"), 0, id="family-nakamura"),
            pytest.param(("family", "--model", "cabello"), 0, id="family-cabello"),
            pytest.param(("feasibility", "--model", "nakamura"), 3, id="feasibility-nakamura"),
            pytest.param(("feasibility", "--model", "cabello"), 3, id="feasibility-cabello"),
            pytest.param(("check", "--model", "nakamura"), 0, id="check-nakamura"),
            pytest.param(("check", "--model", "cabello"), 0, id="check-cabello"),
            pytest.param(("check", "--family-file", "family.json"), 0, id="check-file"),
            pytest.param(("check", "--family-file", "-"), 0, id="check-stdin"),
            pytest.param(("dilate", "--model", "nakamura"), 0, id="dilate-nakamura"),
            pytest.param(("dilate", "--model", "cabello"), 0, id="dilate-cabello"),
            pytest.param(("audit", "--model", "nakamura"), 0, id="audit-nakamura"),
            pytest.param(("audit", "--model", "cabello"), 0, id="audit-cabello"),
            pytest.param(("simulate", "--model", "nakamura", "--context", "99",
                          "--samples", "1000", "--seed", "1"), 2, id="context-99"),
            pytest.param(("simulate", "--model", "cabello", "--context", "1",
                          "--samples", "1000", "--seed", "1", "--state", "north,0,1"), 2,
                         id="state-north"),
            pytest.param(("simulate", "--model", "nakamura", "--context", "1",
                          "--samples", "0", "--seed", "1"), 2, id="samples-0"),
        ],
    )
    def test_non_numeric_command_loads_no_numpy(self, tmp_path, argv, expected_code):
        (tmp_path / "h.txt").write_text("a,b\nc,d\na,c,e\n")
        family = json.dumps(nakamura_family().to_dict(), indent=2)
        (tmp_path / "family.json").write_text(family)
        proc = run_probe(CLI_PROBE, *argv, cwd=tmp_path, stdin=family)
        code, numpy_loaded = json.loads(proc.stderr.splitlines()[-1])
        assert code == expected_code
        assert not numpy_loaded

    def test_numeric_command_still_runs_from_module(self):
        proc = run_probe(
            CLI_PROBE, "simulate", "--model", "nakamura", "--context", "1",
            "--samples", "1000", "--seed", "1",
        )
        assert json.loads(proc.stderr) == [0, True]
        assert json.loads(proc.stdout)["report"]["family"] == "nakamura"

    def test_family_loads_no_colorability_decider(self):
        # Only ks-search and count_consistent_slot_assignments import ks; no
        # root name is read, since the first read registers every layer.
        probe = (
            "import contextlib, io, sys\n"
            "from qcontext.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes = [main([command, '--model', 'cabello']) "
            "for command in ('family', 'dilate', 'audit', 'feasibility')]\n"
            "print(codes, 'qcontext.ks' in sys.modules)\n"
        )
        assert run_probe(probe).stdout.strip() == "[0, 0, 0, 3] False"

    def test_combinatorics_load_no_numpy_and_sampling_still_runs(self):
        # Families, colorability and the one-to-one certificate are geometry
        # and combinatorics; the first sampling call loads numpy itself and
        # reproduces TestPinnedReports' nakamura counts.
        probe = (
            "import json, sys, qcontext as q\n"
            "cabello, nakamura = q.cabello_family(), q.nakamura_family()\n"
            "verdict = q.enumerate_assignments(q.ContextHypergraph.from_contexts(cabello.contexts))\n"
            "certificate = q.one_to_one_feasibility(cabello)\n"
            "q.validate_certificate(certificate, cabello)\n"
            "before = 'numpy' in sys.modules\n"
            "report = q.simulate_povm(nakamura, 1, q.BlochVector.normalized(-0.5, 0.2, 0.7),"
            " 270_000, seed=77)\n"
            "print(json.dumps([before, verdict.valid_count, report.counts]))\n"
        )
        proc = run_probe(probe)
        assert proc.stderr == ""
        assert json.loads(proc.stdout) == [False, 0, [120817, 13908, 7657, 127618]]

    def test_seedless_simulate_still_draws_a_seed(self, capsys):
        code, doc = run_json(
            capsys, "simulate", "--model", "nakamura", "--context", "1", "--samples", "100"
        )
        assert code in (0, 1)
        assert 0 <= doc["config"]["seed"] < 2**64


class TestFeasibility:
    def test_no_rule_fired_is_undecided(self, capsys, monkeypatch):
        # One context shares no element with another, so no rule fires.
        monkeypatch.setattr("qcontext.cli._load_model", lambda name: nakamura_family().restrict([0]))
        code, doc = run_json(capsys, "feasibility", "--model", "nakamura")
        assert code == 0
        jsonschema.validate(doc, load_schema("certificate"))
        assert doc["verdict"] == "undecided"
        assert doc["element"] is None and doc["steps"] == []
