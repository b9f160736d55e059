import io
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from qcontext import nakamura_family
from qcontext.cli import main
from qcontext.hv import MAX_SAMPLES

from conftest import load_schema

PINNED_DIR = Path(__file__).resolve().parent / "pinned"
SRC_DIR = Path(__file__).resolve().parent.parent / "src"


def _malformed_families():
    missing_direction = nakamura_family().to_dict()
    del missing_direction["elements"][0]["direction"]
    contexts_string = nakamura_family().to_dict()
    contexts_string["contexts"] = "AB"
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
    ]


MALFORMED_FAMILIES = _malformed_families()


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
    def test_nakamura(self, capsys):
        code, doc = run_json(capsys, "family", "--model", "nakamura")
        assert code == 0
        jsonschema.validate(doc, load_schema("family"))
        assert len(doc["family"]["elements"]) == 6
        assert len(doc["family"]["contexts"]) == 3
        assert doc["config"]["command"] == "family"

    def test_cabello(self, capsys):
        code, doc = run_json(capsys, "family", "--model", "cabello")
        assert code == 0
        jsonschema.validate(doc, load_schema("family"))
        assert len(doc["family"]["elements"]) == 20
        assert len(doc["family"]["contexts"]) == 5

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
        code, report = run_json(capsys, "check", "--family-file", "-")
        assert code == 1
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
        code = main(["ks-search", "--hypergraph", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("qcontext: error: search limit: ")

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

    def test_negative_seed_exits_2(self, capsys):
        code = main(["simulate", "--model", "nakamura", "--context", "1",
                     "--samples", "10", "--seed", "-1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("qcontext: error: seed")
        assert len(captured.err.splitlines()) == 1

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

    def test_samples_above_ceiling_exits_2(self, capsys):
        # Rejected while argv is parsed: no shard plan is built.
        line = usage_error_line(
            capsys, "simulate", "--model", "nakamura", "--context", "1",
            "--samples", "99999999999999999999",
        )
        assert line == (
            f"qcontext: error: samples must be <= {MAX_SAMPLES}, got 99999999999999999999"
        )


SIMULATE = ("simulate", "--model", "nakamura", "--context", "1", "--samples", "10")


class TestUsageErrors:
    """Every usage error, argparse's own included, is one stderr line and exit 2."""

    @pytest.mark.parametrize(
        "argv,fragment",
        [
            pytest.param((*SIMULATE, "--context", "x"), "--context", id="context-not-int"),
            pytest.param(("family", "--model", "foo"), "--model", id="unknown-model"),
            pytest.param((*SIMULATE, "--workers", "0"), "workers must be >= 1", id="workers-0"),
            pytest.param((*SIMULATE, "--state", "-0.5,0,1"), "--state", id="state-looks-like-flag"),
            pytest.param(("check",), "--model or --family-file", id="check-no-source"),
            pytest.param(("ks-search",), "--model or --hypergraph", id="ks-search-no-source"),
            pytest.param(("family", "--model", "nakamura", "--format", "csv"), "--format",
                         id="family-format-csv"),
            pytest.param((*SIMULATE, "--samples", "0"), "samples must be >= 1", id="samples-0"),
            pytest.param(("simulate", "--model", "nakamura"), "--context", id="missing-required"),
            pytest.param(("family", "--model", "nakamura", "stray"), "unrecognized", id="stray-arg"),
            pytest.param((), "command", id="no-command"),
        ],
    )
    def test_one_line_exit_2(self, capsys, argv, fragment):
        assert fragment in usage_error_line(capsys, *argv)

    @pytest.mark.parametrize(
        "target", ["missing/out.json", ".", "nul\0"], ids=["no-dir", "is-dir", "nul-byte"]
    )
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
    def test_all_contexts_pass(self, capsys):
        code, doc = run_json(capsys, "dilate", "--model", "cabello")
        assert code == 0
        jsonschema.validate(doc, load_schema("dilation"))
        assert doc["passed"] is True
        assert len(doc["reports"]) == 5
        assert all(r["max_residual"] <= 1e-12 for r in doc["reports"])

    def test_single_context(self, capsys):
        code, doc = run_json(capsys, "dilate", "--model", "nakamura", "--context", "2")
        assert code == 0
        assert len(doc["reports"]) == 1
        assert doc["reports"][0]["context"] == 2

    def test_bad_context_exits_2(self, capsys):
        code, _ = run_cli(capsys, "dilate", "--model", "nakamura", "--context", "6")
        assert code == 2


class TestAudit:
    def test_nakamura_reports_mismatch(self, capsys):
        code, doc = run_json(capsys, "audit", "--model", "nakamura")
        assert code == 0
        jsonschema.validate(doc, load_schema("audit"))
        assert doc["mismatched"] >= 1
        flagged = {e["label"] for e in doc["entries"] if not e["equal"]}
        assert flagged == {"B+", "B-"}


class TestPinnedDilationOutputs:
    """``dilate`` and ``audit`` output, byte for byte. A change that moves any
    residual's last bit must update these files and say so."""

    @pytest.mark.parametrize("command", ["dilate", "audit"])
    @pytest.mark.parametrize("model", ["nakamura", "cabello"])
    def test_output(self, capsys, command, model):
        code, out = run_cli(capsys, command, "--model", model)
        assert code == 0
        assert out == (PINNED_DIR / f"{command}-{model}.json").read_text()


class TestStartup:
    def test_import_skips_pool_and_secrets(self):
        # The pool and secrets are imported where they are used, so a CLI
        # start does not pay for them.
        path = [str(SRC_DIR), os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
        probe = (
            "import sys, qcontext.cli; "
            "print(sorted({'multiprocessing', 'concurrent.futures', 'secrets'} & set(sys.modules)))"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
        ).stdout
        assert out.strip() == "[]"

    def test_seedless_simulate_still_draws_a_seed(self, capsys):
        code, doc = run_json(
            capsys, "simulate", "--model", "nakamura", "--context", "1", "--samples", "100"
        )
        assert code in (0, 1)
        assert 0 <= doc["config"]["seed"] < 2**64


class TestFeasibility:
    def test_nakamura_certificate(self, capsys):
        code, doc = run_json(capsys, "feasibility", "--model", "nakamura")
        assert code == 3
        jsonschema.validate(doc, load_schema("certificate"))
        assert doc["verdict"] == "contradiction"
        confinements = [
            s for s in doc["steps"] if s["rule"] == "confinement-from-completeness"
        ]
        assert "F3" in confinements[-1]["conclusion"]
        assert "context 3" in confinements[-1]["conclusion"]

    def test_cabello_certificate(self, capsys):
        code, doc = run_json(capsys, "feasibility", "--model", "cabello")
        assert code == 3
        jsonschema.validate(doc, load_schema("certificate"))
        confinements = [
            s for s in doc["steps"] if s["rule"] == "confinement-from-completeness"
        ]
        assert "F3 + F4 + F5" in confinements[-1]["conclusion"]
