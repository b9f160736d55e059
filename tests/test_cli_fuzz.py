"""Fuzz gate on the CLI: any argv, family document or hypergraph file ends in a
documented exit code, and a usage error is exactly one stderr line.

Samples are capped at 10 000 and workers at 2, so every simulation is one
shard and starts no pool; ``-h`` is never drawn; ``--out`` points under the
test's temporary directory only.
"""

import contextlib
import io
import json
from unittest import mock

from hypothesis import HealthCheck, Phase, given, settings, strategies as st

from qcontext import nakamura_family
from qcontext.cli import main

TMP = "{tmp}"  # replaced by the test's tmp_path

FAMILY_DOC = nakamura_family().to_dict()

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)


@st.composite
def family_documents(draw):
    """Nakamura's document with a few fields dropped or replaced, sometimes
    wrapped as the whole output of ``qcontext family``."""
    doc = json.loads(json.dumps(FAMILY_DOC))
    for _ in range(draw(st.integers(0, 3))):
        where = draw(st.sampled_from(["top", "element", "context"]))
        if where == "top":
            key = draw(st.sampled_from(["name", "elements", "contexts"]))
            if draw(st.booleans()):
                doc.pop(key, None)
            else:
                doc[key] = draw(JSON_VALUES)
        elif where == "element" and isinstance(doc.get("elements"), list) and doc["elements"]:
            element = draw(st.sampled_from(doc["elements"]))
            if isinstance(element, dict):
                key = draw(st.sampled_from(["label", "weight", "direction"]))
                element[key] = draw(
                    st.one_of(
                        JSON_VALUES,
                        st.lists(st.floats(-2, 2), min_size=3, max_size=3),
                        st.sampled_from(["A+", "B-", 0.0, -0.25, 1e308, [0, 0, 0]]),
                    )
                )
        elif where == "context" and isinstance(doc.get("contexts"), list) and doc["contexts"]:
            i = draw(st.integers(0, len(doc["contexts"]) - 1))
            labels = [e["label"] for e in FAMILY_DOC["elements"]]
            doc["contexts"][i] = draw(st.lists(st.sampled_from(labels + ["Z+"]), max_size=5))
    if draw(st.booleans()):
        doc = {"config": {"command": "family"}, "family": doc}
    return doc


FILE_TEXT = st.one_of(
    family_documents().map(json.dumps),
    JSON_VALUES.map(json.dumps),
    st.text(max_size=40),
)
HYPERGRAPH_TEXT = st.one_of(
    st.lists(
        st.lists(st.sampled_from("abcdef "), max_size=4).map(",".join), max_size=6
    ).map("\n".join),
    st.text(max_size=40),
)


def rarely(invalid, valid):
    """The invalid values about one time in five."""
    return st.one_of(valid, valid, valid, valid, invalid)


def ints(low, high, valid_low, junk=("x", "", "1.5", "99999999999999999999")):
    """Integer text: [valid_low, high] mostly, else below valid_low or junk."""
    below = st.integers(low, valid_low - 1).map(str) | st.sampled_from(junk)
    return rarely(below, st.integers(valid_low, high).map(str))


def paths(*valid):
    return rarely(
        st.sampled_from([f"{TMP}/missing/file", f"{TMP}/nul\0", TMP, ""]), st.sampled_from(valid)
    )


FORMATS = rarely(st.sampled_from(["csv", "xml"]), st.just("json"))
STATE = rarely(
    st.lists(
        st.one_of(st.floats().map(repr), st.sampled_from(["north", ""])), min_size=1, max_size=4
    ).map(",".join)
    | st.sampled_from(["-0.5,0,1", "0,0,0"]),
    st.lists(st.integers(-3, 3), min_size=3, max_size=3).map(lambda v: ",".join(map(str, v))),
)
#: Per command: flag -> (chance in ten that it is given, value strategy).
COMMON = {
    "--model": (9, rarely(st.sampled_from(["foo", ""]), st.sampled_from(["nakamura", "cabello"]))),
    "--format": (3, FORMATS),
    "--out": (2, paths(f"{TMP}/out.txt")),
}
FLAGS = {
    "family": {},
    "check": {"--model": (3, COMMON["--model"][1]), "--family-file": (8, paths("-", f"{TMP}/family.json"))},
    "ks-search": {
        "--model": (4, COMMON["--model"][1]),
        "--hypergraph": (8, paths(f"{TMP}/h.txt")),
        "--workers": (3, ints(-1, 2, 1)),
    },
    "simulate": {
        "--format": (3, rarely(st.just("xml"), st.sampled_from(["json", "csv"]))),
        "--context": (9, ints(-1, 6, 1)),
        "--state": (5, STATE),
        "--seed": (5, ints(-2, 2**64, 0)),
        "--workers": (3, ints(-1, 2, 1)),
        # Always given, so the 1e6-sample default never runs.
        "--samples": (10, ints(-2, 10_000, 1, junk=("x", "1e3", "4294967297", "99999999999999999999"))),
    },
    "dilate": {"--context": (5, ints(-1, 7, 1))},
    "audit": {},
    "feasibility": {},
}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(FLAGS) * 3 + ["bogus"]))
    flags = {**COMMON, **FLAGS.get(command, {})}
    # Now and then any text at all, except where it could break the caps.
    pairs = [
        (name, draw(st.text(max_size=6) if name not in ("--out", "--samples", "--workers")
                    and draw(st.integers(0, 19)) == 0 else values))
        for name, (chance, values) in flags.items()
        if draw(st.integers(0, 9)) < chance
    ]
    if draw(st.integers(0, 9)) == 0:
        pairs.append(draw(st.sampled_from(
            [("--samples", "5"), ("--bogus", "1"), ("stray", None), ("two\nlines", None)]
        )))
    order = draw(st.permutations(range(len(pairs))))
    argv = [command]
    for name, value in (pairs[i] for i in order):
        if value is None:
            argv.append(name)
        elif draw(st.booleans()):
            argv.append(f"{name}={value}")
        else:
            argv += [name, value]
    return argv


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
    # The explain phase re-runs many variants of a failing argv and formats a
    # traceback for each; it turned a failing run from seconds into minutes.
    phases=[phase for phase in Phase if phase is not Phase.explain],
)
@given(argv=argvs(), family_text=FILE_TEXT, hypergraph_text=HYPERGRAPH_TEXT)
def test_cli_never_raises(tmp_path, argv, family_text, hypergraph_text):
    (tmp_path / "family.json").write_text(family_text, encoding="utf-8", errors="surrogatepass")
    (tmp_path / "h.txt").write_text(hypergraph_text, encoding="utf-8", errors="surrogatepass")
    argv = [arg.replace(TMP, str(tmp_path)) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(family_text)), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            raise AssertionError(f"SystemExit({exc.code}) escaped main") from exc
    assert code in (0, 1, 2, 3)
    if code == 2:
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines(keepends=True)
        assert len(lines) == 1 and lines[0].startswith("qcontext: error: ")
        assert lines[0].endswith("\n")
    else:
        assert err.getvalue() == ""
