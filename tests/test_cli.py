"""End-to-end CLI behavior: JSON contracts, exit codes, determinism."""

import json
import math
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DATA, child_env


def parse(out: str):
    return json.loads(out)


# -------------------------------------------------------------- periods


def test_periods_p3(cli, corpus_paths):
    _, out, _ = cli("periods", corpus_paths["p3"], "--dmax", 8)
    payload = parse(out)
    assert payload["periods"] == [1, 0, 0, 0, 24, 0, 0, 0, 2520]
    assert payload["dmax"] == 8
    labels = {g["d"]: g["label"] for g in payload["gw"]}
    assert labels[0] is None and labels[1] is None
    assert labels[4].endswith("_{0,1,4}")


def test_periods_dmax_zero(cli, corpus_paths):
    _, out, _ = cli("periods", corpus_paths["p3"], "--dmax", 0)
    assert parse(out)["periods"] == [1]


def test_periods_with_recurrence(cli, corpus_paths, golden):
    _, out, _ = cli(
        "periods", corpus_paths["p3"], "--dmax", 40,
        "--recurrence", "--rmax", 4, "--degree-max", 3,
    )
    rec = parse(out)["recurrence"]
    assert rec is not None
    assert rec["order"] == golden["p3_recurrence"]["order"]
    assert rec["degree"] == golden["p3_recurrence"]["degree"]
    assert rec["coeffs"] == golden["p3_recurrence"]["coeffs"]
    assert rec["pretty"] == golden["p3_recurrence"]["pretty"]


def test_periods_table_output(cli, corpus_paths):
    _, out, _ = cli("periods", corpus_paths["p3"], "--dmax", 4, "--output", "table")
    assert "c_d" in out and "24" in out


# ------------------------------------------------------------ transition


def test_transition_p3(cli, corpus_paths):
    _, out, _ = cli("transition", corpus_paths["p3"])
    payload = parse(out)
    assert payload["N"] == 0
    assert payload["e_sm"] == 4
    assert payload["degree"] == 64


def test_transition_nodal_01_matches_golden(cli, corpus_paths, golden):
    g = golden["polytopes"]["nodal_01"]
    _, out, _ = cli("transition", corpus_paths["nodal_01"])
    payload = parse(out)
    for field in ("N", "k", "e_res", "e_sm", "b2_res", "b2_sm", "b3_sm", "degree"):
        assert payload[field] == g[field], field
    assert payload["smoothable"] is True
    assert payload["mode"] == "fano"
    assert [r["diagonals"] for r in payload["resolutions"]] == ["0", "1"]
    assert sum(r["regular"] for r in payload["resolutions"]) == g["regular_count"]


def test_transition_cy_mode(cli, corpus_paths):
    _, out, _ = cli("transition", corpus_paths["nodal_01"], "--mode", "cy")
    payload = parse(out)
    assert payload["mode"] == "cy"
    assert payload["smoothable"] is False
    _, out, _ = cli("transition", corpus_paths["nodal_03"], "--mode", "cy")
    assert parse(out)["smoothable"] is True


def test_transition_cube_fails_with_facets(cli, tmp_path):
    cube = tmp_path / "cube.json"
    cube.write_text(json.dumps({
        "vertices": [[x, y, z] for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)]
    }))
    code, out, err = cli("transition", cube, expect_exit=2)
    assert out == ""
    payload = json.loads(err)["error"]
    assert payload["type"] == "WorseThanNodal"
    assert payload["facets"] == [0, 1, 2, 3, 4, 5]


# ----------------------------------------------------------------- match


def test_match_p3_unique(cli, corpus_paths, data_dir):
    _, out, _ = cli("match", corpus_paths["p3"],
                    data_dir / "fano.jsonl", "--dmax", 10)
    names = [c["name"] for c in parse(out)["candidates"]]
    assert names == ["P3"]


def test_match_octahedron(cli, corpus_paths, data_dir):
    _, out, _ = cli("match", corpus_paths["octahedron"],
                    data_dir / "fano.jsonl", "--dmax", 10)
    assert [c["name"] for c in parse(out)["candidates"]] == ["P1xP1xP1"]


def test_match_empty_db(cli, corpus_paths, tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    _, out, _ = cli("match", corpus_paths["p3"], empty)
    assert parse(out)["candidates"] == []


def test_match_bad_db(cli, corpus_paths, tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("{broken\n")
    code, out, err = cli("match", corpus_paths["p3"], bad, expect_exit=2)
    assert json.loads(err)["error"]["type"] == "ParseError"


# --------------------------------------------------------------- resolve


def test_resolve_counts(cli, corpus_paths, golden):
    for stem in ("nodal_01", "nodal_02", "nodal_03"):
        _, out, _ = cli("resolve", corpus_paths[stem])
        payload = parse(out)
        assert payload["count"] == 2 ** payload["N"]
        assert payload["count"] == golden["polytopes"][stem]["resolution_count"]
        strings = [r["diagonals"] for r in payload["resolutions"]]
        assert strings == sorted(strings)


def test_resolve_budget_exceeded(corpus_paths, monkeypatch, capsys):
    from conifold import cli as cli_module
    from conifold import nodal

    monkeypatch.setattr(nodal, "RESOLUTION_CAP", 5)  # nodal_03 has 6 squares
    assert cli_module.main(["resolve", str(corpus_paths["nodal_03"])]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err)["error"] == {
        "type": "BudgetExceeded",
        "message": "6 nodes would mean 2^6 resolutions; cap is 5",
    }


# ------------------------------------------------------------ recurrence


def test_recurrence_subcommand(cli, tmp_path):
    seq = tmp_path / "seq.json"
    seq.write_text(json.dumps([2 ** d for d in range(16)]))
    _, out, _ = cli("recurrence", seq, "--rmax", 2, "--degree-max", 1)
    payload = parse(out)
    assert payload["found"] is True
    assert payload["order"] == 1 and payload["degree"] == 0


def test_recurrence_accepts_periods_object(cli, corpus_paths, tmp_path):
    _, out, _ = cli("periods", corpus_paths["p3"], "--dmax", 40)
    stored = tmp_path / "p3.json"
    stored.write_text(out)
    _, out2, _ = cli("recurrence", stored, "--rmax", 4, "--degree-max", 3)
    assert parse(out2)["found"] is True


def test_recurrence_insufficient_data(cli, tmp_path):
    seq = tmp_path / "seq.json"
    seq.write_text(json.dumps([1, 2, 4]))
    code, out, err = cli("recurrence", seq, expect_exit=2)
    assert json.loads(err)["error"]["type"] == "InsufficientData"


def test_recurrence_not_found_is_success(cli, tmp_path):
    import random

    rng = random.Random(7)
    seq = tmp_path / "seq.json"
    seq.write_text(json.dumps([1] + [rng.randrange(1, 10 ** 9) for _ in range(39)]))
    _, out, _ = cli("recurrence", seq, "--rmax", 2, "--degree-max", 2)
    assert parse(out) == {"found": False}


# ------------------------------------------------------ errors, general


def test_missing_file_is_input_error(cli):
    code, out, err = cli("periods", "no-such-file.json", expect_exit=2)
    assert json.loads(err)["error"]["type"] == "ParseError"


def test_invalid_polytope_json(cli, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2")
    code, out, err = cli("transition", bad, expect_exit=2)
    assert json.loads(err)["error"]["type"] == "ParseError"


@pytest.mark.parametrize("argv, reason", [
    (("match", "{p3}", "{tmp}/missing.jsonl"), "no such file"),
    (("match", "{p3}", "{tmp}"), "is a directory"),
    (("periods", "{tmp}/latin1.json"), "not UTF-8 text"),
    (("recurrence", "{tmp}/latin1.json"), "not UTF-8 text"),
    (("match", "{p3}", "{tmp}/latin1.jsonl"), "not UTF-8 text"),
    (("periods", "a" * 5000), "cannot open"),
    (("match", "{p3}", "b" * 5000), "cannot open"),
    (("recurrence", "{tmp}/deep.json"), "JSON nested too deeply"),
    (("transition", "{tmp}/deep_vertices.json"), "JSON nested too deeply"),
    (("match", "{p3}", "{tmp}/deep.jsonl"), "JSON nested too deeply"),
], ids=["missing-db", "directory-db", "latin1-polytope", "latin1-sequence",
        "latin1-db", "long-polytope-path", "long-db-path", "deep-sequence",
        "deep-polytope", "deep-db"])
def test_unreadable_input_is_parse_error(cli, corpus_paths, tmp_path, argv, reason):
    # one reader opens every input file: a failure to open, decode or
    # parse it is a ParseError naming the file, never a traceback
    for name in ("latin1.json", "latin1.jsonl"):
        (tmp_path / name).write_bytes(b"\xff\xfe")
    (tmp_path / "deep.json").write_text("[" * 100_000)
    (tmp_path / "deep_vertices.json").write_text('{"vertices": ' + "[" * 5000)
    (tmp_path / "deep.jsonl").write_text("[" * 100_000 + "\n")
    argv = [a.replace("{p3}", str(corpus_paths["p3"])).replace("{tmp}", str(tmp_path))
            for a in argv]
    code, out, err = cli(*argv, expect_exit=2)
    assert out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "ParseError"
    assert error["message"].startswith(f"{argv[-1]}: {reason}")


def test_not_full_dimensional_is_input_error(cli, tmp_path):
    flat = tmp_path / "flat.json"
    flat.write_text(json.dumps({"vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0]]}))
    code, out, err = cli("transition", flat, expect_exit=2)
    assert json.loads(err)["error"]["type"] == "NotFullDimensional"


def test_origin_not_interior_is_input_error(cli, tmp_path):
    shifted = tmp_path / "shifted.json"
    shifted.write_text(json.dumps({
        "vertices": [[3, 0, 0], [2, 1, 0], [2, 0, 1], [1, -1, -1]]
    }))
    errors = [json.loads(cli(command, shifted, expect_exit=2)[2])["error"]
              for command in ("periods", "transition")]
    assert errors[0]["type"] == "OriginNotInterior"
    # one check serves every command and names the offending facet
    assert errors[0] == errors[1]
    assert errors[0]["message"].endswith("with normal (3, -1, -1)")


def test_repeated_runs_are_byte_identical(cli, corpus_paths, data_dir):
    commands = [
        ("periods", corpus_paths["nodal_01"], "--dmax", 12),
        ("transition", corpus_paths["nodal_03"]),
        ("match", corpus_paths["nodal_02"], data_dir / "fano.jsonl"),
        ("resolve", corpus_paths["nodal_03"]),
    ]
    for cmd in commands:
        _, first, _ = cli(*cmd)
        _, second, _ = cli(*cmd)
        assert first == second, cmd


def test_one_parser_serves_a_sequence_of_in_process_runs(cli, corpus_paths, tmp_path, capsys):
    # main builds its parser once per process; every run through it must
    # still give the exit code, stdout and stderr of a fresh process
    from conifold import cli as cli_module

    sequence = tmp_path / "central.json"
    sequence.write_text(json.dumps([math.comb(2 * d, d) for d in range(24)]))
    usage_error = ("frobnicate",)
    runs = [
        usage_error,
        ("periods", corpus_paths["p3"], "--dmax", "-1"),
        ("recurrence", sequence, "--rmax", 2, "--degree-max", 1),
        ("periods", corpus_paths["p3"], "--dmax", 8),
        ("transition", corpus_paths["nodal_01"]),
        usage_error,
    ]
    for argv in runs:
        code = cli_module.main([str(a) for a in argv])
        out, err = capsys.readouterr()
        assert (code, out, err) == cli(*argv, expect_exit=None), argv
    assert cli_module.build_parser() is cli_module.build_parser()


def test_huge_facets_are_refused_without_a_lattice_point_scan(cli, tmp_path):
    # the facet opposite the vertex (-1,-1,-1) holds about 4.5 million
    # lattice points; classifying facets must not enumerate them
    simplex = tmp_path / "simplex.json"
    simplex.write_text(json.dumps({
        "vertices": [[-1, -1, -1], [3000, 0, 0], [0, 3000, 0], [0, 0, 3000]]
    }))
    code, out, err = cli("transition", simplex, expect_exit=2, timeout=10)
    assert json.loads(err)["error"]["type"] == "NotReflexive"


@pytest.mark.parametrize("command", ["periods", "match"])
def test_huge_dmax_is_refused_by_the_work_budget(cli, corpus_paths, data_dir, command):
    # every split's guard is a bound that 10^9 passes, so each bundled
    # polytope reaches the unsplit engine's pre-check, which refuses it
    # before any work
    extra = [data_dir / "fano.jsonl"] if command == "match" else []
    for stem, path in corpus_paths.items():
        code, out, err = cli(command, path, *extra, "--dmax", 10 ** 9, expect_exit=3, timeout=15)
        assert out == "", stem
        assert json.loads(err)["error"]["type"] == "BudgetExceeded", stem


def test_many_points_are_refused_by_the_hull_budget(cli, tmp_path):
    # the 90 lattice points of the shell 5 <= |x|^2 <= 9 need
    # C(90, 3) * 90 > HULL_WORK_BUDGET point tests
    shell = [[x, y, z] for x in range(-3, 4) for y in range(-3, 4)
             for z in range(-3, 4) if 5 <= x * x + y * y + z * z <= 9]
    assert len(shell) == 90
    path = tmp_path / "shell.json"
    path.write_text(json.dumps({"vertices": shell}))
    code, out, err = cli("periods", path, expect_exit=3, timeout=10)
    assert out == ""
    assert json.loads(err)["error"]["type"] == "BudgetExceeded"


def test_high_dimensional_simplex_is_refused_by_the_hull_budget(cli, tmp_path):
    # 91 points in dimension 90 pass only C(91, 90) * 91 point tests, but
    # each of the 91 subsets needs an elimination of 89 rows of 90 entries
    simplex = [[int(i == j) for j in range(90)] for i in range(90)] + [[-1] * 90]
    path = tmp_path / "simplex90.json"
    path.write_text(json.dumps({"vertices": simplex}))
    code, out, err = cli("periods", path, expect_exit=3, timeout=10)
    assert out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "BudgetExceeded"
    assert error["message"].endswith("C(91, 90) * 704880 > 1000000 entry updates")


def test_recurrence_search_is_refused_by_the_work_budget(cli, tmp_path):
    # 800 noise terms: entries up to 10^9 * 799^30 take 6 words, so the
    # order-1 screen (67 x 62 entries, 257,548 updates) is charged
    # 1,545,288 > 10^6 and refused before any elimination
    import random

    rng = random.Random(1)
    path = tmp_path / "noise800.json"
    path.write_text(json.dumps([1] + [rng.randrange(1, 10 ** 9) for _ in range(799)]))
    code, out, err = cli("recurrence", path, "--rmax", 20, "--degree-max", 30,
                         expect_exit=3, timeout=10)
    assert out == ""
    assert json.loads(err)["error"]["type"] == "BudgetExceeded"


LONG = "1" + "0" * 5000  # past int()'s 4300-digit limit


@pytest.mark.parametrize("command, text, where", [
    ("periods", '{"vertices": [[LONG, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]]}', ""),
    ("recurrence", "[1, 2, LONG]", ""),
    ("match", '{"name": "X", "degree": LONG, "e": 0, "b2": 1, "b3": 0}\n', ":1"),
])
def test_oversized_integer_is_parse_error(cli, corpus_paths, tmp_path, command, text, where):
    path = tmp_path / "long.json"
    path.write_text(text.replace("LONG", LONG))
    argv = (corpus_paths["p3"], path) if command == "match" else (path,)
    code, out, err = cli(command, *argv, expect_exit=2)
    assert out == ""
    assert json.loads(err)["error"] == {
        "type": "ParseError",
        "message": f"{path}{where}: integer literal too long",
    }


@pytest.mark.parametrize("argv", [
    ("periods", "{p3}", "--dmax", "-1"),
    ("periods", "{p3}", "--dmax", "ten"),
    ("match", "{p3}", "{db}", "--dmax", "-1"),
    # the resolution cap and the holdout are constants, so their old flags
    # are unknown, whatever the value
    ("transition", "{p3}", "--resolution-cap", "-1"),
    ("resolve", "{p3}", "--resolution-cap", "-1"),
    ("recurrence", "{seq}", "--holdout", "3"),
    ("recurrence", "{seq}", "--rmax", "0"),
    ("recurrence", "{seq}", "--degree-max", "-1"),
    ("recurrence", "{seq}", "--stride", "0"),
    ("recurrence", "{seq}", "--stride", "-1"),
    # argparse's own usage errors
    ("periods",),
    ("frobnicate", "{p3}"),
    ("periods", "{p3}", "--bogus"),
    ("periods", "{p3}", "--output", "xml"),
    ("periods", "{p3}", "--no-prune"),
    ("match", "{p3}", "{db}", "--no-prune"),
    ("match", "{p3}", "{db}", "--mode", "cy"),
], ids=lambda argv: "-".join(a for a in argv if not a.startswith("{")))
def test_out_of_range_option_is_parse_error(cli, corpus_paths, data_dir, tmp_path, argv):
    seq = tmp_path / "seq.json"
    seq.write_text(json.dumps([2 ** d for d in range(40)]))
    paths = {"{p3}": corpus_paths["p3"], "{db}": data_dir / "fano.jsonl", "{seq}": seq}
    code, out, err = cli(*(paths.get(a, a) for a in argv), expect_exit=2)
    assert out == ""
    assert json.loads(err)["error"]["type"] == "ParseError"


def test_option_surface_is_pinned(capsys):
    # every flag and positional of each subcommand, in declaration order:
    # adding or removing a knob shows up here as a diff
    import argparse

    from conifold.cli import build_parser, main

    parser = build_parser()
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))

    def surface(p):
        return [a.option_strings[-1] if a.option_strings else a.dest for a in p._actions]

    assert surface(parser) == ["--help", "--version", "command"]
    recurrence_flags = ["--rmax", "--degree-max", "--stride", "--output"]
    assert {name: surface(sp) for name, sp in sub.choices.items()} == {
        "periods": ["--help", "polytope", "--dmax", "--recurrence", *recurrence_flags],
        "transition": ["--help", "polytope", "--mode", "--output"],
        "match": ["--help", "polytope", "database", "--dmax", "--output"],
        "resolve": ["--help", "polytope", "--output"],
        "recurrence": ["--help", "sequence", *recurrence_flags],
    }
    # a removed flag is refused before any input is read
    assert main(["recurrence", "seq.json", "--holdout", "3"]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == {
        "type": "ParseError",
        "message": "conifold: unrecognized arguments: --holdout 3",
    }


def test_version_flag(cli):
    code, out, err = cli("--version")
    assert out.strip().startswith("conifold")
    code, out, err = cli("periods", "--help")
    assert out.startswith("usage: conifold periods")


def test_closed_pipe_exits_141_without_a_traceback(corpus_paths):
    # stdout is a pipe whose reader has already gone, as in `... | true`
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "conifold", "periods", str(corpus_paths["p3"]),
             "--dmax", "60"],
            stdout=write_end, stderr=subprocess.PIPE, env=child_env(), timeout=60,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, b"")


def test_closed_stderr_pipe_keeps_the_error_exit_code():
    # stderr is a pipe whose reader has already gone: the error JSON cannot
    # be written, but the exit code still says what failed
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "conifold", "periods", "nosuch.json"],
            stdout=subprocess.PIPE, stderr=write_end, env=child_env(), timeout=60,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stdout) == (2, b"")


# every command pays the package import; these modules cost milliseconds of
# it and no command needs them
HEAVY_MODULES = ("dataclasses", "inspect", "fractions", "decimal")


def test_package_import_leaves_out_heavy_modules():
    # a fresh interpreter: what ``import conifold.cli`` adds to a bare one,
    # then the four oracles that import Fraction themselves
    script = f"""
import json, sys
before = set(sys.modules)
import conifold.cli
new = sorted((set(sys.modules) - before) & set({HEAVY_MODULES!r}))
from conifold import lattice, linalg
tri = lattice.convex_hull([(1, 0), (0, 1), (-1, -1)])
dual = lattice.polar_dual(tri)
values = [lattice.rational_hull(dual.vertices).vertices[0][0], dual.facets[0].level,
          lattice.normalized_volume(dual), linalg.max_slack([[1, 0], [0, 1]], 2)]
print(json.dumps([new, [type(v).__name__ for v in values]]))
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=child_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[], ["Fraction"] * 4]


def test_command_path_constructs_no_fraction(corpus_paths, data_dir, tmp_path,
                                              monkeypatch, capsys):
    # integers are the only number type on every subcommand; Fraction is
    # imported only for rational hulls (lattice) and the simplex oracle
    # (linalg), which no command calls
    import ast
    from fractions import Fraction
    from pathlib import Path

    from conifold import cli as cli_module

    importers = set()
    for path in Path(cli_module.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module]
            else:
                continue
            if "fractions" in names:
                importers.add(path.name)
    assert importers == {"lattice.py", "linalg.py"}

    made = []
    real_new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return real_new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)

    def run(*argv):
        assert cli_module.main([str(a) for a in argv]) == 0, argv
        assert made == [], (argv, made[:3])
        return capsys.readouterr().out

    for path in corpus_paths.values():
        run("periods", path, "--dmax", 16, "--recurrence", "--rmax", 2, "--degree-max", 2)
        run("transition", path)
        run("transition", path, "--mode", "cy", "--output", "table")
        run("resolve", path)
        run("match", path, data_dir / "fano.jsonl", "--dmax", 10)
    stored = tmp_path / "p3.json"
    stored.write_text(run("periods", corpus_paths["p3"], "--dmax", 40))
    assert json.loads(run("recurrence", stored, "--rmax", 4, "--degree-max", 3))["found"]


# ------------------------------------------------------------ JSON writer


def dumps(value) -> str:
    """The stdlib encoding that ``cli._json`` must reproduce byte for byte."""
    return json.dumps(value, indent=2, sort_keys=True)


# quotes, backslashes, control characters, non-ASCII characters (one past
# the BMP) and both halves of a surrogate pair, each alone
AWKWARD_CHARS = '"\\/\x00\x08\t\n\x1f\x7f\xe9\u2028\U0001f600\ud800\udfff'
JSON_STRINGS = st.text(st.one_of(st.sampled_from(AWKWARD_CHARS),
                                 st.characters(exclude_categories=())), max_size=8)
JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.sampled_from([0, 1, -1, 2**64, -(2**64) - 1]),
    st.integers(), st.integers(-(2**200), 2**200), JSON_STRINGS,
)
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(JSON_STRINGS, inner, max_size=4)),
    max_leaves=20,
)


@given(JSON_VALUES)
@settings(max_examples=200, deadline=None)
def test_json_writer_is_json_dumps(value):
    from conifold.cli import _json

    assert _json(value) == dumps(value)


def test_json_writer_keeps_bools_apart_from_ints():
    from conifold.cli import _json

    value = {"b": [True, 1, False, 0, None], "a": {}, "": [[], [{}], ()], "c": (True, 0)}
    assert _json(value) == dumps(value)


def unimodular_images(vertices, count) -> list:
    """``count`` images of the vertices under seeded products of six
    elementary integer row operations, matrices of determinant 1."""
    import random

    rng = random.Random(f"writer:{vertices}")
    images = []
    for _ in range(count):
        m = [[int(i == j) for j in range(3)] for i in range(3)]
        for _ in range(6):
            i, j = rng.sample(range(3), 2)
            sign = rng.choice((-1, 1))
            m[i] = [a + sign * b for a, b in zip(m[i], m[j])]
        images.append([[sum(a * x for a, x in zip(row, v)) for row in m] for v in vertices])
    return images


def test_every_subcommand_prints_json_dumps_of_its_payload(data_dir, tmp_path, capsys):
    # main's stdout is the stdlib encoding of the cmd_* payload, over the
    # bundled polytopes and two unimodular images of each
    from conifold import cli as cli_module

    polytopes = []
    for k, vertices in enumerate(CORPUS_VERTICES):
        for n, image in enumerate([vertices, *unimodular_images(vertices, 2)]):
            polytopes.append(tmp_path / f"polytope{k}_{n}.json")
            polytopes[-1].write_text(json.dumps({"vertices": image}))
    sequence = tmp_path / "central.json"
    sequence.write_text(json.dumps([math.comb(2 * d, d) for d in range(24)]))
    runs = [("recurrence", sequence, "--rmax", 2, "--degree-max", 1),
            ("recurrence", sequence, "--rmax", 1, "--degree-max", 0)]
    for path in polytopes:
        runs += [("periods", path, "--dmax", 13, "--recurrence", "--rmax", 1,
                  "--degree-max", 1),
                 ("periods", path, "--dmax", 12),
                 ("transition", path, "--mode", "cy"),
                 ("resolve", path),
                 ("match", path, data_dir / "fano.jsonl", "--dmax", 10)]
    for argv in runs:
        argv = [str(a) for a in argv]
        args = cli_module.build_parser().parse_args(argv)
        expected = dumps(args.func(args)) + "\n"
        assert (cli_module.main(argv), *capsys.readouterr()) == (0, expected, ""), argv


def test_error_object_is_json_dumps(tmp_path, capsys):
    from conifold import cli as cli_module

    cube = tmp_path / "cube.json"
    cube.write_text(json.dumps({"vertices": [[x, y, z] for x in (-1, 1) for y in (-1, 1)
                                             for z in (-1, 1)]}))
    for argv in (["transition", str(cube)], ["periods", str(tmp_path / "nosuché.json")]):
        code = cli_module.main(argv)
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err == dumps(json.loads(err)) + "\n"


# ------------------------------------------------------------ table output

TABLE_RUNS = [
    *(run for stem in ("nodal_01", "nodal_02", "nodal_03", "octahedron", "p2xp1", "p3")
      for run in (
          ("transition", f"{stem}.json"),
          ("transition", f"{stem}.json", "--mode", "cy"),
          ("resolve", f"{stem}.json"),
          ("match", f"{stem}.json", "fano.jsonl", "--dmax", "10"),
          ("periods", f"{stem}.json", "--dmax", "10"),
          ("periods", f"{stem}.json", "--dmax", "40", "--recurrence",
           "--rmax", "4", "--degree-max", "3"),
      )),
    ("match", "p3.json", "empty.jsonl"),
    ("recurrence", "powers.json", "--rmax", "2", "--degree-max", "1"),
    ("recurrence", "noise.json", "--rmax", "2", "--degree-max", "2"),
]


def table_transcript(paths, capsys) -> str:
    """``$ conifold <argv> --output table`` followed by its stdout, for
    every run in TABLE_RUNS; file arguments are shown by name only."""
    from conifold import cli as cli_module

    blocks = []
    for argv in TABLE_RUNS:
        argv = (*argv, "--output", "table")
        code = cli_module.main([str(paths.get(a, a)) for a in argv])
        out, err = capsys.readouterr()
        assert (code, err) == (0, ""), argv
        blocks.append(f"$ conifold {' '.join(argv)}\n{out}")
    return "\n".join(blocks)


def test_table_output_is_pinned(corpus_paths, data_dir, tmp_path, capsys):
    # tests/cli_tables.txt is the expected transcript of TABLE_RUNS: any
    # change to a table renderer shows up as a diff against it
    import random
    from pathlib import Path

    rng = random.Random(7)
    files = {
        "powers.json": [2 ** d for d in range(16)],
        "noise.json": [1] + [rng.randrange(1, 10 ** 9) for _ in range(39)],
        "empty.jsonl": None,
    }
    paths = {f"{stem}.json": path for stem, path in corpus_paths.items()}
    paths["fano.jsonl"] = data_dir / "fano.jsonl"
    for name, terms in files.items():
        paths[name] = tmp_path / name
        paths[name].write_text("" if terms is None else json.dumps(terms))
    expected = (Path(__file__).parent / "cli_tables.txt").read_text(encoding="utf-8")
    assert table_transcript(paths, capsys) == expected


# ------------------------------------------------------------- fuzzing


CORPUS_VERTICES = [json.loads(path.read_text())["vertices"]
                   for path in sorted((DATA / "polytopes").glob("*.json"))]


@st.composite
def polytope_texts(draw):
    """JSON text of a small polytope: at most 8 points in dimension 1 to 4
    with |coordinate| <= 3.  The points are random, random and centrally
    symmetric, or a bundled polytope with its axes permuted and flipped;
    five times in twelve the text is malformed."""
    source = draw(st.sampled_from(["random", "symmetric", "corpus"]))
    if source == "corpus":
        dim = 3
        axes = draw(st.permutations(range(3)))
        signs = draw(st.lists(st.sampled_from([1, -1]), min_size=3, max_size=3))
        points = [[s * v[a] for a, s in zip(axes, signs)]
                  for v in draw(st.sampled_from(CORPUS_VERTICES))]
    else:
        dim = draw(st.integers(1, 4))
        span = draw(st.sampled_from([1, 3]))
        points = draw(st.lists(st.lists(st.integers(-span, span), min_size=dim, max_size=dim),
                               min_size=1, max_size=4 if source == "symmetric" else 8))
        if source == "symmetric":
            points += [[-x for x in p] for p in points]
    data = {"vertices": points}
    flaw = draw(st.sampled_from(["", "", "", "", "", "", "",
                                 "dim", "ragged", "entry", "shape", "text"]))
    if flaw == "dim":
        data["dim"] = draw(st.sampled_from([0, dim + 1, True, "3", None]))
    elif flaw == "ragged":
        points.append(points[0] + [1])
    elif flaw == "entry":
        points[-1][0] = draw(st.sampled_from([0.5, True, "1", None, [1]]))
    elif flaw == "shape":
        data = draw(st.sampled_from([{"vertices": []}, {"vertices": [[]]}, {}, [], points]))
    text = json.dumps(data)
    return text[: len(text) // 2] if flaw == "text" else text


@st.composite
def sequence_texts(draw):
    """JSON text of a stored sequence: up to 40 integers, random or
    geometric, as a list or under a "periods" key; or a malformed one."""
    n = draw(st.integers(0, 40))
    if draw(st.booleans()):
        terms = draw(st.lists(st.integers(-10**6, 10**6), min_size=n, max_size=n))
    else:
        start, ratio = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        terms = [start * ratio**d for d in range(n)]
    form = draw(st.sampled_from(["list", "list", "object", "flaw"]))
    if form == "flaw":
        return json.dumps(draw(st.sampled_from([terms + [1.5], terms + [True],
                                                {"terms": terms}, "[1, 2, 3]", None])))
    return json.dumps(terms if form == "list" else {"periods": terms})


def _flags(draw, *names):
    """Some of the named integer flags, each with a value from low to
    high, or now and then low - 1, which is refused."""
    out = []
    for name, low, high in names:
        if draw(st.booleans()):
            values = [low - 1] + [v for v in range(low, high + 1) for _ in range(3)]
            out += [name, str(draw(st.sampled_from(values)))]
    return out


_RECURRENCE_FLAGS = (("--rmax", 1, 3), ("--degree-max", 0, 3), ("--stride", 1, 3))


@st.composite
def cli_runs(draw):
    """(argv with {polytope}, {sequence} and {db} placeholders, polytope
    text, sequence text) for one run of one subcommand."""
    command = draw(st.sampled_from(["periods", "transition", "match", "resolve",
                                    "recurrence"]))
    if command == "periods":
        argv = ["periods", "{polytope}", *_flags(draw, ("--dmax", 0, 16))]
        if draw(st.booleans()):
            argv += ["--recurrence", *_flags(draw, *_RECURRENCE_FLAGS)]
    elif command == "transition":
        argv = ["transition", "{polytope}", "--mode", draw(st.sampled_from(["fano", "cy"]))]
    elif command == "match":
        argv = ["match", "{polytope}", "{db}", *_flags(draw, ("--dmax", 0, 16))]
    elif command == "resolve":
        argv = ["resolve", "{polytope}"]
    else:
        argv = ["recurrence", "{sequence}", *_flags(draw, *_RECURRENCE_FLAGS)]
    return argv, draw(polytope_texts()), draw(sequence_texts())


@given(cli_runs())
@settings(max_examples=300, deadline=None)
def test_fuzzed_runs_exit_cleanly(run):
    # any input either succeeds with JSON on stdout or fails with exit 2
    # or 3 and one {"error": {...}} object on stderr: never a traceback
    # and never an internal error (exit 4)
    import contextlib
    import io
    import tempfile
    from pathlib import Path

    from conifold import cli as cli_module

    argv, polytope, sequence = run
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"{polytope}": Path(tmp) / "polytope.json",
                 "{sequence}": Path(tmp) / "sequence.json",
                 "{db}": DATA / "fano.jsonl"}
        paths["{polytope}"].write_text(polytope)
        paths["{sequence}"].write_text(sequence)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_module.main([str(paths.get(a, a)) for a in argv])
    assert code in (0, 2, 3), (code, err.getvalue())
    if code == 0:
        assert err.getvalue() == ""
        json.loads(out.getvalue())
    else:
        assert out.getvalue() == ""
        body = json.loads(err.getvalue())
        assert list(body) == ["error"] and {"type", "message"} <= set(body["error"])
