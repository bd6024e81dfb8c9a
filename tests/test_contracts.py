"""What code outside the package's tests relies on, checked by reading it.

The benchmark under ``perfbench/`` wraps every function named in
``spans.TRACED`` and reads fields of their results, so a rename in
``src/`` breaks ``--trace 1`` or the benchmark's set-up; these tests
fail first.  ``scripts/build_corpus.py`` imports ``tests/oracles.py``,
which must therefore need nothing beyond the standard library and
``conifold``.

The package also promises its importers a fixed public surface, loaded
lazily: ``import conifold`` loads no layer, and each subcommand loads only
the layers it runs and finds their functions on their modules when it is
called, so a function rebound on its module (as ``spans.Tracer.install``
does) is the one the command runs.
"""

import ast
import importlib
import importlib.util
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import conifold
from conftest import child_env
from conifold import cli
from conifold.laurent import from_fan_polytope, period_sequence, period_term_direct
from conifold.nodal import check_regularity, nodal_profile
from conifold.recurrence import Recurrence, verify_recurrence

REPO_ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = REPO_ROOT / "perfbench"


def traced_names():
    """The (layer, function) pairs of ``TRACED`` in perfbench/spans.py."""
    tree = ast.parse((PERFBENCH / "spans.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return [tuple(ast.literal_eval(e) for e in row.elts[:2])
                    for row in node.value.elts]
    raise AssertionError("perfbench/spans.py assigns no TRACED")


def test_every_traced_function_resolves():
    traced = traced_names()
    assert ("nodal", "report_json_dict") in traced
    for layer, name in traced:
        module = importlib.import_module(f"conifold.{layer}")
        assert callable(getattr(module, name, None)), f"conifold.{layer}.{name}"


def test_every_name_the_benchmark_imports_resolves():
    imported = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.ImportFrom)
                    and (node.module or "").split(".")[0] == "conifold"):
                imported += [(path.name, node.module, a.name) for a in node.names]
    assert ("workloads.py", "conifold", "period_term_direct") in imported
    for file, module_name, name in imported:
        module = importlib.import_module(module_name)
        # a name may be a submodule, as in ``from conifold import cli``
        assert hasattr(module, name) or importlib.util.find_spec(
            f"{module_name}.{name}"), (file, module_name, name)


def test_result_fields_the_benchmark_reads(corpus):
    # spans._periods_counts reads args[0].terms and result.terms,
    # workloads.py compares period_sequence(...).terms with
    # period_term_direct, spans._regular_counts reads r.regular and
    # spans._hull_counts reads f.lattice_points and f.vertices
    p = corpus["nodal_03"]
    w = from_fan_polytope(p)
    assert len(w.terms) == len(p.vertices) == 8
    terms = period_sequence(w, 6).terms
    assert list(terms) == [period_term_direct(w, d) for d in range(7)]
    census = check_regularity(nodal_profile(p))
    assert sum(bool(r.regular) for r in census) == 46
    assert [r.diagonals for r in census][:2] == ["000000", "000001"]
    for f in p.facets:
        assert len(f.lattice_points) == len(f.vertices) == 4


def test_recurrence_payload_round_trips(tmp_path, capsys):
    # workloads._check_recurrence rebuilds the `conifold recurrence`
    # answer with Recurrence.from_json_dict and verifies it
    terms = [2**d for d in range(20)]
    path = tmp_path / "doubling.json"
    path.write_text(json.dumps({"periods": terms}))
    assert cli.main(["recurrence", str(path), "--rmax", "1", "--degree-max", "0"]) == 0
    out = json.loads(capsys.readouterr().out)
    rec = Recurrence.from_json_dict(out)
    assert (rec.order, rec.degree) == (out["order"], out["degree"]) == (1, 0)
    assert verify_recurrence(rec, terms)


def test_oracles_import_only_the_standard_library_and_conifold():
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    roots = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "oracles.py uses a relative import"
            roots.add(node.module.split(".")[0])
    assert "conifold" in roots
    assert roots - {"conifold"} <= sys.stdlib_module_names, roots


# ``conifold.__all__``, sorted: an export dropped from the table fails here
PUBLIC_NAMES = [
    "BudgetExceeded", "ConifoldError", "DimensionMismatch", "DuplicateName",
    "EmptyInput", "Facet", "InsufficientData", "LaurentPolynomial",
    "NodalProfile", "NotFullDimensional", "NotReflexive", "NotReflexiveFacet",
    "OriginNotInterior", "ParseError", "PeriodSequence", "Polytope",
    "Recurrence", "SmallResolution", "WorseThanNodal", "__version__",
    "check_regularity", "classify_facet", "convex_hull",
    "enumerate_small_resolutions", "exceptional_relation_matrix",
    "exceptional_relation_rank", "find_recurrence", "friedman_smoothable",
    "from_fan_polytope", "gw_labeling", "is_reflexive",
    "is_regular_triangulation", "load_database", "match", "nodal_profile",
    "normalized_volume", "period_sequence", "period_term_direct", "polar_dual",
    "polytope_from_json_dict", "rational_hull", "report_json_dict",
    "transition_invariants", "verify_recurrence",
]


def test_public_surface_is_unchanged(monkeypatch):
    assert sorted(conifold.__all__) == PUBLIC_NAMES
    assert isinstance(conifold.__version__, str)
    for name in set(PUBLIC_NAMES) - {"__version__"}:
        # drop any cached binding, so the read goes through the package hook
        monkeypatch.delitem(vars(conifold), name, raising=False)
        value = getattr(conifold, name)
        assert value is vars(sys.modules[value.__module__])[name], name
        assert vars(conifold)[name] is value  # the second read skips the hook
    namespace = {}
    exec("from conifold import *", namespace)
    assert all(namespace[name] is getattr(conifold, name) for name in PUBLIC_NAMES)
    assert set(PUBLIC_NAMES) <= set(dir(conifold))
    assert not hasattr(conifold, "no_such_name")
    with pytest.raises(AttributeError, match="no_such_name"):
        conifold.no_such_name


# the conifold modules a fresh process holds after the import or the
# ``python -m conifold`` command; every command also loads cli and errors
_BASE = {"conifold", "conifold.cli", "conifold.errors"}
_FOOTPRINT_CASES = [
    (["import conifold"], {"conifold"}),
    (["from conifold import linalg"], {"conifold", "conifold.linalg"}),
    (["--version"], _BASE),
    (["periods", "P", "--dmax", "4"],
     _BASE | {"conifold.lattice", "conifold.linalg", "conifold.laurent",
              "conifold.recurrence"}),
    (["transition", "P"], _BASE | {"conifold.lattice", "conifold.linalg", "conifold.nodal"}),
    (["resolve", "P"], _BASE | {"conifold.lattice", "conifold.linalg", "conifold.nodal"}),
    (["recurrence", "SEQ", "--rmax", "1", "--degree-max", "0"],
     _BASE | {"conifold.linalg", "conifold.recurrence"}),
    (["match", "P", "DB", "--dmax", "4"],
     _BASE | {"conifold.fanodb", "conifold.lattice", "conifold.linalg",
              "conifold.laurent", "conifold.nodal"}),
]
_FOOTPRINT_PROBE = """\
import json, runpy, sys
try:
    {}
finally:
    print(json.dumps(sorted(m for m in sys.modules if m.partition(".")[0] == "conifold")))
"""


@pytest.fixture
def cli_inputs(corpus_paths, data_dir, tmp_path):
    """The stand-ins of the command lines below: a nodal polytope, the
    bundled database, and a sequence with a first-order recurrence."""
    sequence = tmp_path / "doubling.json"
    sequence.write_text(json.dumps([2**d for d in range(20)]))
    return {"P": str(corpus_paths["nodal_03"]), "DB": str(data_dir / "fano.jsonl"),
            "SEQ": str(sequence)}


@pytest.mark.parametrize("argv, expected", _FOOTPRINT_CASES,
                         ids=[" ".join(argv) for argv, _ in _FOOTPRINT_CASES])
def test_import_footprint(cli_inputs, argv, expected):
    if argv[0].startswith(("import ", "from ")):
        code, args = argv[0], []
    else:
        code, args = 'runpy.run_module("conifold", run_name="__main__")', argv
    proc = subprocess.run(
        [sys.executable, "-c", _FOOTPRINT_PROBE.format(code),
         *[cli_inputs.get(a, a) for a in args]],
        capture_output=True, text=True, env=child_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert set(json.loads(proc.stdout.splitlines()[-1])) == expected


def test_patched_layer_functions_reach_every_command(cli_inputs, monkeypatch, capsys):
    # the commands look these functions up on their modules at call time,
    # which is what lets ``--trace 1`` wrap them
    from conifold import fanodb, lattice, laurent, nodal, recurrence

    calls = Counter()

    def count(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for module, name in ((lattice, "polytope_from_json_dict"),
                         (laurent, "period_sequence"),
                         (nodal, "check_regularity"),
                         (fanodb, "match"),
                         (recurrence, "find_recurrence")):
        count(module, name)
    p, db, seq = cli_inputs["P"], cli_inputs["DB"], cli_inputs["SEQ"]
    for argv in (["periods", p, "--dmax", "4"], ["transition", p],
                 ["match", p, db, "--dmax", "4"], ["resolve", p],
                 ["recurrence", seq, "--rmax", "1", "--degree-max", "0"]):
        assert cli.main(argv) == 0, argv
    capsys.readouterr()
    assert calls == {"polytope_from_json_dict": 4, "period_sequence": 2,
                     "check_regularity": 1, "match": 1, "find_recurrence": 1}
