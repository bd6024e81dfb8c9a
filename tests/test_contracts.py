"""What code outside the package's tests relies on, checked by reading it.

The benchmark under ``perfbench/`` wraps every function named in
``spans.TRACED`` and reads fields of their results, so a rename in
``src/`` breaks ``--trace 1`` or the benchmark's set-up; these tests
fail first.  ``scripts/build_corpus.py`` imports ``tests/oracles.py``,
which must therefore need nothing beyond the standard library and
``conifold``.
"""

import ast
import importlib
import importlib.util
import json
import sys
from pathlib import Path

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
