"""Layer spans recorded from outside the package.

``Tracer.install`` replaces each traced public function of ``conifold``
with a wrapper, in every loaded ``conifold`` module that binds it (``cli``
imports ``period_sequence`` by name, ``nodal`` imports ``polar_dual``, and
so on), and ``uninstall`` puts the originals back.  A span is
``[name, start, end, done, parent, job]``: ``end`` is when the function
returned and ``done`` is after the wrapper's counter probe ran, so a
parent's self time excludes its children's probes as well as their work.
Spans stay in memory and are written once, when the run ends.

The program is one process and one thread with no queue, so no layer ever
waits on another; spans measure busy time only.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict

from workloads import facet_box_cells

LAYERS = ("cli", "lattice", "laurent", "nodal", "linalg", "recurrence", "fanodb")


# -- counter probes: (tracer, args, kwargs, result) -> None ------------------


def _hull_counts(t, args, kwargs, result):
    c = t.counters
    c["lattice.facets_out"] += len(result.facets)
    for f in result.facets:
        c["lattice.facet_lattice_points_out"] += len(f.lattice_points)
        c["lattice.box_cells"] += facet_box_cells(f.vertices)
    top = max(abs(x) for v in result.vertices for x in v)
    t.max_abs_coord = max(t.max_abs_coord, top)


def _periods_counts(t, args, kwargs, result):
    t.counters["laurent.terms_out"] += len(result.terms)
    t.counters["laurent.vertex_monomials"] += len(args[0].terms)


def _lp_counts(t, args, kwargs, result):
    t.counters["nodal.lp_rows"] += len(args[0])


def _resolution_counts(t, args, kwargs, result):
    t.counters["nodal.resolutions"] += len(result)


def _regular_counts(t, args, kwargs, result):
    t.counters["nodal.regular"] += sum(bool(r.regular) for r in result)


def _kernel_counts(t, args, kwargs, result):
    rows = args[0]
    ncols = kwargs.get("ncols", args[1] if len(args) > 1 else None)
    if ncols is None:
        ncols = len(rows[0])
    t.counters["linalg.kernel_basis.entries"] += len(rows) * ncols
    if any(t.spans[i][0] == "recurrence.find_recurrence" for i in t.stack):
        t.counters["recurrence.cells_tried"] += 1


def _recurrence_counts(t, args, kwargs, result):
    t.counters["recurrence.searches"] += 1
    t.counters["recurrence.found"] += result is not None


def _match_counts(t, args, kwargs, result):
    t.counters["fanodb.records_scanned"] += len(args[2])


# (layer, function, probe): every public function of the layers the jobs
# reach.  linalg.row_reduce and max_slack stay unwrapped so that rank,
# kernel_basis and strictly_feasible keep the elimination as self time.
TRACED = (
    ("cli", "main", None),
    ("lattice", "convex_hull", _hull_counts),
    ("lattice", "rational_hull", None),
    ("lattice", "polar_dual", None),
    ("lattice", "is_reflexive", None),
    ("lattice", "normalized_volume", None),
    ("lattice", "polytope_from_json_dict", None),
    ("laurent", "from_fan_polytope", None),
    ("laurent", "period_sequence", _periods_counts),
    ("laurent", "period_term_direct", None),
    ("nodal", "classify_facet", None),
    ("nodal", "nodal_profile", None),
    ("nodal", "enumerate_small_resolutions", _resolution_counts),
    ("nodal", "is_regular_triangulation", None),
    ("nodal", "check_regularity", _regular_counts),
    ("nodal", "exceptional_relation_matrix", None),
    ("nodal", "exceptional_relation_rank", None),
    ("nodal", "friedman_smoothable", None),
    ("nodal", "transition_invariants", None),
    ("nodal", "report_json_dict", None),
    ("linalg", "rank", None),
    ("linalg", "kernel_basis", _kernel_counts),
    ("linalg", "det", None),
    ("linalg", "strictly_feasible", _lp_counts),
    ("recurrence", "find_recurrence", _recurrence_counts),
    ("recurrence", "verify_recurrence", None),
    ("recurrence", "gw_labeling", None),
    ("fanodb", "load_database", None),
    ("fanodb", "match", _match_counts),
)

# per-layer metrics reported for every workload: name -> unit.  Counts and
# times are per traced pass over the job list.
CALLS_AND_SELF = (
    "laurent.period_sequence", "linalg.strictly_feasible", "lattice.convex_hull",
    "linalg.rank", "linalg.det", "recurrence.find_recurrence", "linalg.kernel_basis",
)
SELF_ONLY = (
    "nodal.check_regularity", "lattice.polar_dual", "lattice.normalized_volume",
    "nodal.nodal_profile", "nodal.transition_invariants",
    "nodal.enumerate_small_resolutions", "fanodb.load_database", "fanodb.match",
)
CALLS_ONLY = ("nodal.is_regular_triangulation",)
COUNTS = (
    "laurent.terms_out", "laurent.vertex_monomials", "nodal.lp_rows",
    "nodal.resolutions", "nodal.regular", "lattice.points_in", "lattice.facets_out",
    "lattice.facet_lattice_points_out", "lattice.box_cells", "recurrence.cells_tried",
    "linalg.kernel_basis.entries", "fanodb.records_scanned",
)


def metric_units() -> dict:
    units = {}
    for fn in CALLS_AND_SELF:
        units[f"{fn}.calls"] = "count"
        units[f"{fn}.self_s"] = "s"
    for fn in SELF_ONLY:
        units[f"{fn}.self_s"] = "s"
    for fn in CALLS_ONLY:
        units[f"{fn}.calls"] = "count"
    for name in COUNTS:
        units[name] = "count"
    units["lattice.max_abs_coord"] = "count"
    units["recurrence.found_ratio"] = "ratio"
    units["cli.self_s"] = "s"
    units["cli.jobs"] = "count"
    for layer in LAYERS:
        units[f"{layer}.layer_self_s"] = "s"
        units[f"{layer}.layer_share"] = "ratio"
    units["regularity.share"] = "ratio"
    units["trace.wall_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


def _conifold_modules():
    return [m for name, m in list(sys.modules.items())
            if name == "conifold" or name.startswith("conifold.")]


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.job = -1
        self.counters: Counter = Counter()
        self.max_abs_coord = 0
        self._patches: list = []

    def install(self) -> None:
        for layer, fname, probe in TRACED:
            module = importlib.import_module(f"conifold.{layer}")
            original = getattr(module, fname)
            wrapper = self._wrap(f"{layer}.{fname}", original, probe)
            for m in _conifold_modules():
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
                        self._patches.append((m, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            m, attr, original = self._patches.pop()
            setattr(m, attr, original)

    def _wrap(self, name, fn, probe):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        hull = name == "lattice.convex_hull"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hull and args:
                # convex_hull takes any iterable; count it without consuming it
                args = (list(args[0]),) + args[1:]
                self.counters["lattice.points_in"] += len(args[0])
            span = [name, 0.0, 0.0, 0.0, stack[-1] if stack else -1, self.job]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if probe is not None:
                probe(self, args, kwargs, result)
            span[3] = clock()
            return result

        return wrapper

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, _done, parent, job in self.spans:
                fh.write(json.dumps([name, start, end, parent, job]) + "\n")

    def metrics(self, passes: int) -> dict:
        """Per-layer metrics, averaged over ``passes`` traced passes."""
        covered = [0.0] * len(self.spans)
        for name, start, _end, done, parent, _job in self.spans:
            if parent >= 0:
                covered[parent] += done - start
        self_s: dict = defaultdict(float)
        calls: Counter = Counter()
        regularity = 0.0
        for i, (name, start, end, _done, parent, _job) in enumerate(self.spans):
            self_s[name] += end - start - covered[i]
            calls[name] += 1
            if name == "nodal.check_regularity":
                regularity += end - start
        out = {}
        for fn in CALLS_AND_SELF + CALLS_ONLY:
            out[f"{fn}.calls"] = calls[fn] / passes
        for fn in CALLS_AND_SELF + SELF_ONLY:
            out[f"{fn}.self_s"] = self_s[fn] / passes
        for name in COUNTS:
            out[name] = self.counters[name] / passes
        out["lattice.max_abs_coord"] = self.max_abs_coord
        searches = self.counters["recurrence.searches"]
        out["recurrence.found_ratio"] = self.counters["recurrence.found"] / searches if searches else 0.0
        out["cli.self_s"] = self_s["cli.main"] / passes
        out["cli.jobs"] = calls["cli.main"] / passes
        layer_self: dict = defaultdict(float)
        for name, seconds in self_s.items():
            layer_self[name.split(".")[0]] += seconds
        total = sum(layer_self.values()) or 1.0
        for layer in LAYERS:
            out[f"{layer}.layer_self_s"] = layer_self[layer] / passes
            out[f"{layer}.layer_share"] = layer_self[layer] / total
        # inclusive: check_regularity's own work plus the LPs and the wall
        # determinants under it
        out["regularity.share"] = regularity / total
        return out
