"""Span and call-count tracing of the library, installed from outside it.

``install()`` replaces public functions of ``gradedmodels`` by wrappers.
A function is patched in every submodule namespace that holds it, so a
call made through ``from .structure import make_structure`` in
``classes`` is seen as well as one made inside ``structure``.  Each
namespace gets its own wrapper, which lets a test see that every
binding is reached.  The package namespace (``gradedmodels``) is left
alone: the CLI never calls through it.

Two kinds of wrapper:

* span wrappers record (name, start, end, parent) for each call;
* count wrappers only count calls.  They sit on the hot leaves (chain
  operations, structure validation), where a span per call would cost
  more than the work.

Spans are kept in flat arrays and written out by ``dump``; ``Totals``
sums dumps and ``layer_metrics`` turns the sums into per-layer metrics.
"""

from __future__ import annotations

import importlib
import json
import time
from array import array

MODULES = ("algebra", "structure", "classes", "fraisse", "logic", "cli")

# Span name -> (defining module, function names).
SPANS = {
    "algebra.resolve_chain": ("algebra", ("resolve_chain",)),
    "structure.make_structure": ("structure", ("make_structure",)),
    "structure.canonical_form": ("structure", ("canonical_form",)),
    "structure.find_embeddings": ("structure", ("find_embeddings",)),
    "structure.extend_embedding": ("structure", ("extend_embedding",)),
    "structure.structure_from_text": ("structure", ("structure_from_text",)),
    "structure.structure_to_text": ("structure", ("structure_to_text",)),
    "classes.membership": ("classes", ("k0_member", "k1_member", "k2_member", "k3_member")),
    "classes.enumerate_class": ("classes", ("enumerate_class",)),
    "classes.check_ap": ("classes", ("check_ap",)),
    "classes.check_jep": ("classes", ("check_jep",)),
    "fraisse.amalgamate": ("fraisse", ("amalgamate_k1", "amalgamate_k2", "amalgamate_k3",
                                       "k0_jep", "k1_jep", "k2_jep", "k3_jep")),
    "fraisse.search_amalgam": ("fraisse", ("search_amalgam",)),
    "fraisse.build_limit": ("fraisse", ("build_limit",)),
    "fraisse.replay_transcript": ("fraisse", ("replay_transcript",)),
    "fraisse.check_extension_property": ("fraisse", ("check_extension_property",)),
    "fraisse.check_random_graph_property": ("fraisse", ("check_random_graph_property",)),
    "logic.evaluate": ("logic", ("evaluate",)),
    "logic.parse_formula": ("logic", ("parse_formula",)),
}

# Count name -> (defining module, function names).
COUNTED_FUNCTIONS = {
    "structure.restrict": ("structure", ("restrict",)),
    "structure.rename": ("structure", ("rename",)),
}

# Count name -> (module, class, method).  Dataclass ``__init__`` looks
# ``__post_init__`` up on the class, so patching it there counts every
# construction.
COUNTED_METHODS = {
    "algebra.check_rank": ("algebra", "Chain", "check_rank"),
    "algebra.in_filter": ("algebra", "Chain", "in_filter"),
    "algebra.res": ("algebra", "Chain", "res"),
    "algebra.meet": ("algebra", "Chain", "meet"),
    "algebra.join": ("algebra", "Chain", "join"),
    "algebra.conj": ("algebra", "Chain", "conj"),
    "algebra.leq": ("algebra", "Chain", "leq"),
    "structure.validated_builds": ("structure", "GradedStructure", "__post_init__"),
    "fraisse.v_formations": ("fraisse", "VFormation", "__post_init__"),
}

# Span name -> size of a call's result, kept per span for the yields.
RESULT_SIZE = {
    "classes.enumerate_class": len,
    "fraisse.search_amalgam": lambda found: int(found is not None),
}

CLI_SPAN = "cli.main"


class Tracer:
    """Records spans and counts; one instance per traced process."""

    def __init__(self):
        self.labels: list[str] = []  # "<metric name>@<namespace>.<attr>"
        self.counts: list[int] = []
        self.span_label = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_result: dict[int, int] = {}  # span index -> result size, see RESULT_SIZE
        self._stack: list[int] = []

    def _label(self, label: str) -> int:
        self.labels.append(label)
        self.counts.append(0)
        return len(self.labels) - 1

    def span(self, label: str, fn):
        lid = self._label(label)
        labels, parents, starts, ends = self.span_label, self.span_parent, self.span_start, self.span_end
        stack = self._stack
        clock = time.perf_counter
        size_of = RESULT_SIZE.get(label.partition("@")[0])
        results = self.span_result

        def wrapper(*args, **kwargs):
            idx = len(labels)
            labels.append(lid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if size_of is not None:
                results[idx] = size_of(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, label: str, fn):
        lid = self._label(label)
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[lid] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every listed function in every submodule that binds it."""
        mods = {m: importlib.import_module(f"gradedmodels.{m}") for m in MODULES}

        def patch_functions(table, make):
            for metric, (home, names) in table.items():
                for fname in names:
                    original = getattr(mods[home], fname, None)
                    if original is None:
                        continue
                    for mname, mod in mods.items():
                        if mod.__dict__.get(fname) is original:
                            setattr(mod, fname, make(f"{metric}@{mname}.{fname}", original))

        patch_functions(SPANS, self.span)
        patch_functions(COUNTED_FUNCTIONS, self.counter)
        for metric, (home, cls_name, meth) in COUNTED_METHODS.items():
            cls = getattr(mods[home], cls_name, None)
            if cls is None or meth not in cls.__dict__:
                continue
            setattr(cls, meth, self.counter(f"{metric}@{home}.{cls_name}.{meth}", cls.__dict__[meth]))

    def dump(self, path: str) -> None:
        """Write counts and spans: a JSON header line, then the raw arrays."""
        span_calls = [0] * len(self.labels)
        for lid in self.span_label:
            span_calls[lid] += 1
        header = {
            "labels": self.labels,
            "counts": [c + s for c, s in zip(self.counts, span_calls)],
            "spans": len(self.span_label),
            "results": sorted(self.span_result.items()),
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_label, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)


def load(path: str):
    """Read a dump back: (header, label ids, parents, starts, ends)."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["spans"]
        arrays = []
        for code in ("i", "i", "d", "d"):
            arr = array(code)
            arr.fromfile(fh, n)
            arrays.append(arr)
    return (header, *arrays)


class Totals:
    """Per-layer sums over the dumps of one pass of a workload."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.total_s: dict[str, float] = {}
        self.binding_calls: dict[str, int] = {}
        self.children: dict[tuple[str, str], int] = {}  # (parent, child) span counts
        self.results: dict[str, int] = {}  # RESULT_SIZE sums over calls with children

    def add_dump(self, path: str) -> None:
        header, lab, par, start, end = load(path)
        metric_of = [label.partition("@")[0] for label in header["labels"]]
        for label, metric, count in zip(header["labels"], metric_of, header["counts"]):
            self.binding_calls[label] = self.binding_calls.get(label, 0) + count
            self.calls[metric] = self.calls.get(metric, 0) + count
        n = len(lab)
        child_time = [0.0] * n
        has_children = set()
        for i in range(n):
            p = par[i]
            if p >= 0:
                child_time[p] += end[i] - start[i]
                has_children.add(p)
                key = (metric_of[lab[p]], metric_of[lab[i]])
                self.children[key] = self.children.get(key, 0) + 1
        for i, size in header["results"]:
            # An enumeration answered from the library's own cache built
            # nothing, so it adds to neither side of the yield.
            if i in has_children:
                metric = metric_of[lab[i]]
                self.results[metric] = self.results.get(metric, 0) + size
        for i in range(n):
            metric = metric_of[lab[i]]
            duration = end[i] - start[i]
            self.self_s[metric] = self.self_s.get(metric, 0.0) + duration - child_time[i]
            if par[i] < 0 or metric_of[lab[par[i]]] != metric:
                # Not directly inside a span of its own name, so no time is counted twice.
                self.total_s[metric] = self.total_s.get(metric, 0.0) + duration


def _share(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(t: Totals) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, as name -> (value, unit)."""
    c, s, tot = t.calls, t.self_s, t.total_s
    out: dict[str, tuple[float, str]] = {}
    for name in ("check_rank", "in_filter", "res", "meet", "join", "conj", "leq"):
        out[f"algebra.{name}.calls"] = (c.get(f"algebra.{name}", 0), "count")
    out["algebra.resolve_chain.self_s"] = (s.get("algebra.resolve_chain", 0.0), "s")
    out["structure.validated_builds.calls"] = (c.get("structure.validated_builds", 0), "count")
    for name in ("make_structure", "canonical_form", "find_embeddings", "extend_embedding"):
        out[f"structure.{name}.calls"] = (c.get(f"structure.{name}", 0), "count")
        out[f"structure.{name}.self_s"] = (s.get(f"structure.{name}", 0.0), "s")
    out["structure.restrict.calls"] = (c.get("structure.restrict", 0), "count")
    out["structure.rename.calls"] = (c.get("structure.rename", 0), "count")
    for name in ("structure_from_text", "structure_to_text"):
        out[f"structure.{name}.self_s"] = (s.get(f"structure.{name}", 0.0), "s")
    out["classes.membership.calls"] = (c.get("classes.membership", 0), "count")
    out["classes.membership.self_s"] = (s.get("classes.membership", 0.0), "s")
    out["classes.enumerate_class.self_s"] = (s.get("classes.enumerate_class", 0.0), "s")
    candidates = t.children.get(("classes.enumerate_class", "structure.make_structure"), 0)
    members = t.results.get("classes.enumerate_class", 0)
    out["classes.enumerate.candidates"] = (candidates, "count")
    out["classes.enumerate.yield"] = (_share(members, candidates), "ratio")
    out["classes.check_ap.total_s"] = (tot.get("classes.check_ap", 0.0), "s")
    out["classes.check_jep.total_s"] = (tot.get("classes.check_jep", 0.0), "s")
    out["fraisse.amalgamate.calls"] = (c.get("fraisse.amalgamate", 0), "count")
    out["fraisse.amalgamate.self_s"] = (s.get("fraisse.amalgamate", 0.0), "s")
    searches = c.get("fraisse.search_amalgam", 0)
    search_candidates = t.children.get(("fraisse.search_amalgam", "structure.make_structure"), 0)
    out["fraisse.search_amalgam.calls"] = (searches, "count")
    out["fraisse.search_amalgam.self_s"] = (s.get("fraisse.search_amalgam", 0.0), "s")
    out["fraisse.search_amalgam.candidates"] = (search_candidates, "count")
    hits = t.results.get("fraisse.search_amalgam", 0)
    out["fraisse.search_amalgam.yield"] = (_share(hits, search_candidates), "ratio")
    out["fraisse.fallback_share"] = (_share(searches, c.get("fraisse.v_formations", 0)), "ratio")
    for name in ("build_limit", "replay_transcript", "check_extension_property",
                 "check_random_graph_property"):
        out[f"fraisse.{name}.total_s"] = (tot.get(f"fraisse.{name}", 0.0), "s")
    out["logic.evaluate.calls"] = (c.get("logic.evaluate", 0), "count")
    out["logic.evaluate.self_s"] = (s.get("logic.evaluate", 0.0), "s")
    out["logic.parse_formula.self_s"] = (s.get("logic.parse_formula", 0.0), "s")
    out["cli.self_s"] = (s.get(CLI_SPAN, 0.0), "s")
    return out
