"""Per-layer spans and counters for cmkit, taken from outside the package.

`Tracer.install()` replaces public cmkit functions and methods with timing
or counting wrappers.  A function is replaced at every attribute where it is
looked up: each loaded `cmkit` module attribute that holds the original
object (so re-bound names such as `cmkit.criteria.quotient_surface` and
`cmkit.reports.quotient_surface` are covered), and each class attribute that
aliases a wrapped method (`Cyclotomic.__radd__ = __add__`).  Nothing under
`src/` is modified; `uninstall()` puts every original back.

Spans are kept in memory as `[id, parent, op, name, start, end]` and written
out by the caller when the run ends.  A layer's self time is the span's
duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

# (module, qualified attribute) -> span name.  Every `*_s` metric of a layer
# is the summed self time of its spans.
SPAN_TARGETS = {
    ("cmkit.group", "FiniteGroup.__init__"): "group.build",
    ("cmkit.group", "FiniteGroup.conjugacy_classes"): "group.classes",
    ("cmkit.group", "FiniteGroup.all_subgroups"): "group.subgroups",
    ("cmkit.group", "FiniteGroup.coset_action"): "group.coset_action",
    ("cmkit.group", "FiniteGroup.normalizer"): "group.normalizer",
    ("cmkit.group", "FiniteGroup.quotient_with_map"): "group.quotient",
    ("cmkit.chartable", "character_table"): "chartable.table",
    ("cmkit.chartable", "fixed_space_dimension"): "chartable.fixed_dim",
    ("cmkit.chartable", "inner_product"): "chartable.inner_product",
    ("cmkit.surface", "find_generating_vectors"): "surface.vector_search",
    ("cmkit.surface", "chevalley_weil_multiplicities"): "surface.cw",
    ("cmkit.surface", "quotient_surface"): "surface.quotient",
    ("cmkit.surface", "galois_quotient_signature"): "surface.galois_sig",
    ("cmkit.criteria", "streit_test"): "criteria.streit",
    ("cmkit.criteria", "cm_verdict"): "criteria.search",
    ("cmkit.criteria", "verify_isogeny_relation"): "criteria.identity_check",
    ("cmkit.criteria", "check_statement_a"): "criteria.statement_a",
    ("cmkit.criteria", "check_statement_b"): "criteria.statement_b",
    ("cmkit.criteria", "reverify_verdict"): "criteria.reverify",
    ("cmkit.reports", "verdict_json"): "reports.payload",
    ("cmkit.reports", "quotient_table_json"): "reports.payload",
    ("cmkit.reports", "character_table_json"): "reports.payload",
    ("cmkit.reports", "relation_json"): "reports.payload",
    ("cmkit.reports", "relation_report_json"): "reports.payload",
    ("cmkit.reports", "group_json"): "reports.payload",
    ("cmkit.reports", "signature_json"): "reports.payload",
    ("cmkit.cli", "main"): "cli.command",
}

# Hot methods are only counted: a span per call would cost more than the call.
COUNT_TARGETS = {
    ("cmkit.perm", "Permutation.__init__"): "perm.construct_n",
    ("cmkit.perm", "Permutation.__mul__"): "perm.compose_n",
    ("cmkit.cyclotomic", "Cyclotomic.__mul__"): "cyclotomic.mul_n",
    ("cmkit.cyclotomic", "Cyclotomic.__add__"): "cyclotomic.add_n",
}

# Per-layer metric -> (kind, argument).  "self": summed self time of a span
# name; "calls": number of spans of a name; "counter": a counter;
# "ratio": one counter over another.
LAYER_METRICS = {
    "perm.compose_n": ("counter", "perm.compose_n"),
    "perm.construct_n": ("counter", "perm.construct_n"),
    "group.build_s": ("self", "group.build"),
    "group.classes_s": ("self", "group.classes"),
    "group.subgroups_s": ("self", "group.subgroups"),
    "group.subgroups_n": ("counter", "group.subgroups_n"),
    "group.coset_action_s": ("self", "group.coset_action"),
    "group.coset_action_n": ("calls", "group.coset_action"),
    "group.normalizer_s": ("self", "group.normalizer"),
    "group.quotient_s": ("self", "group.quotient"),
    "cyclotomic.mul_n": ("counter", "cyclotomic.mul_n"),
    "cyclotomic.add_n": ("counter", "cyclotomic.add_n"),
    "chartable.table_s": ("self", "chartable.table"),
    "chartable.classes_n": ("counter", "chartable.classes_n"),
    "chartable.fixed_dim_s": ("self", "chartable.fixed_dim"),
    "chartable.fixed_dim_n": ("calls", "chartable.fixed_dim"),
    "chartable.inner_product_s": ("self", "chartable.inner_product"),
    "surface.vector_search_s": ("self", "surface.vector_search"),
    "surface.cw_s": ("self", "surface.cw"),
    "surface.quotient_s": ("self", "surface.quotient"),
    "surface.quotient_n": ("calls", "surface.quotient"),
    "surface.galois_sig_s": ("self", "surface.galois_sig"),
    "surface.galois_sig_n": ("calls", "surface.galois_sig"),
    "criteria.streit_s": ("self", "criteria.streit"),
    "criteria.search_s": ("self", "criteria.search"),
    "criteria.collections_n": ("counter", "criteria.collections_n"),
    "criteria.certified_ratio": ("ratio", ("criteria.certified_n", "criteria.collections_n")),
    "criteria.identity_checks_n": ("calls", "criteria.identity_check"),
    "criteria.statement_a_n": ("calls", "criteria.statement_a"),
    "criteria.statement_b_n": ("calls", "criteria.statement_b"),
    "criteria.statement_b_s": ("self", "criteria.statement_b"),
    "criteria.reverify_s": ("self", "criteria.reverify"),
    "reports.payload_s": ("self", "reports.payload"),
    "reports.payload_bytes": ("counter", "reports.payload_bytes"),
    "cli.startup_s": ("counter", "cli.startup_s"),
    "cli.command_s": ("self", "cli.command"),
}

UNITS = {"_s": "s", "_n": "count", "_bytes": "B", "_ratio": "ratio"}


def unit_of(metric: str) -> str:
    for suffix, unit in UNITS.items():
        if metric.endswith(suffix):
            return unit
    raise ValueError(f"no unit for {metric}")


def _count_distinct(tracer: "Tracer", key: str, obj, size: int) -> None:
    """Count `size` once per distinct cached object within one operation."""
    if id(obj) not in tracer.seen:
        tracer.seen[id(obj)] = obj  # keeps the id from being reused
        tracer.counts[key] += size


def _after_subgroups(tracer, result):
    _count_distinct(tracer, "group.subgroups_n", result, len(result))


def _after_table(tracer, result):
    _count_distinct(tracer, "chartable.classes_n", result, len(result))


def _after_verdict(tracer, verdict):
    for entry in verdict.search_log:
        if entry.get("stage") == "collection":
            tracer.counts["criteria.collections_n"] += 1
            if entry.get("result") == "certified":
                tracer.counts["criteria.certified_n"] += 1


AFTER = {
    "group.subgroups": _after_subgroups,
    "chartable.table": _after_table,
    "criteria.search": _after_verdict,
}


def _resolve(module: str, qualname: str):
    """(owner, original) for a target, or None when its module is not loaded."""
    owner = sys.modules.get(module)
    if owner is None:
        return None
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, (owner.__dict__[attr] if path else getattr(owner, attr))


class Tracer:
    """Spans and counters of one traced run, in memory until written out."""

    def __init__(self):
        self.spans: List[list] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.op = 0
        self.seen: Dict[int, object] = {}
        self._stack: List[int] = []
        self._undo: List[tuple] = []

    def begin_op(self, op: int) -> None:
        self.op = op
        self.seen = {}

    # -- wrappers --------------------------------------------------------

    def _span_wrapper(self, name: str, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        after = AFTER.get(name)

        def wrapper(*args, **kwargs):
            rec = [len(spans) + 1, stack[-1] if stack else 0, self.op, name, clock(), 0.0]
            spans.append(rec)
            stack.append(rec[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[5] = clock()
                stack.pop()
            if after is not None:
                after(self, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, key: str, fn: Callable) -> Callable:
        counts = self.counts

        def wrapper(*args):
            counts[key] += 1
            return fn(*args)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        """Wrap every target wherever a loaded cmkit module or class holds it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "cmkit" or n.startswith("cmkit."))]
        for targets, make in ((SPAN_TARGETS, self._span_wrapper),
                              (COUNT_TARGETS, self._count_wrapper)):
            for (module, qualname), name in targets.items():
                resolved = _resolve(module, qualname)
                if resolved is None:
                    continue
                owner, original = resolved
                wrapper = make(name, original)
                if isinstance(owner, type):
                    holders = [owner]
                else:
                    holders = modules
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, key, wrapper)
                            self._undo.append((holder, key, original))

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._undo):
            setattr(holder, key, original)
        self._undo.clear()

    # -- results ---------------------------------------------------------

    def add_child_trace(self, data: dict, op: int) -> None:
        """Merge the spans and counters a traced child process wrote."""
        offset = len(self.spans)
        for sid, parent, _, name, start, end in data["spans"]:
            self.spans.append([sid + offset, parent + offset if parent else 0,
                               op, name, start, end])
        for key, value in data["counts"].items():
            self.counts[key] += value

    def self_times(self) -> Dict[str, float]:
        duration = {rec[0]: rec[5] - rec[4] for rec in self.spans}
        child = defaultdict(float)
        for rec in self.spans:
            if rec[1]:
                child[rec[1]] += duration[rec[0]]
        out: Dict[str, float] = defaultdict(float)
        for rec in self.spans:
            out[rec[3]] += duration[rec[0]] - child[rec[0]]
        return out

    def calls(self) -> Dict[str, int]:
        out: Dict[str, int] = defaultdict(int)
        for rec in self.spans:
            out[rec[3]] += 1
        return out

    def layer_metrics(self, passes: int) -> Dict[str, float]:
        """Every per-layer metric, per traced pass over the input set."""
        selfs, calls = self.self_times(), self.calls()
        out = {}
        for metric, (kind, arg) in LAYER_METRICS.items():
            if kind == "self":
                value = selfs.get(arg, 0.0) / passes
            elif kind == "calls":
                value = calls.get(arg, 0) / passes
            elif kind == "counter":
                value = self.counts.get(arg, 0) / passes
            else:
                num, den = (self.counts.get(k, 0) for k in arg)
                value = num / den if den else 0.0
            out[metric] = value
        return out

    def write(self, path: str, extra: Optional[dict] = None) -> None:
        """Write every span as one JSON line, then the counters."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, op, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "op": op, "name": name,
                                     "start": start, "end": end}) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts), **(extra or {})}) + "\n")
