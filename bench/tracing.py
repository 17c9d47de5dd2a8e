"""Span tracing of compseries from outside the package.

``Tracer.install`` replaces public functions of the compseries modules with
wrappers that record one span per call: name, parent span, start and end in
nanoseconds, and an optional integer read from the result (a length or a
flag).  Every module attribute bound to a traced function is replaced, so a
function imported under several names (``group_core.close_members`` and
``lattice.close_members``) is traced under all of them with one span name.

Spans are kept in flat arrays while the workload runs; ``layer_metrics``
turns them into the per-layer metrics and ``write`` dumps them afterwards.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array


def _length(result):
    return len(result)


def _flag(result):
    return int(bool(result))


def _computed(result):
    # count_series answers from G._series_count without recursing
    return int(getattr(result, "method", None) != "cached")


_FORMULAS = (
    "is_prime",
    "factorize",
    "exact_div",
    "multinomial",
    "count_cyclic",
    "gaussian_hyperplanes",
    "count_elem_abelian",
    "count_abelian",
    "count_abelian_elem_sylow",
    "maximal_subgroup_count_formula",
)

VERIFY_CHECKS = (
    "check_formula_oracle_agreement",
    "check_normal_vs_filter",
    "check_maximal_count_formula",
    "check_coprime_additivity",
    "check_simple_products",
    "check_bound_over_catalog",
)

# (module, function name, value read from the result).  Per-order helpers of
# the sweep such as factor_exponents are left out on purpose: a span per
# order would cost more than the work it measures.
FUNCTIONS = (
    [
        ("catalog", "realize", None),
        ("group_core", "close_members", _length),
        ("group_core", "classes_of_members", None),
        ("group_core", "derived_members", None),
        ("group_core", "coset_quotient", None),
        ("group_core", "is_normal", None),
        ("group_core", "is_abelian_members", _flag),
        ("group_core", "is_solvable_members", _flag),
        ("lattice", "all_subgroups", _length),
        ("lattice", "normal_member_sets", _length),
        ("lattice", "maximal_normal_member_sets", _length),
        ("series", "count_series", _computed),
        ("series", "enumerate_series", _length),
        ("cli", "main", None),
        ("bounds", "spf_sieve", None),
        ("bounds", "sweep_theorem_43", None),
    ]
    + [("formulas", name, None) for name in _FORMULAS]
    + [("verification", name, None) for name in VERIFY_CHECKS]
)

# (module, class, method, span name): construction of the core value types.
METHODS = (
    ("group_core", "GroupTable", "__init__", "group_core.GroupTable"),
    ("group_core", "Subgroup", "__post_init__", "group_core.Subgroup"),
)


class Tracer:
    def __init__(self):
        self.names = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.value = array("q")
        self._stack = []

    def _wrap(self, span_name, fn, read):
        nid = len(self.names)
        self.names.append(span_name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        value, stack = self.value, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            value.append(0)
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if read is _length and not hasattr(result, "__len__"):
                return self._iterate(i, iter(result))
            if read is not None:
                value[i] = read(result)
            return result

        return traced

    def _iterate(self, i, it):
        """Pass ``it`` through, charging the time spent inside it to span ``i``.

        While an item is produced, span ``i`` is the parent of new spans; its
        end moves by that time and its value counts the items.
        """
        clock, stack = time.perf_counter_ns, self._stack
        while True:
            stack.append(i)
            t = clock()
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                self.end[i] += clock() - t
                stack.pop()
            self.value[i] += 1
            yield item

    def install(self):
        """Wrap every traced function under every name it is bound to.

        A function or method the package no longer has is skipped, and its
        metrics read 0.
        """
        mods = {m: importlib.import_module(f"compseries.{m}") for m, _, _ in FUNCTIONS}
        holders = list(mods.values()) + [importlib.import_module("compseries")]
        for mod, name, read in FUNCTIONS:
            fn = getattr(mods[mod], name, None)
            if fn is None:
                continue
            traced = self._wrap(f"{mod}.{name}", fn, read)
            for holder in holders:
                for attr, val in list(vars(holder).items()):
                    if val is fn:
                        setattr(holder, attr, traced)
        for mod, cls_name, meth, span_name in METHODS:
            cls = getattr(mods[mod], cls_name, None)
            if cls is not None and meth in vars(cls):
                setattr(cls, meth, self._wrap(span_name, vars(cls)[meth], None))

    def write(self, path):
        """Dump the spans as tab-separated name, parent, start_ns, end_ns, value."""
        with open(path, "w") as fh:
            fh.write("span\tname\tparent\tstart_ns\tend_ns\tvalue\n")
            names = self.names
            for i, (nid, par, s, e, v) in enumerate(
                zip(self.name_id, self.parent, self.start, self.end, self.value)
            ):
                fh.write(f"{i}\t{names[nid]}\t{par}\t{s}\t{e}\t{v}\n")

    def layer_metrics(self):
        """The per-layer metrics of BENCHMARK.json, computed from the spans."""
        n = len(self.start)
        nid_of = {name: i for i, name in enumerate(self.names)}
        name_id, parent, value = self.name_id, self.parent, self.value
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
        k = len(self.names)
        self_ns = [0] * k
        total_ns = [0] * k
        calls = [0] * k
        vsum = [0] * k
        for i in range(n):
            j = name_id[i]
            self_ns[j] += dur[i] - child[i]
            total_ns[j] += dur[i]
            calls[j] += 1
            vsum[j] += value[i]

        def nearest(target):
            """Index of each span's nearest strict ancestor named ``target``."""
            t = nid_of.get(target, -1)
            up = array("i", [-1]) * n
            for i in range(n):
                p = parent[i]
                if p >= 0:
                    up[i] = p if name_id[p] == t else up[p]
            return up

        mnms = nid_of.get("lattice.maximal_normal_member_sets", -1)
        close = nid_of.get("group_core.close_members", -1)
        is_ab = nid_of.get("group_core.is_abelian_members", -1)
        is_solv = nid_of.get("group_core.is_solvable_members", -1)
        count_id = nid_of.get("series.count_series", -1)

        under_nms = nearest("lattice.normal_member_sets")
        join_closures = sum(
            1 for i in range(n) if name_id[i] == close and under_nms[i] >= 0
        )

        branch = {"abelian": 0, "solvable": 0, "nonsolvable": 0}
        for i in range(n):
            p = parent[i]
            if p < 0 or name_id[p] != mnms:
                continue
            if name_id[i] == is_ab and value[i]:
                branch["abelian"] += 1
            elif name_id[i] == is_solv:
                branch["solvable" if value[i] else "nonsolvable"] += 1

        # count_series memo, seen from outside: every memo miss on a
        # non-trivial subgroup makes one maximal_normal_member_sets call, and
        # every child it returns is one memo lookup.
        under_count = nearest("series.count_series")
        computing = {i for i in range(n) if name_id[i] == count_id and value[i]}
        memo_nodes = len(computing)
        children = 0
        for i in range(n):
            if name_id[i] == mnms and under_count[i] in computing:
                memo_nodes += 1
                children += value[i]
        memo_calls = memo_nodes - len(computing)
        memo_hits = children - memo_calls

        def ms(name):
            j = nid_of.get(name)
            return self_ns[j] / 1e6 if j is not None else 0.0

        def count(name, table=calls):
            j = nid_of.get(name)
            return table[j] if j is not None else 0

        nms = "lattice.normal_member_sets"
        chains = count("series.enumerate_series", vsum)
        formulas_ids = [j for j, name in enumerate(self.names) if name.startswith("formulas.")]
        out = {}
        for name in (
            "catalog.realize",
            "group_core.GroupTable",
            "group_core.close_members",
            "group_core.classes_of_members",
            "group_core.derived_members",
            "group_core.coset_quotient",
            "group_core.is_normal",
            nms,
            "lattice.maximal_normal_member_sets",
            "group_core.Subgroup",
            "bounds.spf_sieve",
        ):
            out[f"{name}.self_ms"] = ms(name)
            out[f"{name}.calls"] = count(name)
        out["group_core.close_members.elements"] = count("group_core.close_members", vsum)
        out["lattice.all_subgroups.self_ms"] = ms("lattice.all_subgroups")
        out["lattice.all_subgroups.subgroups"] = count("lattice.all_subgroups", vsum)
        out[f"{nms}.results"] = count(nms, vsum)
        out["lattice.normal_join_yield"] = (
            count(nms, vsum) / join_closures if join_closures else 0.0
        )
        out["lattice.maximal_normal_member_sets.children"] = count(
            "lattice.maximal_normal_member_sets", vsum
        )
        for b, c in branch.items():
            out[f"lattice.branch.{b}.calls"] = c
        out["series.count_series.self_ms"] = ms("series.count_series")
        out["series.memo_nodes"] = memo_nodes
        out["series.memo_hits"] = memo_hits
        out["series.memo_hit_ratio"] = (
            memo_hits / (memo_hits + memo_nodes) if memo_nodes else 0.0
        )
        out["series.enumerate_series.self_ms"] = ms("series.enumerate_series")
        out["series.chains"] = chains
        out["series.chain_us"] = (
            count("series.enumerate_series", total_ns) / 1e3 / chains if chains else 0.0
        )
        out["cli.main.self_ms"] = ms("cli.main")
        out["bounds.sweep_theorem_43.self_ms"] = ms("bounds.sweep_theorem_43")
        out["formulas.self_ms"] = sum(self_ns[j] for j in formulas_ids) / 1e6
        out["formulas.calls"] = sum(calls[j] for j in formulas_ids)
        for check in VERIFY_CHECKS:
            out[f"verification.{check}.self_ms"] = ms(f"verification.{check}")
        out["trace.spans"] = n
        return out
