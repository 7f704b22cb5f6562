"""Per-layer spans and counters, installed from outside the package.

The traced pass replaces the public functions and methods of every
gassmann module (the layers) by wrappers that record a span: name,
start, end and the index of the enclosing span.  A module-level
function is replaced in its defining module and at every site that
bound it by name (`from .lattice import det` in triples, permgroup and
abelext), so no call escapes through an old binding.  Spans stay in
memory; the metrics are computed when the repetition ends.

The counting pass wraps only the hot methods, with bare counters and no
clock, so that their many calls do not inflate the traced self times.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

LAYERS = ("permgroup", "lattice", "triples", "splitting", "homology",
          "abelext", "kgroups", "catalog", "cli")

# Called so often, at so little cost per call, that a span around each
# would dominate the caller's self time; the counting pass counts the
# ones an optimisation would target.
UNTRACED = {
    "permgroup.Permutation",
    "permgroup.CosetSpace.coset_index_of",
    "permgroup.AbHom",
    "permgroup.FinAbGroup",
    "permgroup.Abelianization.project",
    "lattice.IntMat",
    "homology.CoordSubgroup",
    "splitting.SplittingType",
}
# Private entry points traced because a metric needs them.
EXTRA = ("cli._build_parser", "cli._config_from_args")

# inclusive time of the outermost span among these names
INCLUSIVE = {
    "permgroup.coset_space_s": (
        "permgroup.coset_action", "permgroup.CosetSpace.__init__",
        "permgroup.CosetSpace.permutation_of",
        "permgroup.CosetSpace.h_components"),
    "permgroup.classes_s": ("permgroup.conjugacy_classes",
                            "permgroup._GroupBase.conjugacy_classes",
                            "permgroup._GroupBase.class_of"),
    "permgroup.all_subgroups_s": ("permgroup._GroupBase.all_subgroups",),
    "permgroup.abelianization_s": ("permgroup.abelianization",
                                   "permgroup.Abelianization.__init__"),
    "permgroup.transfer_s": ("permgroup.transfer",),
    "lattice.det_s": ("lattice.det",),
    "lattice.adjugate_s": ("lattice.adjugate",),
    "lattice.mns_s": ("lattice.maximal_normal_sublattice",),
    "lattice.snf_s": ("lattice.snf", "lattice.smith_with_transforms"),
    "lattice.hnf_s": ("lattice.hnf",),
    "triples.is_gassmann_s": ("triples.is_gassmann",),
    "triples.are_conjugate_s": ("triples.are_conjugate",),
    "triples.intertwiner_basis_s": ("triples.intertwiner_basis",),
    "homology.gthm_check_s": ("homology.gthm_check",),
    "abelext.choose_q_s": ("abelext.choose_q",),
    "abelext.notwkeq_s": ("abelext.notwkeq_construct",),
    "catalog.scott_triple_s": ("catalog.scott_triple",),
}
# self time of these spans: reading arguments and input files, without
# the group enumeration or matrix construction they start
SELF = {
    "cli.parse_s": ("cli._build_parser", "cli._config_from_args",
                    "permgroup.parse_group_file", "lattice.parse_matrix_file",
                    "kgroups.FieldModel.parse"),
}
# number of spans with one of these names
COUNTS = {
    "permgroup.coset_spaces_built": ("permgroup.CosetSpace.__init__",),
    "lattice.det_calls": ("lattice.det",),
    "lattice.adjugate_calls": ("lattice.adjugate",),
    "splitting.tables_built": ("splitting.splitting_table",),
    "homology.diagram_checks": ("homology.diagram_check",),
    "homology.gthm_checks": ("homology.gthm_check",),
    "kgroups.w_invariant_calls": ("kgroups.w_invariant",),
}
# number of spans with this name whose direct parent has the other name
CHILD_COUNTS = {
    "catalog.scott_closures": ("permgroup._GroupBase.subgroup",
                               "catalog.scott_triple"),
    "triples.det_evaluated": ("lattice.det", "triples.integral_search"),
}
# filled by the counting pass
COUNTED = ("permgroup.perm_products", "permgroup.coset_lookups",
           "permgroup.elements_enumerated", "permgroup.subgroups_found")


def _package_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "gassmann"
                                  or name.startswith("gassmann."))]


def _rebind(old, new) -> None:
    """Point every gassmann module attribute bound to `old` at `new`."""
    for module in _package_modules():
        for attr, value in list(vars(module).items()):
            if value is old:
                setattr(module, attr, new)


def _methods(layer: str, cls: type):
    """(span name, attribute, raw class-dict entry) for a class's own
    public methods and its constructor."""
    for attr, raw in list(vars(cls).items()):
        if attr.startswith("_") and attr != "__init__":
            continue
        fn = raw.__func__ if isinstance(raw, (classmethod,
                                              staticmethod)) else raw
        if inspect.isfunction(fn) and not inspect.isgeneratorfunction(fn):
            name = f"{layer}.{cls.__qualname__}.{attr}"
            if name not in UNTRACED:
                yield name, attr, raw


def _targets():
    """Everything the traced pass wraps: (span name, owner, attribute,
    raw attribute value)."""
    seen_classes = set()
    for layer in LAYERS:
        module = importlib.import_module(f"gassmann.{layer}")
        for attr in module.__all__:
            obj = getattr(module, attr)
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if f"{layer}.{attr}" in UNTRACED:
                continue
            if inspect.isfunction(obj):
                if not inspect.isgeneratorfunction(obj):
                    yield f"{layer}.{attr}", module, attr, obj
            elif inspect.isclass(obj):
                for cls in obj.__mro__:
                    if cls.__module__ != module.__name__ or \
                            cls in seen_classes:
                        continue
                    seen_classes.add(cls)
                    for name, method, raw in _methods(layer, cls):
                        yield name, cls, method, raw
    for dotted in EXTRA:
        layer, attr = dotted.split(".")
        module = importlib.import_module(f"gassmann.{layer}")
        yield dotted, module, attr, getattr(module, attr)


class Tracer:
    """Spans as [name, start, end, parent index]; parent -1 at top level."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = clock()
        return traced

    def install(self) -> "Tracer":
        for name, owner, attr, raw in list(_targets()):
            if isinstance(raw, (classmethod, staticmethod)):
                setattr(owner, attr, type(raw)(self.wrap(name, raw.__func__)))
            elif inspect.ismodule(owner):
                _rebind(raw, self.wrap(name, raw))
            else:
                setattr(owner, attr, self.wrap(name, raw))
        return self


def install_counters() -> dict:
    """Count the hot methods; returns the live counter dict."""
    from gassmann import permgroup
    counts = dict.fromkeys(COUNTED, 0)
    found: dict[int, int] = {}

    mul = permgroup.Permutation.__mul__

    def counted_mul(self, other):
        counts["permgroup.perm_products"] += 1
        return mul(self, other)

    lookup = permgroup.CosetSpace.coset_index_of

    def counted_lookup(self, x):
        counts["permgroup.coset_lookups"] += 1
        return lookup(self, x)

    closure = permgroup._closure

    def counted_closure(*args, **kwargs):
        elements = closure(*args, **kwargs)
        counts["permgroup.elements_enumerated"] += len(elements)
        return elements

    all_subgroups = permgroup._GroupBase.all_subgroups

    def counted_all_subgroups(self):
        result = all_subgroups(self)
        found[id(self)] = len(result)
        counts["permgroup.subgroups_found"] = sum(found.values())
        return result

    permgroup.Permutation.__mul__ = counted_mul
    permgroup.CosetSpace.coset_index_of = counted_lookup
    _rebind(closure, counted_closure)
    permgroup._GroupBase.all_subgroups = counted_all_subgroups
    return counts


def _outermost(spans: list[list], names: set) -> list[int]:
    out = []
    for i, (name, _, _, parent) in enumerate(spans):
        if name not in names:
            continue
        while parent >= 0 and spans[parent][0] not in names:
            parent = spans[parent][3]
        if parent < 0:
            out.append(i)
    return out


def layer_metrics(spans: list[list], run_s: float) -> tuple[dict, list[str]]:
    """Per-layer metrics from one traced repetition, and the problems
    found in the span accounting."""
    problems = []
    child = [0.0] * len(spans)
    for i, (name, start, end, parent) in enumerate(spans):
        if end < start:
            problems.append(f"span {name} ends before it starts")
        if parent >= 0:
            child[parent] += end - start
            p_start, p_end = spans[parent][1], spans[parent][2]
            if start < p_start or end > p_end:
                problems.append(f"span {name} leaves its parent")
    self_time = [end - start - child[i]
                 for i, (_, start, end, _) in enumerate(spans)]
    if any(t < -1e-9 for t in self_time):
        problems.append("negative self time")

    metrics = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    bench_self = 0.0
    for (name, _, _, _), own in zip(spans, self_time):
        layer = name.split(".", 1)[0]
        if layer == "bench":
            bench_self += own
        else:
            metrics[f"{layer}.self_s"] += own
    top = sum(end - start for _, start, end, parent in spans if parent < 0)
    glue = run_s - top + bench_self
    attributed = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
    if abs(attributed + glue - run_s) > 1e-6 * max(run_s, 1.0):
        problems.append(f"layer self times {attributed:.6f} s + glue "
                        f"{glue:.6f} s != traced run {run_s:.6f} s")
    if glue < 0:
        problems.append("spans cover more than the traced run")
    metrics["trace.glue_s"] = glue
    metrics["trace.run_s"] = run_s

    for metric, names in INCLUSIVE.items():
        metrics[metric] = sum(spans[i][2] - spans[i][1]
                              for i in _outermost(spans, set(names)))
    for metric, names in SELF.items():
        metrics[metric] = sum(own for (name, *_), own in zip(spans, self_time)
                              if name in names)
    for metric, names in COUNTS.items():
        metrics[metric] = sum(1 for span in spans if span[0] in names)
    for metric, (name, parent_name) in CHILD_COUNTS.items():
        metrics[metric] = sum(1 for span in spans
                              if span[0] == name and span[3] >= 0
                              and spans[span[3]][0] == parent_name)
    return metrics, problems
