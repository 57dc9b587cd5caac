"""The program's layers as the traced run sees them: where spans are
recorded, and how spans and counters become the per-layer metrics."""

from __future__ import annotations

from spans import Target, Tracer, child_counts, self_times


def _count_detection(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counters["normtest.conductors_checked"] += len(result.conductors_checked)
    tracer.counters["normtest.witnesses"] += result.witness_q is not None


def _count_search(tracer: Tracer, args, kwargs, result) -> None:
    """Candidates the search enumerated: the position of the element it
    returned in the order it walks, or all of them when it found none."""
    ext, _target, bound = args
    scalars = ext.default_height_candidates(bound)
    if isinstance(result, str):  # NOT_FOUND
        enumerated = len(scalars) ** ext.degree
    else:
        pos = 0
        for c in result.coords:
            pos = pos * len(scalars) + scalars.index(c)
        enumerated = pos + 1
    tracer.counters["compose.search.enumerated"] += enumerated


TARGETS = (
    Target("harness.scan_one", "harness", "scan_one"),
    Target("formclass.class_data", "formclass", "class_data"),
    Target("formclass.all_reduced_forms", "formclass", "all_reduced_forms"),
    Target("formclass.reduction_cycle", "formclass", "reduction_cycle"),
    Target("formclass.minkowski_class_number", "formclass", "minkowski_class_number"),
    Target("quadfield.fundamental_unit", "quadfield", "fundamental_unit",
           key=lambda F: F.d),
    Target("normtest.detect_p_divisibility", "normtest", "detect_p_divisibility",
           on_result=_count_detection),
    Target("normtest.admissible_conductors", "normtest", "admissible_conductors"),
    Target("normtest.norm_index", "normtest", "norm_index"),
    Target("normtest.local_norm_test", "normtest", "local_norm_test"),
    Target("cyclicext.cyclic_descriptor", "cyclicext", "cyclic_descriptor",
           key=lambda q, p, n: (q, p, n)),
    Target("cyclicext.period_polynomial", "cyclicext", "period_polynomial"),
    Target("cyclicext.struct_constants", "cyclicext", "_build_struct",
           cls="CyclicExtensionDescriptor"),
    Target("intmath.poly_discriminant", "intmath", "poly_discriminant"),
    Target("compose.relative_norm", "compose", "relative_norm", cls="RelativeExtension"),
    Target("compose.charpoly", "compose", "charpoly", cls="RelativeExtension"),
    Target("compose.search_norm_element", "compose", "search_norm_element",
           cls="RelativeExtension", on_result=_count_search),
    Target("transfer.transfer", "transfer", "transfer"),
    Target("transfer.restricted_transfer", "transfer", "restricted_transfer"),
    Target("transfer.diagram_check", "transfer", "diagram_check"),
    Target("transfer.FiniteGroup.__init__", "transfer", "__init__", cls="FiniteGroup"),
    Target("transfer.FiniteGroup.all_subgroups", "transfer", "all_subgroups", cls="FiniteGroup"),
    Target("transfer.FiniteGroup.subgroup_closure", "transfer", "subgroup_closure",
           cls="FiniteGroup"),
)

ITEM_SPAN = "bench.item"  # root span around each item, opened by the runner

# (span name, metrics taken from it); "distinct_ratio" needs a Target key
SPAN_METRICS = (
    ("formclass.class_data", ("self_s",)),
    ("formclass.all_reduced_forms", ("self_s",)),
    ("formclass.reduction_cycle", ("calls", "self_s")),
    ("formclass.minkowski_class_number", ("calls", "self_s")),
    ("normtest.detect_p_divisibility", ("calls", "self_s")),
    ("normtest.admissible_conductors", ("calls", "self_s")),
    ("normtest.norm_index", ("calls", "self_s")),
    ("normtest.local_norm_test", ("calls", "self_s")),
    ("cyclicext.cyclic_descriptor", ("calls", "self_s", "distinct_ratio")),
    ("quadfield.fundamental_unit", ("calls", "self_s", "distinct_ratio")),
    ("cyclicext.period_polynomial", ("self_s",)),
    ("cyclicext.struct_constants", ("self_s",)),
    ("intmath.poly_discriminant", ("calls", "self_s")),
    ("compose.relative_norm", ("calls", "self_s")),
    ("compose.charpoly", ("calls", "self_s")),
    ("compose.search_norm_element", ("calls", "self_s")),
    ("transfer.transfer", ("calls", "self_s")),
    ("transfer.restricted_transfer", ("calls", "self_s")),
    ("transfer.diagram_check", ("calls", "self_s")),
    ("transfer.FiniteGroup.__init__", ("self_s",)),
    ("transfer.FiniteGroup.all_subgroups", ("self_s",)),
    ("transfer.FiniteGroup.subgroup_closure", ("self_s",)),
    ("harness.scan_one", ("self_s",)),
    (ITEM_SPAN, ("self_s",)),
)

UNITS = {"calls": "count", "self_s": "s", "distinct_ratio": "ratio"}

# metrics that are not per-span: name -> unit
EXTRA_METRICS = {
    "normtest.conductors_checked": "count",
    "normtest.witness_ratio": "ratio",
    "compose.search.exact_ratio": "ratio",
    "trace.coverage": "ratio",
    "trace.overhead_s": "s",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    out = {}
    for span, kinds in SPAN_METRICS:
        for kind in kinds:
            out[f"{span}.{kind}"] = UNITS[kind]
    out.update(EXTRA_METRICS)
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, traced_s: float, untraced_s: float) -> tuple[dict, dict]:
    """Per-layer metrics of one traced run, and the bases of its ratios.

    ``traced_s`` and ``untraced_s`` are the wall times of the same rounds
    with and without tracing.
    """
    calls, self_ns = self_times(tracer.spans)
    values: dict[str, float] = {}
    for span, kinds in SPAN_METRICS:
        for kind in kinds:
            if kind == "calls":
                v = calls[span]
            elif kind == "self_s":
                v = self_ns.get(span, 0) / 1e9
            else:
                v = _ratio(len(tracer.distinct[span]), calls[span])
            values[f"{span}.{kind}"] = v
    checked = tracer.counters["normtest.conductors_checked"]
    exact = child_counts(tracer.spans, "compose.relative_norm", "compose.search_norm_element")
    enumerated = tracer.counters["compose.search.enumerated"]
    values["normtest.conductors_checked"] = checked
    values["normtest.witness_ratio"] = _ratio(tracer.counters["normtest.witnesses"], checked)
    values["compose.search.exact_ratio"] = _ratio(exact, enumerated)
    values["trace.coverage"] = _ratio(sum(self_ns.values()) / 1e9, traced_s)
    values["trace.overhead_s"] = traced_s - untraced_s
    bases = {
        "normtest.witnesses": tracer.counters["normtest.witnesses"],
        "compose.search.exact_norms": exact,
        "compose.search.enumerated": enumerated,
        "distinct_inputs": {span: len(keys) for span, keys in tracer.distinct.items()},
        "spans": len(tracer.spans),
        "traced_s": traced_s,
        "untraced_s": untraced_s,
    }
    return values, bases
