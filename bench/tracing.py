"""Span tracing of the hblcert layers, from outside the package.

`Tracer.install()` replaces the listed public functions and methods with
wrappers that record one span per call (name, start, end, parent) in
memory. Replacement is by identity across every loaded `hblcert` module, so
names bound with `from hblcert.linalg import image` are wrapped too.
`uninstall()` puts the originals back, so untraced passes run the bare code.

Spans of one pass are folded into additive raw counters (`fold`), which
children of the `cli` workload can ship to their parent; `metrics` turns
summed raw counters into the per-layer metrics.
"""

from __future__ import annotations

import importlib
import json
import sys
from time import perf_counter

# (module, attribute, span name); "Class.method" patches a method.
TARGETS = (
    ("hblcert.linalg", "image", "linalg.image"),
    ("hblcert.linalg", "canonicalize", "linalg.canonicalize"),
    ("hblcert.linalg", "kernel", "linalg.kernel"),
    ("hblcert.linalg", "Subspace.__add__", "linalg.sum"),
    ("hblcert.linalg", "Subspace.__and__", "linalg.intersect"),
    ("hblcert.linalg", "Subspace.projector", "linalg.projector"),
    ("hblcert.data", "generate_lattice", "data.generate_lattice"),
    ("hblcert.data", "subspace_slack", "data.subspace_slack"),
    ("hblcert.data", "quotient_datum", "data.quotient_datum"),
    ("hblcert.data", "restrict_datum", "data.restrict_datum"),
    ("hblcert.builder", "build_presentation", "builder.build_presentation"),
    ("hblcert.builder", "polytope_from_candidates", "builder.polytope_from_candidates"),
    ("hblcert.builder", "caratheodory", "builder.caratheodory"),
    ("hblcert.builder", "concatenate", "builder.concatenate"),
    ("hblcert.presentation", "verify_presentation", "presentation.verify_presentation"),
    ("hblcert.presentation", "bound_constant", "presentation.bound_constant"),
    ("hblcert.presentation", "edge_norm_squared", "presentation.edge_norm_squared"),
    ("hblcert.presentation", "summary_weight", "presentation.summary_weight"),
    ("hblcert.flowgraph", "decompose_flow", "flowgraph.decompose_flow"),
    ("hblcert.flowgraph", "project_weight", "flowgraph.project_weight"),
    ("hblcert.flowgraph", "is_balanced", "flowgraph.is_balanced"),
    ("hblcert.flowgraph", "validate_graph", "flowgraph.validate_graph"),
    ("hblcert.oracle", "gaussian_ascent", "oracle.gaussian_ascent"),
    ("hblcert.oracle", "ascent_log_ratio", "oracle.ascent_log_ratio"),
    ("hblcert.oracle", "gaussian_ratio", "oracle.gaussian_ratio"),
    ("hblcert.oracle", "quadrature_check", "oracle.quadrature_check"),
    ("hblcert.oracle", "grid_factorize", "oracle.grid_factorize"),
    ("hblcert.formats", "parse_datum", "formats.parse"),
    ("hblcert.formats", "parse_presentation", "formats.parse"),
    ("hblcert.formats", "parse_candidates", "formats.parse"),
    ("hblcert.formats", "serialize_datum", "formats.serialize"),
    ("hblcert.formats", "serialize_presentation", "formats.serialize"),
)


def _depth(trace_lines) -> int:
    """Deepest recursion level in a build trace (top level 0).

    The builder indents each line by two spaces per level; lines naming the
    extreme points of a split carry one extra indent and are skipped.
    """
    depth = 0
    for line in trace_lines:
        body = line.lstrip(" ")
        if not body.startswith("extreme"):
            depth = max(depth, (len(line) - len(body)) // 2)
    return depth


class Tracer:
    """In-memory span recorder; spans are [name, start, end, parent index]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.enabled = False
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.image_pairs: set = set()
        self.lattice_kept = 0
        self.lattice_size = 0
        self.polytope_rows = 0
        self.caratheodory_terms = 0
        self.chain_terms = 0
        self.recursion_depth = 0

    def reset(self) -> None:
        self.spans = []
        self._stack = []
        self.image_pairs = set()
        self.lattice_kept = self.lattice_size = 0
        self.polytope_rows = self.caratheodory_terms = 0
        self.chain_terms = self.recursion_depth = 0

    # -- installation ------------------------------------------------------
    def install(self) -> None:
        if self._saved:
            return
        for module_name, _, _ in TARGETS:
            importlib.import_module(module_name)
        packages = [m for name, m in list(sys.modules.items())
                    if name == "hblcert" or name.startswith("hblcert.")]
        for module_name, attr, span_name in TARGETS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._saved.append((cls, meth, original))
                setattr(cls, meth, self._wrap(original, span_name))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(original, span_name)
            for module in packages:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._saved):
            setattr(owner, key, original)
        self._saved = []

    def _wrap(self, fn, name: str):
        tracer = self
        hook = _HOOKS.get(name)
        is_build = name == "builder.build_presentation"

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if is_build and kwargs.get("trace") is None:
                kwargs["trace"] = []
            spans = tracer.spans
            stack = tracer._stack
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- folding -----------------------------------------------------------
    def fold(self) -> dict:
        """Additive raw counters of the spans recorded since `reset`."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        raw: dict[str, float] = {}
        formed = 0
        build_ids = set()
        verify_in_build = 0
        for k, (name, start, end, parent) in enumerate(spans):
            dur = end - start
            raw[name + ".calls"] = raw.get(name + ".calls", 0) + 1
            raw[name + ".self_s"] = raw.get(name + ".self_s", 0.0) + dur - child_time[k]
            raw[name + ".total_s"] = raw.get(name + ".total_s", 0.0) + dur
            if name == "builder.build_presentation":
                build_ids.add(k)
            if parent >= 0 and spans[parent][0] == "data.generate_lattice" \
                    and name in ("linalg.sum", "linalg.intersect"):
                formed += 1
            if name == "presentation.verify_presentation":
                p = parent
                while p >= 0:
                    if p in build_ids:
                        verify_in_build += 1
                        break
                    p = spans[p][3]
        raw["linalg.image.distinct"] = len(self.image_pairs)
        raw["data.lattice_formed"] = formed
        raw["data.lattice_kept"] = self.lattice_kept
        raw["data.lattice_size"] = self.lattice_size
        raw["builder.polytope_rows"] = self.polytope_rows
        raw["builder.caratheodory_terms"] = self.caratheodory_terms
        raw["builder.verify_calls"] = verify_in_build
        raw["flowgraph.chain_terms"] = self.chain_terms
        raw["max:builder.recursion_depth"] = self.recursion_depth
        return raw

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")


def _hook_image(tracer, args, kwargs, result):
    tracer.image_pairs.add((args[0], args[1]))


def _hook_lattice(tracer, args, kwargs, result):
    tracer.lattice_kept += sum(
        1 for why in result.generation_log if why.startswith(("sum(", "intersect("))
    )
    tracer.lattice_size += len(result.subspaces)


def _hook_polytope(tracer, args, kwargs, result):
    tracer.polytope_rows += len(result.rows)


def _hook_caratheodory(tracer, args, kwargs, result):
    tracer.caratheodory_terms += len(result.terms)


def _hook_build(tracer, args, kwargs, result):
    tracer.recursion_depth = max(tracer.recursion_depth, _depth(kwargs["trace"]))


def _hook_decompose(tracer, args, kwargs, result):
    tracer.chain_terms += len(result.terms)


_HOOKS = {
    "linalg.image": _hook_image,
    "data.generate_lattice": _hook_lattice,
    "builder.polytope_from_candidates": _hook_polytope,
    "builder.caratheodory": _hook_caratheodory,
    "builder.build_presentation": _hook_build,
    "flowgraph.decompose_flow": _hook_decompose,
}


def merge(total: dict, raw: dict) -> dict:
    """Add one raw counter dict into another; `max:` keys combine by max."""
    for key, value in raw.items():
        if key.startswith("max:"):
            total[key] = max(total.get(key, 0), value)
        else:
            total[key] = total.get(key, 0) + value
    return total


# Per-layer metrics and their units. Most read the raw counter of the same
# name; the rest are renamed counters or ratios of two counters.
PER_LAYER = (
    ("linalg.image.calls", "count"), ("linalg.image.self_s", "s"),
    ("linalg.image.distinct_ratio", "ratio"),
    ("linalg.canonicalize.calls", "count"), ("linalg.canonicalize.self_s", "s"),
    ("linalg.kernel.calls", "count"), ("linalg.kernel.self_s", "s"),
    ("linalg.sum.calls", "count"), ("linalg.intersect.calls", "count"),
    ("linalg.intersect.self_s", "s"),
    ("linalg.projector.calls", "count"), ("linalg.projector.self_s", "s"),
    ("data.generate_lattice.self_s", "s"), ("data.lattice_size", "count"),
    ("data.lattice_dedup_ratio", "ratio"),
    ("data.subspace_slack.calls", "count"), ("data.subspace_slack.self_s", "s"),
    ("data.quotient_datum.self_s", "s"), ("data.restrict_datum.self_s", "s"),
    ("builder.build_presentation.self_s", "s"),
    ("builder.polytope_from_candidates.self_s", "s"), ("builder.polytope_rows", "count"),
    ("builder.caratheodory.calls", "count"), ("builder.caratheodory_terms", "count"),
    ("builder.concatenate.self_s", "s"), ("builder.verify_calls", "count"),
    ("builder.recursion_depth", "count"),
    ("presentation.verify_presentation.calls", "count"),
    ("presentation.verify_presentation.self_s", "s"),
    ("presentation.bound_constant.self_s", "s"),
    ("presentation.edge_norm_squared.calls", "count"),
    ("presentation.summary_weight.calls", "count"),
    ("flowgraph.decompose_flow.self_s", "s"), ("flowgraph.chain_terms", "count"),
    ("flowgraph.project_weight.self_s", "s"), ("flowgraph.is_balanced.calls", "count"),
    ("flowgraph.validate_graph.self_s", "s"),
    ("oracle.gaussian_ascent.self_s", "s"), ("oracle.ascent_evals", "count"),
    ("oracle.gaussian_ratio.calls", "count"), ("oracle.gaussian_ratio.self_s", "s"),
    ("oracle.quadrature_check.self_s", "s"), ("oracle.grid_factorize.self_s", "s"),
    ("cli.import_s", "s"), ("cli.command_s", "s"), ("cli.process_s", "s"),
    ("formats.parse_s", "s"), ("formats.serialize_s", "s"),
)
_RENAMED = {
    "builder.recursion_depth": "max:builder.recursion_depth",
    "oracle.ascent_evals": "oracle.ascent_log_ratio.calls",
    "formats.parse_s": "formats.parse.total_s",
    "formats.serialize_s": "formats.serialize.total_s",
}
_RATIOS = {
    "linalg.image.distinct_ratio": ("linalg.image.distinct", "linalg.image.calls"),
    "data.lattice_dedup_ratio": ("data.lattice_kept", "data.lattice_formed"),
}


def metrics(raw: dict) -> dict[str, float]:
    out = {}
    for name, _ in PER_LAYER:
        if name in _RATIOS:
            num, den = (raw.get(key, 0) for key in _RATIOS[name])
            out[name] = num / den if den else 0.0
        else:
            out[name] = float(raw.get(_RENAMED.get(name, name), 0))
    return out
