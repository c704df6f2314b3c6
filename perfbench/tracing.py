"""Span tracing installed from outside the package.

`Tracer.install` replaces every public function of the traced bifrac
modules with a wrapper, on every module attribute that refers to it, so
calls resolved through `from .operators import bi_frac` style imports
(for example `bifrac.harness.bi_frac`) are caught as well.  Each wrapper
records one span [name, start, end, parent span, op id].  `Cube.measure`
reads are counted through a replacement property instead of a span,
because there are millions of them.  Spans stay in memory until
`write` dumps them at the end of the run.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("lattice", "geometry", "families", "sparse", "operators", "weights", "morrey", "harness")

MAXIMAL_FUNCS = (
    "maximal",
    "frac_maximal",
    "p_maximal",
    "multi_maximal",
    "weighted_bilinear_maximal",
)
PAIR_FUNCS = ("iida_constant", "two_weight_constant")
CUBE_CONSTANT_FUNCS = ("ap_constant", "apq_constant", "multiple_apq_constant", "reverse_holder_probe")
CORPUS_FUNCS = ("corpus", "dilate_item")


class Tracer:
    def __init__(self, bifrac):
        self.bifrac = bifrac
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op_id = -1
        self.counts = defaultdict(int)
        self.kernel_keys: set = set()
        self.pair_families: list = []
        self._patches: list[tuple] = []
        self._targets = self._collect_targets()

    # -- installation -------------------------------------------------------

    def _collect_targets(self) -> dict:
        targets = {}
        for layer in LAYERS:
            mod = sys.modules[f"bifrac.{layer}"]
            for name, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not name.startswith("_")
                    and not inspect.isgeneratorfunction(obj)
                ):
                    targets[id(obj)] = (obj, f"{layer}.{name}")
        return targets

    def install(self):
        wrappers = {}
        for key, (fn, name) in self._targets.items():
            wrappers[key] = self._wrap(fn, name)
        for modname, mod in list(sys.modules.items()):
            if modname != "bifrac" and not modname.startswith("bifrac."):
                continue
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and id(val) in wrappers:
                    self._patches.append((mod, attr, val))
                    setattr(mod, attr, wrappers[id(val)])
        cube = self.bifrac.geometry.Cube
        original = cube.__dict__["measure"]
        counts = self.counts

        def measure(q):
            counts["measure_calls"] += 1
            return original.fget(q)

        self._patches.append((cube, "measure", original))
        cube.measure = property(measure)

    def uninstall(self):
        for owner, attr, val in reversed(self._patches):
            setattr(owner, attr, val)
        self._patches.clear()

    def _wrap(self, fn, name):
        spans, stack = self.spans, self.stack
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id])
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx][1] = t0
                spans[idx][2] = t1
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return wrapper

    # -- aggregation --------------------------------------------------------

    def self_times(self, first_span: int = 0, last_span: int | None = None) -> dict:
        """Self time per span name over spans[first_span:last_span]."""
        last_span = len(self.spans) if last_span is None else last_span
        child = defaultdict(float)
        for name, t0, t1, parent, _ in self.spans[first_span:last_span]:
            if parent >= 0:
                child[parent] += t1 - t0
        out = defaultdict(float)
        for k in range(first_span, last_span):
            name, t0, t1, _, _ = self.spans[k]
            out[name] += (t1 - t0) - child.get(k, 0.0)
        return out

    def write(self, path, extra: dict):
        payload = dict(extra)
        payload["span_fields"] = ["name", "start", "end", "parent", "op"]
        payload["spans"] = self.spans
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


def _arg(args, kwargs, pos, name):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else None


def _hook_kernel(tr, args, kwargs, result):
    key = (_arg(args, kwargs, 0, "spec"), float(_arg(args, kwargs, 1, "alpha")))
    tr.counts["kernel_calls"] += 1
    if key in tr.kernel_keys:
        tr.counts["kernel_hits"] += 1
    tr.kernel_keys.add(key)


def _hook_count(key):
    def hook(tr, args, kwargs, result):
        tr.counts[key] += 1

    return hook


def _hook_maximal(tr, args, kwargs, result):
    fam = kwargs.get("family")
    if fam is None:
        fam = next((a for a in args if isinstance(a, tr.bifrac.CubeFamily)), None)
    if fam is None:
        fam = tr.bifrac.families.default_family(result.spec)
    tr.counts["cubes_swept"] += fam.size


def _hook_pairs_built(tr, args, kwargs, result):
    tr.counts["pairs"] += result.size
    tr.pair_families.append(result.family)


def _hook_pairs_used(tr, args, kwargs, result):
    pairs = kwargs.get("pairs")
    if pairs is None:
        pairs = next(a for a in args if isinstance(a, tr.bifrac.NestedPairs))
    tr.counts["pairs_evaluated"] += pairs.size


def _hook_cz(tr, args, kwargs, result):
    # cz_decompose evaluates every dyadic block of the root down to one cell
    spec = result.spec
    width = round(result.root.side / spec.h)
    blocks, per_level = 0, 1
    while width >= 1:
        blocks += per_level
        per_level *= 2 ** spec.dim
        width //= 2
    tr.counts["blocks"] += blocks
    tr.counts["selected"] += sum(len(v) for v in result.levels.values())


def _hook_morrey(tr, args, kwargs, result):
    vals = result if isinstance(result, tuple) else (result,)
    if any(isinstance(v, float) and not math.isfinite(v) for v in vals):
        tr.counts["morrey_nonfinite"] += 1


_HOOKS = {
    "operators.kernel_table": _hook_kernel,
    "operators.bi_frac": _hook_count("bi_frac_calls"),
    "lattice.box_power_integral": _hook_count("box_power_integral_calls"),
    "families.nested_pairs": _hook_pairs_built,
    "sparse.cz_decompose": _hook_cz,
    **{f"operators.{n}": _hook_maximal for n in MAXIMAL_FUNCS},
    **{f"weights.{n}": _hook_pairs_used for n in PAIR_FUNCS},
    **{f"morrey.{n}": _hook_morrey for n in ("morrey_norm", "morrey_norm_witness", "vector_morrey_norm", "power_scaling_check")},
}


def existing_pairs(family) -> int:
    """Aligned nested pairs Q ⊆ Q' that exist in a family (chunked count)."""
    ali = np.nonzero(family.aligned)[0]
    lo, hi = family.lo[ali], family.hi[ali]
    total = 0
    for start in range(0, len(ali), 256):
        olo, ohi = lo[start : start + 256], hi[start : start + 256]
        inside = np.all(lo[None, :, :] >= olo[:, None, :], axis=2) & np.all(
            hi[None, :, :] <= ohi[:, None, :], axis=2
        )
        total += int(inside.sum())
    return total


def per_layer_metrics(tracer: Tracer, self_s: dict, infinite_skipped: int, overhead: float) -> dict:
    """The per-layer metrics named in BENCHMARK.json, from aggregated spans."""

    def total(prefix=None, names=()):
        return sum(
            v
            for k, v in self_s.items()
            if (prefix is not None and k.startswith(prefix)) or k in names
        )

    c = defaultdict(int, tracer.counts)
    exists = sum(existing_pairs(f) for f in tracer.pair_families)
    harness_other = sum(
        v
        for k, v in self_s.items()
        if k.startswith("harness.") and k.split(".", 1)[1] not in CORPUS_FUNCS
    )
    values = {
        "families.build_s": (total("families."), "s"),
        "families.pairs": (c["pairs"], "count"),
        "families.pairs_exact_frac": (c["pairs"] / exists if exists else 0.0, "ratio"),
        "geometry.build_s": (total("geometry."), "s"),
        "geometry.measure_calls": (c["measure_calls"], "count"),
        "lattice.box_power_integral.calls": (c["box_power_integral_calls"], "count"),
        "lattice.box_power_integral.self_s": (total(names=("lattice.box_power_integral",)), "s"),
        "operators.kernel_table.self_s": (total(names=("operators.kernel_table",)), "s"),
        "operators.kernel_table.hit_frac": (
            c["kernel_hits"] / c["kernel_calls"] if c["kernel_calls"] else 0.0,
            "ratio",
        ),
        "operators.bi_frac.calls": (c["bi_frac_calls"], "count"),
        "operators.bi_frac.self_s": (total(names=("operators.bi_frac",)), "s"),
        "operators.maximal.self_s": (
            total(names=tuple(f"operators.{n}" for n in MAXIMAL_FUNCS)),
            "s",
        ),
        "operators.maximal.cubes_swept": (c["cubes_swept"], "count"),
        "operators.sparse_bound.self_s": (
            total(names=("operators.sparse_bound", "operators.local_global_split")),
            "s",
        ),
        "sparse.cz_decompose.self_s": (total(names=("sparse.cz_decompose",)), "s"),
        "sparse.blocks": (c["blocks"], "count"),
        "sparse.selected_frac": (c["selected"] / c["blocks"] if c["blocks"] else 0.0, "ratio"),
        "weights.pair.self_s": (total(names=tuple(f"weights.{n}" for n in PAIR_FUNCS)), "s"),
        "weights.pair.pairs_evaluated": (c["pairs_evaluated"], "count"),
        "weights.cube.self_s": (
            total(names=tuple(f"weights.{n}" for n in CUBE_CONSTANT_FUNCS)),
            "s",
        ),
        "weights.infinite_skipped": (infinite_skipped, "count"),
        "morrey.self_s": (total("morrey."), "s"),
        "morrey.nonfinite": (c["morrey_nonfinite"], "count"),
        "harness.corpus.self_s": (total(names=tuple(f"harness.{n}" for n in CORPUS_FUNCS)), "s"),
        "harness.self_s": (harness_other, "s"),
        "trace.overhead_frac": (overhead, "ratio"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
