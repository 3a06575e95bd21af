"""Which package calls the traced run wraps, and the per-layer metrics it reports.

Every public function of the layer modules below gets a span named
``<module>.<function>``; a few methods get one named
``<module>.<Class>.<method>``.  A layer's ``_s`` metric is the summed self
time of the spans mapped to it in ``SPAN_METRIC``.  Spans with no metric
(``vauts.vaut_inverse``, ``covers.schreier_loop``, ...) still appear in the
trace file, and their self time goes to ``trace.other_s`` together with the
benchmark's own glue, so that the ``_s`` metrics and ``trace.other_s`` add
up to ``trace.wall_s``.
"""

from __future__ import annotations

import importlib

PACKAGE = "covertower"

LAYER_MODULES = (
    "covers",
    "homology",
    "exact_linalg",
    "limits",
    "vauts",
    "traintrack",
    "documents",
    "verify",
    "orbit",
    "characteristic",
)

# Public helpers whose body costs less than a span: wrapping them would
# mostly measure the tracer.  Their time stays in the caller's self time.
UNWRAPPED = frozenset(
    {
        "covers.perm_mul",
        "covers.perm_inverse",
        "covers.identity_perm",
        "orbit.transvection",
        "orbit.projective_normalize",
        "orbit.symplectic_product",
    }
)

METHODS = (
    ("covers", "SurfaceCover", "__post_init__"),
    ("homology", "CoverComplex", "__init__"),
    ("homology", "CoverComplex", "validate"),
    ("homology", "CoverComplex", "_homology_data"),
    ("homology", "CoverComplex", "intersection"),
    ("homology", "CoverComplex", "class_coordinates"),
    ("limits", "LimitElement", "__post_init__"),
    ("vauts", "TwoArrowVaut", "__post_init__"),
)

SPAN_METRIC = {
    "covers.enumerate_covers": "covers.enumerate_s",
    "covers.SurfaceCover.__post_init__": "covers.validate_s",
    "covers.fiber_product": "covers.fiber_product_s",
    "covers.induced_cover": "covers.induced_cover_s",
    "covers.factors_through": "covers.factors_through_s",
    "homology.surface_complex": "homology.complex_s",
    "homology.CoverComplex.__init__": "homology.complex_s",
    "homology.CoverComplex.validate": "homology.complex_s",
    "homology.CoverComplex._homology_data": "homology.complex_s",
    "homology.CoverComplex.intersection": "homology.intersection_s",
    "homology.CoverComplex.class_coordinates": "homology.class_coordinates_s",
    "homology.transfer_along_arrow": "homology.pullback_s",
    "exact_linalg.smith_normal_form": "exact_linalg.smith_s",
    "exact_linalg.solve_exact": "exact_linalg.solve_s",
    "exact_linalg.solve_exact_many": "exact_linalg.solve_s",
    "limits.LimitElement.__post_init__": "limits.element_s",
    "limits.normalized_pairing": "limits.pairing_s",
    "limits.lift_element": "limits.lift_s",
    "limits.limit_equal": "limits.equal_s",
    "vauts.TwoArrowVaut.__post_init__": "vauts.construct_s",
    "vauts.certified_in_caut": "vauts.certify_s",
    "vauts.vaut_act": "vauts.act_s",
    "vauts.vaut_act_track": "vauts.act_s",
    "vauts.restrict_vaut": "vauts.restrict_s",
    "vauts.vaut_compose": "vauts.compose_s",
    "traintrack.lift_track": "traintrack.lift_s",
    "documents.cover_document": "documents.dump_s",
    "documents.dumps_canonical": "documents.dump_s",
    "verify.suite_riemann_hurwitz": "verify.riemann-hurwitz_s",
    "verify.suite_transfer_scaling": "verify.transfer-scaling_s",
    "verify.suite_pairing_invariance": "verify.pairing-invariance_s",
    "verify.suite_theorem3": "verify.theorem3_s",
    "verify.suite_vaut_laws": "verify.vaut-laws_s",
    "orbit.orbit_density_experiment": "orbit.walk_s",
}

# Metric name -> the span whose call count it is.
CALL_COUNTS = {
    "covers.validated": "covers.SurfaceCover.__post_init__",
    "covers.fiber_product_calls": "covers.fiber_product",
    "homology.complexes_built": "homology.CoverComplex.__init__",
    "homology.intersection_calls": "homology.CoverComplex.intersection",
    "homology.class_coordinates_calls": "homology.CoverComplex.class_coordinates",
    "exact_linalg.smith_calls": "exact_linalg.smith_normal_form",
    "limits.elements": "limits.LimitElement.__post_init__",
    "vauts.constructed": "vauts.TwoArrowVaut.__post_init__",
}

# Counters filled by return hooks (see _hooks).
HOOK_COUNTS = (
    "covers.enumerated",
    "covers.fiber_product_sheets",
    "covers.induced_cover_sheets",
    "homology.pullback_edges",
    "exact_linalg.smith_cells",
    "exact_linalg.solve_calls",
    "exact_linalg.solve_cells",
    "vauts.max_degree",
    "traintrack.branches_lifted",
    "documents.bytes",
    "orbit.points",
)

HIT_RATIOS = {
    "covers.fiber_product_hit_ratio": "fiber_product",
    "homology.complex_hit_ratio": "surface_complex",
}

# Metric stem -> (module, attribute) of an lru_cache in the package.
CACHES = {
    "enumerate_covers": ("covers", "_enumerate_cached"),
    "tree_data": ("covers", "tree_data"),
    "nontree_edges": ("covers", "nontree_edges"),
    "fiber_product": ("covers", "fiber_product"),
    "surface_complex": ("homology", "surface_complex"),
    "identity_vaut": ("vauts", "identity_vaut"),
    "shipped_automorphisms": ("characteristic", "shipped_automorphisms"),
    "mod2_homology_cover": ("characteristic", "mod2_homology_cover"),
}

# Wrapped call counts that must equal the cache's hits plus misses.
BINDING_CHECKS = {
    "homology.surface_complex": "surface_complex",
    "covers.fiber_product": "fiber_product",
}

TRACE_METRICS = (
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.other_s", "s"),
    ("trace.spans", "count"),
)


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "1"
    if name.endswith("_degree"):
        return "sheets"
    if name.endswith(".bytes"):
        return "bytes"
    return "count"


def metric_units() -> dict[str, str]:
    """Every per-layer metric of a traced run, with its unit, in report order."""
    names = list(dict.fromkeys(SPAN_METRIC.values()))
    names += list(CALL_COUNTS) + list(HOOK_COUNTS) + list(HIT_RATIOS)
    units = {name: _unit(name) for name in names}
    for stem in CACHES:
        for part in ("hits", "misses", "size"):
            units[f"cache.{stem}.{part}"] = "count"
    units.update(TRACE_METRICS)
    return units


def _module(name: str):
    return importlib.import_module(f"{PACKAGE}.{name}")


def cache_infos() -> dict[str, tuple[int, int, int]]:
    """(hits, misses, size) of each cache that exists in this version of the package."""
    out = {}
    for stem, (mod, attr) in CACHES.items():
        fn = getattr(_module(mod), attr, None)
        if fn is not None and hasattr(fn, "cache_info"):
            info = fn.cache_info()
            out[stem] = (info.hits, info.misses, info.currsize)
    return out


class Probe:
    """A tracer installed on the package, with cache snapshots around the job."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.caches_before = cache_infos()
        self.caches_after: dict[str, tuple[int, int, int]] = {}
        self.wrapped: list[str] = []
        hooks = _hooks(tracer)
        for mod in LAYER_MODULES:
            module = _module(mod)
            for attr, obj in list(vars(module).items()):
                span = f"{mod}.{attr}"
                if (
                    attr.startswith("_")
                    or span in UNWRAPPED
                    or isinstance(obj, type)
                    or not callable(obj)
                    or getattr(obj, "__module__", None) != module.__name__
                ):
                    continue
                tracer.wrap_function(module, attr, span, hooks.get(span))
                self.wrapped.append(span)
        for mod, cls_name, attr in METHODS:
            cls = getattr(_module(mod), cls_name, None)
            if cls is not None and attr in cls.__dict__:
                span = f"{mod}.{cls_name}.{attr}"
                tracer.wrap_method(cls, attr, span, hooks.get(span))
                self.wrapped.append(span)

    def finish(self) -> None:
        self.caches_after = cache_infos()

    def cache_delta(self, stem: str) -> tuple[int, int, int]:
        if stem not in self.caches_after:
            return (0, 0, 0)
        h0, m0, _ = self.caches_before.get(stem, (0, 0, 0))
        h1, m1, size = self.caches_after[stem]
        return (h1 - h0, m1 - m0, size)

    def binding_problems(self) -> list[str]:
        """Missed bindings: stale references, or cache traffic the wrapper did not see."""
        problems = [f"unwrapped binding {b}" for b in self.tracer.unbound(PACKAGE)]
        for span, stem in BINDING_CHECKS.items():
            if stem not in self.caches_after:
                continue
            hits, misses, _ = self.cache_delta(stem)
            calls = self.tracer.calls(span)
            if calls != hits + misses:
                problems.append(
                    f"{span}: {calls} wrapped calls but {hits + misses} cache lookups"
                )
        return problems

    def metrics(self) -> dict[str, float]:
        tracer = self.tracer
        values = {name: 0.0 for name in dict.fromkeys(SPAN_METRIC.values())}
        other = 0.0
        for span, (_, _, self_s) in tracer.stats.items():
            metric = SPAN_METRIC.get(span)
            if metric is None:
                other += self_s
            else:
                values[metric] += self_s
        for name, span in CALL_COUNTS.items():
            values[name] = tracer.calls(span)
        for name in HOOK_COUNTS:
            values[name] = tracer.counters.get(name, 0)
        for name, stem in HIT_RATIOS.items():
            hits, misses, _ = self.cache_delta(stem)
            values[name] = hits / (hits + misses) if hits + misses else 0.0
        for stem in CACHES:
            hits, misses, size = self.cache_delta(stem)
            values[f"cache.{stem}.hits"] = hits
            values[f"cache.{stem}.misses"] = misses
            values[f"cache.{stem}.size"] = size
        values["trace.other_s"] = other
        values["trace.spans"] = sum(rec[0] for rec in tracer.stats.values())
        return values

    def uninstall(self) -> None:
        self.tracer.uninstall()


def _cells(matrix) -> int:
    return len(matrix) * (len(matrix[0]) if matrix else 0)


def _hooks(tracer):
    count = tracer.count
    fp = getattr(_module("covers"), "fiber_product", None)
    fp_cached = hasattr(fp, "cache_info")
    fp_misses = [fp.cache_info().misses if fp_cached else 0]

    def fiber_product(args, result):
        # a call that added a cache miss built its product; a hit did not
        if fp_cached:
            misses = fp.cache_info().misses
            built, fp_misses[0] = misses > fp_misses[0], misses
            if not built:
                return
        count("covers.fiber_product_sheets", result.cover.degree)

    def solve(args, result):
        count("exact_linalg.solve_calls")
        count("exact_linalg.solve_cells", _cells(args[0]))

    def vaut(args, result):
        self = args[0]
        tracer.peak("vauts.max_degree", max(self.left.degree, self.right.degree))

    return {
        "covers.enumerate_covers": lambda a, r: count("covers.enumerated", len(r)),
        "covers.fiber_product": fiber_product,
        "covers.induced_cover": lambda a, r: count("covers.induced_cover_sheets", r.cover.degree),
        "homology.transfer_along_arrow": lambda a, r: count("homology.pullback_edges", len(r)),
        "exact_linalg.smith_normal_form": lambda a, r: count("exact_linalg.smith_cells", _cells(a[0])),
        "exact_linalg.solve_exact": solve,
        "exact_linalg.solve_exact_many": solve,
        "vauts.TwoArrowVaut.__post_init__": vaut,
        "traintrack.lift_track": lambda a, r: count("traintrack.branches_lifted", len(r[0].branches)),
        "documents.dumps_canonical": lambda a, r: count("documents.bytes", len(r.encode())),
        "orbit.orbit_density_experiment": lambda a, r: count("orbit.points", r.checkpoints[-1][1]),
    }
