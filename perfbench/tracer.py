"""Spans around the public functions of the orbistack layers.

``Tracer.install`` replaces every public function of ``cli``, ``embed``,
``wps``, ``git`` and ``lattice`` with a wrapper, in the namespace of each
module that holds it, so calls a module makes to a name it imported from
another layer (and to its own public names) are recorded too.  Spans
(name, start, end, parent, job) are kept in a list and summarized or
written out after the pass; ``uninstall`` puts the originals back.
Untraced passes run with nothing installed.
"""

from __future__ import annotations

import importlib
import inspect
import json
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("cli", "embed", "wps", "git", "lattice")

# A sort key called once per monomial: a span per call would time the
# tracer, not the layer.
UNTRACED = frozenset({"lattice.grlex_key"})

# Counts read off results at the layer boundary.
RESULT_COUNTS = {
    "embed.find_embedding_data": lambda r: {
        "embed.coordinates": len(r.coordinates),
        "embed.twists_tried": len(r.certification.candidates_tried),
    },
    "embed.verify_immersion": lambda r: {
        "embed.charts_checked": len(r.charts),
        "embed.strata_checked": len(r.strata),
    },
    "wps.section_basis": lambda r: {"wps.monomials": len(r)},
    "git.stable_locus": lambda r: {"git.minimal_supports": len(r.minimal_stable_supports)},
}

# lru caches whose hit ratio is reported, by (metric prefix, module, name,
# whether the lookups are reported too).  The rank cache's lookups would
# repeat lattice.matrix_rank_calls: matrix_rank is its only caller.
CACHES = (
    ("lattice.rank_cache", "lattice", "_rank_cached", False),
    ("lattice.dual_cone_cache", "lattice", "_dual_cone_generators_cached", True),
)


def layer_modules() -> dict:
    return {name: importlib.import_module(f"orbistack.{name}") for name in LAYERS}


def clear_program_caches() -> None:
    """Empty every lru cache a layer holds at module level."""
    for module in layer_modules().values():
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def cache_stats() -> dict:
    """Hits and lookups since the caches were last cleared."""
    modules = layer_modules()
    out = {}
    for prefix, module, name, report_lookups in CACHES:
        cache = getattr(modules[module], name, None)
        info = cache.cache_info() if cache is not None else None
        hits = info.hits if info else 0
        lookups = hits + info.misses if info else 0
        if report_lookups:
            out[f"{prefix}_lookups"] = lookups
        out[f"{prefix}_hit_ratio"] = hits / lookups if lookups else 0.0
    return out


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.job = -1
        self._stack: list[int] = []
        self._patches: list = []

    def _wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        count = RESULT_COUNTS.get(name)

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.job)
            if count is not None:
                counts.update(count(result))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = layer_modules()
        owners = {f"orbistack.{layer}": layer for layer in LAYERS}
        wrappers = {}
        namespaces = list(modules.values()) + [importlib.import_module("orbistack")]
        for module in namespaces:
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                layer = owners.get(value.__module__)
                if layer is None or f"{layer}.{value.__name__}" in UNTRACED:
                    continue
                if value not in wrappers:
                    wrappers[value] = self._wrap(f"{layer}.{value.__name__}", value)
                self._patches.append((module, attr, value))
                setattr(module, attr, wrappers[value])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self._stack.clear()
        self.job = -1

    def self_times(self) -> tuple[dict, Counter]:
        """Per span name: total self time and number of calls.

        A span's self time is its duration minus the durations of its
        direct children.
        """
        children = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                children[parent] += end - start
        own = defaultdict(float)
        calls = Counter()
        for index, (name, start, end, _, _) in enumerate(self.spans):
            own[name] += end - start - children[index]
            calls[name] += 1
        return own, calls

    def write(self, path) -> None:
        """One JSON array per span, times in microseconds from the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, job in self.spans:
                row = [
                    name,
                    round((start - origin) * 1e6, 1),
                    round((end - origin) * 1e6, 1),
                    parent,
                    job,
                ]
                handle.write(json.dumps(row) + "\n")


def layer_metrics(tracer: Tracer) -> dict:
    """The per-layer metrics of one traced pass, without the cli byte count."""
    own, calls = tracer.self_times()
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(t for n, t in own.items() if n.startswith(layer + "."))
    out.update(
        {
            "cli.jobs": calls["cli.main"],
            "embed.find_s": own["embed.find_embedding_data"],
            "embed.verify_s": own["embed.verify_immersion"],
            "embed.recover_s": own["embed.recover_data"],
            "wps.section_basis_s": own["wps.section_basis"],
            "wps.section_basis_calls": calls["wps.section_basis"],
            "git.stable_locus_s": own["git.stable_locus"],
            "git.supports_tested": calls["git.is_stable_support"],
            "git.proj_s": own["git.proj_presentation"],
            "lattice.graded_sections_s": own["lattice.graded_sections"],
            "lattice.graded_sections_calls": calls["lattice.graded_sections"],
            "lattice.hilbert_basis_s": own["lattice.hilbert_basis"],
            "lattice.minimal_homogeneous_solutions_s": own[
                "lattice.minimal_homogeneous_solutions"
            ],
            "lattice.cone_position_s": own["lattice.cone_position"],
            "lattice.cone_position_calls": calls["lattice.cone_position"],
            "lattice.integer_kernel_s": own["lattice.integer_kernel"],
            "lattice.integer_kernel_calls": calls["lattice.integer_kernel"],
            "lattice.matrix_rank_calls": calls["lattice.matrix_rank"],
            "trace.spans": len(tracer.spans),
        }
    )
    for name in (
        "embed.coordinates",
        "embed.charts_checked",
        "embed.strata_checked",
        "embed.twists_tried",
        "wps.monomials",
        "git.minimal_supports",
    ):
        out[name] = tracer.counts[name]
    out.update(cache_stats())
    return out
