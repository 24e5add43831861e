"""Layer spans recorded from outside the program.

The benchmark wraps the public calls into each ``wittquant`` module on their
classes, before any context is built: hot loops bind ``ring.mul``/``ring.add``
into locals and ``gf``/``t_quotient`` are cached singletons, so a wrapper
installed later, or on an instance, would undercount.

Every wrapped call is one span.  A span's self time is its duration minus the
time covered by the spans it opened.  Times are integer nanoseconds, so self
time is exact and never negative.
"""
from __future__ import annotations

import functools
import time

# (module, class or None for module functions, methods): the layer boundaries.
BOUNDARIES = (
    ("rings", "TQuotientRing", ("mul", "add")),
    ("rings", "TSeriesRing", ("mul", "add")),
    ("rings", "RationalField", ("mul", "add")),
    ("liealg", "LieAlgebra", ("bracket_basis",)),
    ("liealg", "JacobsonWitt", ("p_power",)),
    (
        "uea",
        "EnvelopingAlgebra",
        (
            "mono_mul",
            "normalize_word",
            "mul",
            "power",
            "ad_divided_power",
            "factorial_element",
            "coproduct0",
            "antipode0",
        ),
    ),
    ("uea", "TensorElement", ("__mul__", "expand_slot", "map_slot", "multiply_out", "contract")),
    (
        "twist",
        "QuantizedHopf",
        (
            "delta_basis",
            "antipode_basis",
            "delta_mono",
            "antipode_mono",
            "build_twist",
            "antipode_twistors",
            "conjugation_oracle",
            "one_minus_et_power",
        ),
    ),
    (
        "verify",
        None,
        (
            "check_hopf_axioms",
            "check_restricted_structure",
            "check_dimensions_radford",
            "check_commutation_suite",
            "check_twist_laws",
        ),
    ),
)

MODULES = ("rings", "liealg", "uea", "twist", "verify")

# Spans whose share of calls that open a child span is reported: a call that
# opens none was answered from the context's memo cache.
MISS_RATIOS = {
    "uea.mono_mul.miss_ratio": "uea.EnvelopingAlgebra.mono_mul",
    "twist.delta_mono.miss_ratio": "twist.QuantizedHopf.delta_mono",
}


def boundary_names() -> list:
    """Span names ``<module>.<Class>.<method>`` (``<module>.<function>``)."""
    return [
        ".".join(part for part in (module, cls, meth) if part)
        for module, cls, methods in BOUNDARIES
        for meth in methods
    ]


class Tracer:
    """Aggregates spans per name: calls, self time, total time, calls with children.

    With ``keep_spans`` every span is also kept as
    ``(name, start_ns, end_ns, self_ns, parent_index)`` for inspection.
    """

    def __init__(self, keep_spans: bool = False):
        self.stats: dict = {name: [0, 0, 0, 0] for name in boundary_names()}
        self._stack: list = []
        self.root_ns = 0
        self.max_terms = 0
        self.spans = [] if keep_spans else None

    def reset(self) -> None:
        """Forget everything recorded so far (the set-up's calls)."""
        if self._stack:
            raise RuntimeError("reset inside an open span")
        for row in self.stats.values():
            row[:] = [0, 0, 0, 0]
        self.root_ns = 0
        self.max_terms = 0
        if self.spans is not None:
            self.spans.clear()

    def _wrap(self, name: str, fn, count_terms: bool):
        row = self.stats[name]
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack:
                stack[-1][2] = True
            # start, ns covered by children, opened a child, index in spans
            frame = [0, 0, False, -1]
            if spans is not None:
                frame[3] = len(spans)
                spans.append(None)
            stack.append(frame)
            frame[0] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[0]
                row[0] += 1
                row[1] += dur - frame[1]
                row[2] += dur
                if frame[2]:
                    row[3] += 1
                if stack:
                    stack[-1][1] += dur
                else:
                    self.root_ns += dur
                if spans is not None:
                    parent = stack[-1][3] if stack else -1
                    spans[frame[3]] = (name, frame[0], end, dur - frame[1], parent)
            if count_terms and len(result.terms) > self.max_terms:
                self.max_terms = len(result.terms)
            return result

        return traced

    def install(self, wittquant) -> None:
        """Replace every boundary on its class (or module) with a traced wrapper."""
        for module, cls_name, methods in BOUNDARIES:
            mod = getattr(wittquant, module)
            owner = getattr(mod, cls_name) if cls_name else mod
            for meth in methods:
                name = ".".join(part for part in (module, cls_name, meth) if part)
                static = isinstance(owner.__dict__.get(meth), staticmethod)
                fn = getattr(owner, meth)
                wrapped = self._wrap(name, fn, count_terms=cls_name == "TensorElement")
                setattr(owner, meth, staticmethod(wrapped) if static else wrapped)
                if cls_name is None and getattr(wittquant, meth, None) is fn:
                    setattr(wittquant, meth, wrapped)

    def metrics(self) -> dict:
        """Per-span calls and self-time shares plus the derived per-layer metrics.

        Self time is given as a share of ``root_s``, the time spent in root
        spans, because a boundary that a workload never reaches would
        otherwise report a time of exactly 0 on every run.  A share times
        ``root_s`` is seconds.
        """
        root = self.root_ns or 1
        out: dict = {"root_s": (self.root_ns / 1e9, "s")}
        module_ns = dict.fromkeys(MODULES, 0)
        for name, (calls, self_ns, _total, _with_child) in self.stats.items():
            out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.self_share"] = (self_ns / root, "ratio")
            module_ns[name.split(".", 1)[0]] += self_ns
        for module, ns in module_ns.items():
            out[f"{module}.self_share"] = (ns / root, "ratio")
        for metric, name in MISS_RATIOS.items():
            calls, _, _, with_child = self.stats[name]
            out[metric] = (with_child / calls if calls else 0.0, "ratio")
        out["uea.TensorElement.max_terms"] = (self.max_terms, "count")
        return out
