"""Layer tracing from outside the kernel.

The tracer replaces the public entry points of each module with wrappers
that record a span: name, start, end, parent span and item id.  A name is
replaced wherever it is bound: in its own module, in every ``ginforge``
module that imported it (``gin.py``, ``checks.py`` and ``points.py`` each
hold their own copy) and, for methods, on the class.  ``uninstall`` puts the
originals back, so untraced passes run the unmodified kernel.

Spans stay in memory until the benchmark ends.  Span times are CPU time of
the calling thread, the clock of the item latencies.  A layer's self time is
its span's duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import json
import sys
import time

# (module, attribute, layer name, output statistic)
TARGETS = (
    ("ginforge.polyring", "apply_linear_change", "polyring.apply_linear_change", "poly"),
    ("ginforge.polyring", "substitute_variable", "polyring.substitute_variable", None),
    ("ginforge.groebner", "PolyIdeal.leading_terms", "groebner.leading_terms", "count"),
    ("ginforge.groebner", "PolyIdeal.reduced_gb", "groebner.reduced_gb", "polys"),
    ("ginforge.groebner", "saturate", "groebner.saturate", None),
    ("ginforge.groebner", "intersect", "groebner.intersect", None),
    ("ginforge.numeric", "QMatrix.det", "numeric.det", None),
    ("ginforge.distraction", "make_matrix", "distraction.make_matrix", None),
    ("ginforge.distraction", "is_sufficiently_generic", "distraction.is_sufficiently_generic", None),
    ("ginforge.distraction", "distract_ideal", "distraction.distract_ideal", "ideal"),
    ("ginforge.distraction", "is_radical_for", "distraction.is_radical_for", None),
    ("ginforge.gin", "gin", "gin.gin", "gin"),
    ("ginforge.monomial", "closure", "monomial.closure", None),
    ("ginforge.monomial", "hilbert", "monomial.hilbert", None),
    ("ginforge.monomial", "stability_flags", "monomial.stability_flags", None),
    ("ginforge.points", "points_from_ideal", "points.points_from_ideal", None),
    ("ginforge.points", "verify_points", "points.verify_points", None),
    ("ginforge.checks", "run_statement", "checks", None),
    ("ginforge.cli", "main", "cli.main", None),
)

STATEMENTS = ("main", "gindl", "hyperplane", "sumprinc", "counterexample", "gcd", "radical", "points")

# span fields
NAME, START, END, PARENT, ITEM, OUT = range(6)


def _coeff_bits(polys) -> int:
    return max(
        (max(c.numerator.bit_length(), c.denominator.bit_length()) for f in polys for c in f.terms.values()),
        default=0,
    )


def _statistic(kind: str, result):
    """Output statistic kept on a span, computed after the pass."""
    if kind == "poly":
        return len(result.terms), _coeff_bits([result])
    if kind == "count":
        return len(result)
    if kind == "polys":
        return len(result), _coeff_bits(result)
    if kind == "ideal":
        return sum(len(f.terms) for f in result.generators)
    return result.trials_used, result.agreed  # gin


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.item = None
        self._stack: list = []
        self._saved: list = []

    def _wrapper(self, name, fn, stat):
        spans = self.spans
        stack = self._stack
        clock = time.thread_time
        tracer = self
        statement_span = name == "checks"

        def traced(*args, **kwargs):
            label = name
            if statement_span:
                label = "checks." + (args[0] if args else kwargs["statement"])
            span = [label, 0.0, 0.0, stack[-1] if stack else -1, tracer.item, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if stat is not None:
                span[OUT] = (stat, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self, callers=()) -> None:
        """Wrap every target; ``callers`` are further modules (the
        benchmark's own) whose imported bindings are replaced too."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [m for k, m in sorted(sys.modules.items()) if k == "ginforge" or k.startswith("ginforge.")]
        modules += list(callers)
        for module_name, attr, name, stat in TARGETS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._saved.append((cls, meth, original))
                setattr(cls, meth, self._wrapper(name, original, stat))
                continue
            original = owner.__dict__[attr]
            wrapper = self._wrapper(name, original, stat)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._saved):
            setattr(owner, key, original)
        self._saved = []

    def finish_pass(self, first: int) -> None:
        """Replace kept results of the spans from index ``first`` on by their
        statistics, so no kernel object outlives its pass."""
        for span in self.spans[first:]:
            if span[OUT] is not None:
                span[OUT] = _statistic(*span[OUT])

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_metrics(spans: list, first: int, last: int, pass_s: float) -> dict:
    """Per-layer metrics of one traced pass: the spans ``first..last-1``,
    which took ``pass_s`` seconds of CPU time."""
    child_time = [0.0] * last
    for span in spans[first:last]:
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += span[END] - span[START]
    m: dict = {}

    def add(key, value):
        m[key] = m.get(key, 0) + value

    for name in [t[2] for t in TARGETS if t[2] != "checks"]:
        m[name + ".calls"] = 0
        m[name + ".self_s"] = 0.0
    for stmt in STATEMENTS:
        m["checks.%s.s" % stmt] = 0.0
    m.update(
        {
            "polyring.apply_linear_change.terms_out": 0,
            "polyring.apply_linear_change.coeff_bits_max": 0,
            "groebner.leading_terms.gens_out": 0,
            "groebner.reduced_gb.gens_out": 0,
            "groebner.reduced_gb.coeff_bits_max": 0,
            "distraction.distract_ideal.terms_out": 0,
            "gin.gin.trials": 0,
        }
    )
    agreed = 0
    attributed = 0.0
    for index in range(first, last):
        span = spans[index]
        name, out = span[NAME], span[OUT]
        duration = span[END] - span[START]
        self_s = duration - child_time[index]
        attributed += self_s
        if name.startswith("checks."):
            if name != "checks.all":
                add(name + ".s", duration)
            continue
        add(name + ".calls", 1)
        add(name + ".self_s", self_s)
        if out is None:
            continue
        if name == "polyring.apply_linear_change":
            add(name + ".terms_out", out[0])
            m[name + ".coeff_bits_max"] = max(m[name + ".coeff_bits_max"], out[1])
        elif name == "groebner.leading_terms":
            add(name + ".gens_out", out)
        elif name == "groebner.reduced_gb":
            add(name + ".gens_out", out[0])
            m[name + ".coeff_bits_max"] = max(m[name + ".coeff_bits_max"], out[1])
        elif name == "distraction.distract_ideal":
            add(name + ".terms_out", out)
        elif name == "gin.gin":
            add(name + ".trials", out[0])
            agreed += bool(out[1])
    # no gin call wastes nothing
    m["gin.agreed_ratio"] = agreed / m["gin.gin.calls"] if m["gin.gin.calls"] else 1.0
    m["trace.attributed_ratio"] = attributed / pass_s if pass_s > 0 else 0.0
    return m
