"""Spans around the public functions of each extatica layer.

`Tracer.install` replaces each traced function, wherever an extatica module
holds a reference to it, by a wrapper that records a span (name, start,
end, parent) in memory; the program's own files are not touched.  Spans
nest, so a layer's time is the time of its outermost spans, and
`cli.overhead_ms` is `cli.main` minus the library spans directly under it.
"""

from __future__ import annotations

import sys
import time

#: (module, attribute) -> span name.  The attribute is looked up once, and
#: every reference to that function object inside extatica is replaced.
TRACED = {
    ("extatica.polyring", "Polynomial.divide_exact"): "polyring.divide_exact",
    ("extatica.foliation", "apply_derivation"): "foliation.apply_derivation",
    ("extatica.foliation", "check_invariance"): "foliation.check_invariance",
    ("extatica.extactic", "jet_matrix"): "extactic.jet_matrix",
    ("extatica.extactic", "det_modular"): "extactic.det_modular",
    ("extatica.extactic", "det_fraction_free"): "extactic.det_fraction_free",
    ("extatica.extactic", "extract_first_integral"):
        "extactic.extract_first_integral",
    ("extatica.extactic", "divides_extactic"): "extactic.divides_extactic",
    ("extatica.extactic", "extactic"): "extactic.extactic",
    ("extatica.cli", "main"): "cli.main",
}
TRACED.update({("extatica.bounds", f): f"bounds.{f}" for f in (
    "invariant_count_check", "poincare_degree_bound", "pn_threshold",
    "genus_rhs", "genus_threshold", "surface_bound", "abelian_bound")})
TRACED.update({("extatica.corpus", f): f"corpus.{f}" for f in (
    "slv", "slv1_invariant_conic", "hamiltonian", "pencil_field",
    "planted_lines_field", "random_field")})

#: span-name prefix -> per-layer time metric (ms per round)
TIME_METRICS = {
    "polyring.divide_exact": "polyring.divide_exact_ms",
    "foliation.apply_derivation": "foliation.apply_derivation_ms",
    "foliation.check_invariance": "foliation.check_invariance_ms",
    "extactic.jet_matrix": "extactic.jet_matrix_ms",
    "extactic.det_modular": "extactic.det_modular_ms",
    "extactic.det_fraction_free": "extactic.det_fraction_free_ms",
    "extactic.extract_first_integral": "extactic.extract_first_integral_ms",
    "extactic.divides_extactic": "extactic.divides_extactic_ms",
    "extactic.extactic": "extactic.extactic_ms",
    "bounds.": "bounds.eval_ms",
    "cli.main": "cli.main_ms",
}

COUNT_METRICS = (
    "det_modular.calls", "det_fraction_free.calls", "jet.m",
    "jet.entry_terms", "det.terms", "det.height_bits", "first_integral.rank",
    "first_integral.certificate_terms", "polyring.divide_exact.calls",
)

CROSSOVER_MAX_M = 6


def _metric_of(name: str):
    for prefix, metric in TIME_METRICS.items():
        if name.startswith(prefix):
            return metric
    return None


def _height_bits(poly) -> int:
    return max((max(abs(c.numerator).bit_length(), c.denominator.bit_length())
                for c in poly.terms.values()), default=0)


class Tracer:
    """In-memory spans: [name, start, end, parent index, result info]."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._installed = []
        self.jets = {}   # key -> JetMatrix with m <= CROSSOVER_MAX_M

    # -- installation ---------------------------------------------------------

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if n == "extatica" or n.startswith("extatica.")]
        for (modname, attr), span in TRACED.items():
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                original = owner.__dict__[attr]
                setattr(owner, attr, self._wrap(span, original))
                self._installed.append((owner, attr, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(span, original)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapper)
                        self._installed.append((mod, name, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def _wrap(self, span_name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [span_name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            span[4] = self._info(span_name, result)
            return result

        return wrapper

    def _info(self, name, result):
        """Counts read from a layer's result, outside its span."""
        if name == "extactic.jet_matrix":
            m = len(result.entries)
            if m <= CROSSOVER_MAX_M:
                key = (str(result.field), result.field.mode,
                       result.system.degree, result.system.descriptor)
                self.jets.setdefault(key, result)
            return (m, sum(len(e.terms) for r in result.entries for e in r))
        if name.startswith("extactic.det_"):
            return (len(result.terms), _height_bits(result))
        if name == "extactic.extract_first_integral":
            return (result.rank, len(result.numerator.terms)
                    + len(result.denominator.terms))
        return None

    def take(self) -> list:
        """Hand over the spans recorded so far and start a fresh list."""
        out = list(self.spans)
        self.spans.clear()
        return out


def round_metrics(spans: list) -> dict:
    """Per-layer times (ms) and counts for the spans of one round."""
    times = {m: 0.0 for m in TIME_METRICS.values()}
    times["cli.overhead_ms"] = 0.0
    counts = {c: 0 for c in COUNT_METRICS}

    def has_ancestor(i, pred):
        p = spans[i][3]
        while p >= 0:
            if pred(spans[p][0]):
                return True
            p = spans[p][3]
        return False

    child_time = [0.0] * len(spans)
    for i, (name, start, end, parent, info) in enumerate(spans):
        dur = end - start
        if parent >= 0:
            child_time[parent] += dur
        metric = _metric_of(name)
        if metric and not has_ancestor(
                i, lambda n: _metric_of(n) == metric):
            times[metric] += dur * 1e3
        if name == "polyring.divide_exact":
            counts["polyring.divide_exact.calls"] += 1
        if info is None:     # no counts, or the call raised
            continue
        if name == "extactic.jet_matrix":
            counts["jet.m"] += info[0]
            counts["jet.entry_terms"] += info[1]
        elif name.startswith("extactic.det_") and not has_ancestor(
                i, lambda n: n.startswith("extactic.det_")):
            counts[name[len("extactic."):] + ".calls"] += 1
            counts["det.terms"] += info[0]
            counts["det.height_bits"] = max(counts["det.height_bits"],
                                            info[1])
        elif name == "extactic.extract_first_integral":
            counts["first_integral.rank"] += info[0]
            counts["first_integral.certificate_terms"] += info[1]
    for i, span in enumerate(spans):
        if span[0] == "cli.main":
            times["cli.overhead_ms"] += (span[2] - span[1]
                                         - child_time[i]) * 1e3
    return {**times, **counts}


def setup_metrics(spans: list) -> dict:
    """corpus.build_ms: corpus constructors run while inputs are built."""
    total = 0.0
    for name, start, end, parent, _ in spans:
        if name.startswith("corpus.") and (
                parent < 0 or not spans[parent][0].startswith("corpus.")):
            total += end - start
    return {"corpus.build_ms": total * 1e3}
