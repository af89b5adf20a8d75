"""Span and count instrumentation of trilnd, applied from outside the package.

Every probe is installed by rebinding: the wrapper replaces the original
object in each trilnd module namespace and class dict that holds it, so
an alias imported by name (``trilnd.oracle.nilpotency_check``,
``trilnd.cli.class_report``, ...) is traced exactly like the definition.

Spans are kept in flat arrays (name id, start, end, parent) and reduced
to self times after a pass: a span's self time is its duration minus the
durations of its direct children. Layer names are the prefix of the span
name before the first dot.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict

# (module, attribute, span name). An attribute "Class.name" is a class
# member; static methods and cached properties are handled by kind.
SPANS = (
    ("trilnd.poly", "normal_form", "poly.normal_form"),
    ("trilnd.poly", "poly_format", "poly.format"),
    ("trilnd.poly", "partial_derivative", "poly.partial_derivative"),
    ("trilnd.poly", "exact_divide", "poly.exact_divide"),
    ("trilnd.presentation", "TrinomialPresentation.from_input_dict", "presentation.from_input_dict"),
    ("trilnd.presentation", "TrinomialPresentation.rewrite_rules", "presentation.rewrite_rules"),
    ("trilnd.presentation", "TrinomialPresentation._relations", "presentation.relations"),
    ("trilnd.presentation", "TrinomialPresentation.is_factorial", "presentation.is_factorial"),
    ("trilnd.presentation", "TrinomialPresentation.to_input_dict", "presentation.to_input_dict"),
    ("trilnd.presentation", "type1", "presentation.type1"),
    ("trilnd.presentation", "type2", "presentation.type2"),
    ("trilnd.presentation", "surface", "presentation.surface"),
    ("trilnd.grading", "weight_assignment", "grading.weight_assignment"),
    ("trilnd.grading", "derivation_degree", "grading.derivation_degree"),
    ("trilnd.grading", "homogeneous_parts", "grading.homogeneous_parts"),
    ("trilnd.derivation", "Derivation.__init__", "derivation.init"),
    ("trilnd.derivation", "Derivation.apply", "derivation.apply"),
    ("trilnd.derivation", "Derivation.image_strings", "derivation.image_strings"),
    ("trilnd.derivation", "is_well_defined", "derivation.well_defined"),
    ("trilnd.derivation", "nilpotency_check", "derivation.nilpotency"),
    ("trilnd.derivation", "kernel_member", "derivation.kernel_member"),
    ("trilnd.derivation", "replica", "derivation.replica"),
    ("trilnd.derivation", "derivation_from_text", "derivation.parse"),
    ("trilnd.derivation", "derivation_to_text", "derivation.to_text"),
    ("trilnd.classify", "admissible_tuples", "classify.admissible_tuples"),
    ("trilnd.classify", "free_variable_lnd", "classify.free_variable_lnd"),
    ("trilnd.classify", "build_lnd", "classify.build_lnd"),
    ("trilnd.classify", "build_lnd_type1", "classify.build_lnd_type1"),
    ("trilnd.classify", "build_lnd_type2", "classify.build_lnd_type2"),
    ("trilnd.classify", "kernel_generators", "classify.kernel_generators"),
    ("trilnd.classify", "is_rigid", "classify.is_rigid"),
    ("trilnd.classify", "is_semirigid", "classify.is_semirigid"),
    ("trilnd.classify", "makar_limanov", "classify.makar_limanov"),
    ("trilnd.classify", "enumerate_lnds", "classify.enumerate_lnds"),
    ("trilnd.classify", "class_report", "classify.class_report"),
    ("trilnd.classify", "LndClassReport.to_dict", "classify.report_to_dict"),
    ("trilnd.toric", "demazure_roots", "toric.demazure_roots"),
    ("trilnd.toric", "gamma_cone", "toric.gamma_cone"),
    ("trilnd.toric", "toric_derivation", "toric.toric_derivation"),
    ("trilnd.oracle", "reduced_monomials", "oracle.reduced_monomials"),
    ("trilnd.oracle", "solution_space", "oracle.solution_space"),
    ("trilnd.oracle", "induced_weight_box", "oracle.induced_weight_box"),
    ("trilnd.oracle", "SolutionSpace.contains", "oracle.contains"),
    ("trilnd.oracle", "oracle_enumerate", "oracle.enumerate"),
    ("trilnd.cli", "main", "cli.main"),
    ("trilnd.cli", "cmd_analyze", "cli.analyze"),
    ("trilnd.cli", "cmd_lnds", "cli.lnds"),
    ("trilnd.cli", "cmd_verify", "cli.verify"),
    ("trilnd.cli", "_emit", "cli.emit"),
)

# Operations counted one by one in the count-only pass.
COUNTED = (
    ("trilnd.gaussian", "GaussianRational.__mul__", "gaussian.mul.calls"),
    ("trilnd.gaussian", "GaussianRational.__add__", "gaussian.add.calls"),
    ("trilnd.poly", "Monomial.__mul__", "poly.monomial_mul.calls"),
)


def _count_hooks():
    """Counters read off a call's arguments and result, by span name."""

    def normal_form(counts, args, result):
        counts["poly.normal_form.terms_in"] += len(args[0].terms)
        counts["poly.normal_form.terms_out"] += len(result.terms)

    def nilpotency(counts, args, result):
        if not result.verified:
            counts["derivation.nilpotency.inconclusive"] += 1

    def oracle(counts, args, result):
        for entry in result.entries:
            for _name, _delta, report in entry.samples:
                counts["oracle.samples"] += 1
                if report.verified:
                    counts["oracle.decided"] += 1

    def space(counts, args, result):
        k = len(result.unknowns)
        counts["oracle.unknowns.sum"] += k
        counts["oracle.unknowns.max"] = max(counts["oracle.unknowns.max"], k)

    def tuples(counts, args, result):
        counts["classify.tuples"] += len(result)

    def built(counts, args, result):
        counts["classify.lnds_built"] += 1

    return {
        "poly.normal_form": normal_form,
        "derivation.nilpotency": nilpotency,
        "oracle.enumerate": oracle,
        "oracle.solution_space": space,
        "classify.admissible_tuples": tuples,
        "classify.free_variable_lnd": built,
        "classify.build_lnd_type1": built,
        "classify.build_lnd_type2": built,
    }


def _trilnd_modules():
    return [m for name, m in list(sys.modules.items()) if name == "trilnd" or name.startswith("trilnd.")]


def _rebind(module_name, attr, make_wrapper):
    """Replace every binding of the named object by make_wrapper(original)."""
    module = sys.modules[module_name]
    if "." in attr:
        cls_name, member = attr.split(".")
        cls = getattr(module, cls_name)
        raw = cls.__dict__[member]
        if isinstance(raw, staticmethod):
            setattr(cls, member, staticmethod(make_wrapper(raw.__func__)))
            return
        if isinstance(raw, functools.cached_property):
            prop = functools.cached_property(make_wrapper(raw.func))
            prop.__set_name__(cls, member)
            setattr(cls, member, prop)
            return
        wrapped = make_wrapper(raw)
        # class-level aliases such as __rmul__ = __mul__
        for key, value in list(cls.__dict__.items()):
            if value is raw:
                setattr(cls, key, wrapped)
        return
    original = getattr(module, attr)
    wrapped = make_wrapper(original)
    for mod in _trilnd_modules():
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapped)


class Tracer:
    """Records spans while ``active``; idle wrappers only test the flag."""

    def __init__(self):
        self.active = False
        self.names: list = []
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.stack: list = []
        self.counts = defaultdict(int)

    def install(self):
        hooks = _count_hooks()
        for module_name, attr, span in SPANS:
            _rebind(module_name, attr, lambda fn, s=span: self._wrap(s, fn, hooks.get(s)))

    def _wrap(self, name, fn, hook):
        nid = len(self.names)
        self.names.append(name)
        span_name, start, end, parent, stack = (
            self.span_name, self.start, self.end, self.parent, self.stack,
        )
        clock = time.perf_counter
        counts = self.counts
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(span_name)
            span_name.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(counts, args, result)
            return result

        return traced

    def reset(self):
        for arr in (self.span_name, self.start, self.end, self.parent):
            del arr[:]
        self.counts.clear()

    def summary(self):
        """Calls, total and self time per span name; top-level span time."""
        n = len(self.span_name)
        child = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        top = 0.0
        for i in range(n):
            dur = end[i] - start[i]
            p = parent[i]
            if p >= 0:
                child[p] += dur
            else:
                top += dur
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for i in range(n):
            name = self.names[self.span_name[i]]
            calls[name] += 1
            self_s[name] += end[i] - start[i] - child[i]
        return {"calls": dict(calls), "self_s": dict(self_s), "top_s": top, "spans": n}


class Counter:
    """Counts the calls in COUNTED while ``active``."""

    def __init__(self):
        self.active = False
        self.counts = {name: 0 for _m, _a, name in COUNTED}

    def install(self):
        for module_name, attr, name in COUNTED:
            _rebind(module_name, attr, lambda fn, key=name: self._wrap(key, fn))

    def _wrap(self, key, fn):
        counts = self.counts
        counter = self

        def counted(a, b):
            if counter.active:
                counts[key] += 1
            return fn(a, b)

        return counted
