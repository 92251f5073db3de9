"""Span tracing around the package's layer entry points, from outside.

The package binds names with ``from .x import name``, so a function is
reachable through every module that imported it (``gausscf.real_roots_symmetric``,
``cli.gauss_rule``, ``gaussquad.gauss_rule`` and so on).  ``install`` replaces
the original at every module global that holds it, and the method targets on
their class, then ``check_installed`` scans every loaded module and class
again and fails if any binding still holds an original.

Spans nest on a stack.  Each span adds its duration to its parent's child
time, so a layer's self time is its total time minus its children's.  Stats
are aggregated per span name as they close; nothing per call is kept.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

MARK = "__bench_span__"
RRS = "rootfind.real_roots_symmetric"

# (module, attribute path, span name).  A dotted attribute is a method.
TARGETS = [
    ("gaussquad.gausscf", "legendre_pair", "gausscf.legendre_pair"),
    ("gaussquad.gausscf", "gauss_rule", "gausscf.gauss_rule"),
    ("gaussquad.gausscf", "weight_polynomial", "gausscf.weight_polynomial"),
    ("gaussquad.rootfind", "real_roots_symmetric", RRS),
    ("gaussquad.ratpoly", "RatPoly.eval", "ratpoly.eval"),
    ("gaussquad.ratpoly", "RatPoly.eval_hp", "ratpoly.eval_hp"),
    ("gaussquad.ratpoly", "RatPoly.__mul__", "ratpoly.mul"),
    ("gaussquad.ratpoly", "RatPoly.divrem", "ratpoly.divrem"),
    ("gaussquad.ratpoly", "mod_inverse_eval", "ratpoly.mod_inverse_eval"),
    ("gaussquad.momseries", "product_split", "momseries.product_split"),
    ("gaussquad.momseries", "divide_tail_by_poly", "momseries.divide_tail_by_poly"),
    ("gaussquad.interprule", "error_coefficients", "interprule.error_coefficients"),
    ("gaussquad.interprule", "apply_rule", "interprule.apply_rule"),
    ("gaussquad.interprule", "node_terms", "interprule.node_terms"),
    ("gaussquad.interprule", "to_convention", "interprule.to_convention"),
    ("gaussquad.interprule", "interpolatory_rule", "interprule.interpolatory_rule"),
    ("gaussquad.numerics", "hp_ln", "numerics.hp_ln"),
    ("gaussquad.numerics", "format_sig", "numerics.format_sig"),
    ("gaussquad.numerics", "hp_log10_scaled", "numerics.hp_log10_scaled"),
    ("gaussquad.cli", "main", "cli.main"),
]

# Span names whose calls are also counted while a real_roots_symmetric span is open.
COUNTED_IN_RRS = {"ratpoly.eval": "rrs.evals_exact", "ratpoly.eval_hp": "rrs.evals_hp"}


def _interp_branch(args, kwargs) -> str:
    # The package takes its exact branch when every node is int or Fraction.
    from fractions import Fraction

    nodes = args[0] if args else kwargs["nodes"]
    exact = all(isinstance(a, (int, Fraction)) for a in nodes)
    return "interprule.interpolatory_rule." + ("exact" if exact else "decimal")


class Tracer:
    def __init__(self):
        # name -> [calls, total seconds, child seconds]
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts = defaultdict(int)
        self.root_s = 0.0
        self._stack: list[list[float]] = []
        self._in_rrs = 0
        self.originals: list[tuple[object, str]] = []

    def reset(self) -> None:
        self.stats.clear()
        self.counts.clear()
        self.root_s = 0.0

    def wrap(self, name: str, fn):
        stack, stats, counts = self._stack, self.stats, self.counts
        counted = COUNTED_IN_RRS.get(name)
        is_rrs = name == RRS
        classify = _interp_branch if name == "interprule.interpolatory_rule" else None
        tracer = self

        def wrapper(*args, **kwargs):
            label = classify(args, kwargs) if classify else name
            if counted and tracer._in_rrs:
                counts[counted] += 1
            frame = [0.0]
            stack.append(frame)
            if is_rrs:
                tracer._in_rrs += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if is_rrs:
                    tracer._in_rrs -= 1
                if stack:
                    stack[-1][0] += dt
                else:
                    tracer.root_s += dt
                st = stats[label]
                st[0] += 1
                st[1] += dt
                st[2] += frame[0]
            if is_rrs:
                counts["rrs.roots"] += len(result.roots)
            return result

        setattr(wrapper, MARK, name)
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def self_s(self, name: str) -> float:
        st = self.stats.get(name)
        return st[1] - st[2] if st else 0.0

    def calls(self, name: str) -> int:
        st = self.stats.get(name)
        return st[0] if st else 0


def _loaded_targets():
    for modname, attr, name in TARGETS:
        mod = sys.modules.get(modname)
        if mod is None:
            continue
        if "." in attr:
            clsname, meth = attr.split(".")
            cls = getattr(mod, clsname)
            yield name, cls, meth, cls.__dict__[meth]
        else:
            yield name, mod, attr, getattr(mod, attr)


def _package_modules():
    return [m for k, m in list(sys.modules.items())
            if m is not None and (k == "gaussquad" or k.startswith("gaussquad."))]


def install(tracer: Tracer) -> None:
    """Wrap every loaded target at every binding site, then check that none was missed."""
    for name, owner, attr, fn in list(_loaded_targets()):
        if getattr(fn, MARK, None):
            raise RuntimeError(f"{name} is already wrapped")
        wrapper = tracer.wrap(name, fn)
        tracer.originals.append((fn, name))
        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
            continue
        for mod in list(sys.modules.values()):
            if mod is None:
                continue
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, wrapper)
    check_installed(tracer)


def check_installed(tracer: Tracer) -> None:
    """Fail if any module global or package class attribute still holds an original."""
    originals = {id(fn): name for fn, name in tracer.originals}
    for modname, mod in list(sys.modules.items()):
        if mod is None:
            continue
        for key, value in list(vars(mod).items()):
            if id(value) in originals:
                raise AssertionError(f"{modname}.{key} still binds unwrapped {originals[id(value)]}")
    for mod in _package_modules():
        for value in list(vars(mod).values()):
            if isinstance(value, type):
                for key, attr in vars(value).items():
                    if id(attr) in originals:
                        raise AssertionError(
                            f"{value.__name__}.{key} still binds unwrapped {originals[id(attr)]}"
                        )
    for name, _, _, fn in _loaded_targets():
        if getattr(fn, MARK, None) != name:
            raise AssertionError(f"{name} is not wrapped")


def check_not_installed() -> None:
    """The untraced run must time the package as shipped."""
    for mod in _package_modules():
        for key, value in list(vars(mod).items()):
            if getattr(value, MARK, None):
                raise AssertionError(f"{mod.__name__}.{key} is wrapped in an untraced run")
            if isinstance(value, type):
                for k, attr in vars(value).items():
                    if getattr(attr, MARK, None):
                        raise AssertionError(f"{value.__name__}.{k} is wrapped in an untraced run")

