"""Per-layer spans recorded from outside the library.

:class:`Tracer` replaces selected functions and operators of the
``spinchern`` modules with wrappers that time each call, and puts the
originals back afterwards.  A function imported by name into another module
(``cli`` and ``exceptional`` import ``character_on_T1`` and ``total_chern``
this way) is replaced at every place it is bound, and so is an operator
bound under two names (``__radd__ = __add__``).

A span's self time is its duration minus the durations of the traced spans
it encloses.  Counters are computed after a span ends and their cost is
excluded from the enclosing spans.
"""

from __future__ import annotations

import functools
import sys
import time
from types import ModuleType

# Span name -> (module, attribute path of the original).
SPANS = {
    "laurent.MultiLaurent.mul": ("laurent", "MultiLaurent.__mul__"),
    "laurent.MultiLaurent.add": ("laurent", "MultiLaurent.__add__"),
    "laurent.MultiLaurent.substitute_ones": ("laurent", "MultiLaurent.substitute_ones"),
    "laurent.TruncatedPoly.mul": ("laurent", "TruncatedPoly.__mul__"),
    "laurent.TruncatedPoly.inverse": ("laurent", "TruncatedPoly.inverse"),
    "spin_reps.character_on_T1": ("spin_reps", "character_on_T1"),
    "spin_reps.character_on_Tm": ("spin_reps", "character_on_Tm"),
    "spin_reps.dimension": ("spin_reps", "dimension"),
    "char_classes.total_chern": ("char_classes", "total_chern"),
    "char_classes.total_chern_f2": ("char_classes", "total_chern_f2"),
    "char_classes.total_chern_virtual": ("char_classes", "total_chern_virtual"),
    "char_classes.total_sw_real": ("char_classes", "total_sw_real"),
    "char_classes.weights_from_character": ("char_classes", "weights_from_character"),
    "char_classes.mod2": ("char_classes", "mod2"),
    "steenrod.j_ideal_generators": ("steenrod", "j_ideal_generators"),
    "steenrod.sq_bso": ("steenrod", "sq_bso"),
    "steenrod.GradedPolyF2.str": ("steenrod", "GradedPolyF2.__str__"),
    "exceptional.verify_case": ("exceptional", "verify_case"),
    "exceptional.dimension_audit": ("exceptional", "dimension_audit"),
    "cli.run_prop2": ("cli", "run_prop2"),
    "cli.run_quillen": ("cli", "run_quillen"),
    "cli.run_restrict": ("cli", "run_restrict"),
    "cli.run_theorem1": ("cli", "run_theorem1"),
    "cli.main": ("cli", "main"),
}

MODULES = ("laurent", "spin_reps", "char_classes", "steenrod", "exceptional", "cli")

# Z products with more coefficient pairs than this count as "big"; the
# library's own Kronecker threshold at the time the benchmark was defined.
BIG_PRODUCT_PAIRS = 20_000


def _resolve(module: ModuleType, path: str):
    obj = module
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


def _package_modules() -> list[ModuleType]:
    return [
        mod for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "spinchern" or name.startswith("spinchern."))
    ]


def namespaces() -> list[object]:
    """Every module of the package and every class defined in one."""
    out: list[object] = []
    for mod in _package_modules():
        out.append(mod)
        out += [
            obj for obj in vars(mod).values()
            if isinstance(obj, type) and obj.__module__ == mod.__name__
        ]
    return out


def find_wrappers() -> list[str]:
    """Names under which a tracing wrapper is still bound in the package."""
    return [
        f"{getattr(ns, '__name__', ns)}.{name}"
        for ns in namespaces()
        for name, value in list(vars(ns).items())
        if hasattr(value, "_perfbench_span")
    ]


class Tracer:
    """Spans and counters for one traced pass.  Use as a context manager:
    the wrappers are bound on entry and the originals restored on exit."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = {name: 0 for name in SPANS}
        self.self_s: dict[str, float] = {name: 0.0 for name in SPANS}
        self.counts: dict[str, int] = {
            "tm_terms": 0, "t1_terms": 0, "tp_pairs": 0, "tp_z_products": 0,
            "tp_big_products": 0, "tp_max_bits": 0, "sq_terms_in": 0, "sq_terms_out": 0,
        }
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object]] = []

    # ---- counters, run after a span has ended ------------------------------

    def _count_tm(self, args, result) -> None:
        self.counts["tm_terms"] += result.term_count()

    def _count_t1(self, args, result) -> None:
        self.counts["t1_terms"] += result.term_count()

    def _count_tp_mul(self, args, result) -> None:
        a, b = args
        pairs = sum(1 for c in a.coeffs if c) * sum(1 for c in b.coeffs if c)
        self.counts["tp_pairs"] += pairs
        if a.ring == "Z":
            self.counts["tp_z_products"] += 1
            self.counts["tp_big_products"] += pairs > BIG_PRODUCT_PAIRS
        bits = max((abs(c).bit_length() for c in result.coeffs), default=0)
        self.counts["tp_max_bits"] = max(self.counts["tp_max_bits"], bits)

    def _count_sq(self, args, result) -> None:
        self.counts["sq_terms_in"] += len(args[1].terms)
        self.counts["sq_terms_out"] += len(result.terms)

    # ---- wrapping ------------------------------------------------------------

    def _wrap(self, name: str, fn, after):
        calls, self_s, stack = self.calls, self.self_s, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                calls[name] += 1
                self_s[name] += duration - stack.pop()
                if stack:
                    stack[-1] += duration
            if after is not None:
                counted = clock()
                after(args, result)
                if stack:
                    stack[-1] += clock() - counted
            return result

        wrapper._perfbench_span = name
        return wrapper

    def __enter__(self) -> Tracer:
        package = {mod.__name__: mod for mod in _package_modules()}
        after = {
            "spin_reps.character_on_Tm": self._count_tm,
            "spin_reps.character_on_T1": self._count_t1,
            "laurent.TruncatedPoly.mul": self._count_tp_mul,
            "steenrod.sq_bso": self._count_sq,
        }
        wrappers = {}
        for name, (module, path) in SPANS.items():
            try:
                original = _resolve(package[f"spinchern.{module}"], path)
            except (KeyError, AttributeError):
                continue  # gone from the library: the span reads 0
            wrappers[id(original)] = (original, self._wrap(name, original, after.get(name)))
        try:
            for ns in namespaces():
                for attr, value in list(vars(ns).items()):
                    hit = wrappers.get(id(value))
                    if hit is not None and hit[0] is value:
                        self._patches.append((ns, attr, value))
                        setattr(ns, attr, hit[1])
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._patches:
            ns, attr, original = self._patches.pop()
            setattr(ns, attr, original)

    # ---- results ---------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the pass; see PER_LAYER_UNITS in run.py."""
        steenrod = sys.modules["spinchern.steenrod"]
        calls, self_s, c = self.calls, self.self_s, self.counts
        out: dict[str, float] = {}
        for name in SPANS:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        for module in MODULES:
            out[f"{module}.self_s"] = sum(
                v for k, v in self_s.items() if k.startswith(module + ".")
            )
        out["spin_reps.character_on_Tm.terms"] = c["tm_terms"]
        out["spin_reps.collapse_ratio"] = c["t1_terms"] / c["tm_terms"] if c["tm_terms"] else 0.0
        out["laurent.TruncatedPoly.mul.pairs"] = c["tp_pairs"]
        out["laurent.TruncatedPoly.mul.big_share"] = (
            c["tp_big_products"] / c["tp_z_products"] if c["tp_z_products"] else 0.0
        )
        out["laurent.TruncatedPoly.mul.max_bits"] = c["tp_max_bits"]
        out["steenrod.sq_bso.terms_in"] = c["sq_terms_in"]
        out["steenrod.sq_bso.terms_out"] = c["sq_terms_out"]
        out["steenrod.sq_on_generator.hit_ratio"] = 0.0
        cache_info = getattr(getattr(steenrod, "sq_on_generator", None), "cache_info", None)
        if cache_info is not None:
            info = cache_info()
            lookups = info.hits + info.misses
            out["steenrod.sq_on_generator.hit_ratio"] = info.hits / lookups if lookups else 0.0
        return out
