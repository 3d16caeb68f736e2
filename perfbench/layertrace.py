"""Per-layer tracing from outside the program.

A Tracer wraps named functions of the binarycubics modules (and
sympy's factorization entry point) and records, per name, the number
of calls, the total time of outermost calls and the self time: the
wrapper's duration minus the time spent in wrapped callees.  Times are
read from the clock given to the Tracer (perf_counter by default; the
benchmark passes its SpeedProbe clock).  Nothing in
src/ is edited; each wrapper is installed on every binarycubics module
namespace that binds the original object, under any name, so a name
imported with ``from .quiver import decompose_certified`` is traced
where it is called too.  A target that no longer resolves raises
LookupError rather than reading as zero calls.
"""

from __future__ import annotations

import functools
import importlib
import time

PACKAGE = "binarycubics"
MODULES = ("characters", "catalog", "ratlinalg", "quiver", "cubics", "verify", "cli")

#: (metric prefix, module, attribute path).  A dotted attribute path
#: names a method, which is wrapped once on its class.
TARGETS = (
    ("characters.ClosedFormCharacter.coefficient", "binarycubics.characters",
     "ClosedFormCharacter.coefficient"),
    ("characters.mult_d", "binarycubics.characters", "mult_d"),
    ("characters.nu", "binarycubics.characters", "nu"),
    ("characters.Character.mult", "binarycubics.characters", "Character.mult"),
    ("catalog.character_of", "binarycubics.catalog", "character_of"),
    ("catalog.verify_identities", "binarycubics.catalog", "verify_identities"),
    ("catalog.fourier_coherence", "binarycubics.catalog", "fourier_coherence"),
    ("ratlinalg.rref", "binarycubics.ratlinalg", "rref"),
    ("ratlinalg.nullspace", "binarycubics.ratlinalg", "nullspace"),
    ("ratlinalg.solve", "binarycubics.ratlinalg", "solve"),
    ("ratlinalg.inverse", "binarycubics.ratlinalg", "inverse"),
    ("ratlinalg.quotient_maps", "binarycubics.ratlinalg", "quotient_maps"),
    ("ratlinalg.complement_columns", "binarycubics.ratlinalg", "complement_columns"),
    ("ratlinalg.matmul", "binarycubics.ratlinalg", "matmul"),
    ("ratlinalg.minimal_polynomial", "binarycubics.ratlinalg", "minimal_polynomial"),
    ("ratlinalg.eval_poly", "binarycubics.ratlinalg", "eval_poly"),
    ("quiver.hom_basis", "binarycubics.quiver", "hom_basis"),
    ("quiver.semisimple_rank", "binarycubics.quiver", "semisimple_rank"),
    ("quiver.decompose_certified", "binarycubics.quiver", "decompose_certified"),
    ("quiver.is_isomorphic", "binarycubics.quiver", "is_isomorphic"),
    ("quiver.is_indecomposable", "binarycubics.quiver", "is_indecomposable"),
    ("quiver.kernel", "binarycubics.quiver", "kernel"),
    ("quiver.cokernel", "binarycubics.quiver", "cokernel"),
    ("quiver.BoundQuiver.path_basis", "binarycubics.quiver", "BoundQuiver.path_basis"),
    ("quiver.Representation.init", "binarycubics.quiver", "Representation.__post_init__"),
    ("quiver.RepMorphism.init", "binarycubics.quiver", "RepMorphism.__post_init__"),
    ("sympy.factor_list", "sympy", "Poly.factor_list"),
    ("cubics.random_big_component_rep", "binarycubics.cubics", "random_big_component_rep"),
    ("cubics.check_tame_classification", "binarycubics.cubics", "check_tame_classification"),
    ("cubics.check_two_vertex_component", "binarycubics.cubics", "check_two_vertex_component"),
    ("cubics.rn_family", "binarycubics.cubics", "rn_family"),
    ("cubics.embed_alpha", "binarycubics.cubics", "embed_alpha"),
    ("cubics.embed_beta", "binarycubics.cubics", "embed_beta"),
)


class _Stat:
    __slots__ = ("calls", "outer_calls", "depth", "total_s", "self_s")

    def __init__(self):
        self.calls = self.outer_calls = self.depth = 0
        self.total_s = self.self_s = 0.0


class Tracer:
    """Call counts, self time and work counters for the TARGETS."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats = {prefix: _Stat() for prefix, _, _ in TARGETS}
        self.counters = {
            "ratlinalg.rref.cells": 0,
            "ratlinalg.matmul.mults": 0,
            "ratlinalg.minimal_polynomial.max_n": 0,
            "quiver.hom_basis.unknowns": 0,
            "sympy.factor_list.splits": 0,
        }
        self._stack: list[float] = []
        self._hooks = {
            "ratlinalg.rref": self._count_rref,
            "ratlinalg.matmul": self._count_matmul,
            "ratlinalg.minimal_polynomial": self._count_minpoly,
            "quiver.hom_basis": self._count_unknowns,
            "sympy.factor_list": self._count_split,
        }

    # -- work counters, called with the wrapped call's arguments and result

    def _count_rref(self, args, kwargs, result):
        A = args[0]
        ncols = args[1] if len(args) > 1 else kwargs.get("ncols")
        if A:
            self.counters["ratlinalg.rref.cells"] += len(A) * (ncols if ncols is not None else len(A[0]))

    def _count_matmul(self, args, kwargs, result):
        A, B = args
        if A and B:
            self.counters["ratlinalg.matmul.mults"] += len(A) * len(B) * len(B[0])

    def _count_minpoly(self, args, kwargs, result):
        n = len(args[0])
        if n > self.counters["ratlinalg.minimal_polynomial.max_n"]:
            self.counters["ratlinalg.minimal_polynomial.max_n"] = n

    def _count_unknowns(self, args, kwargs, result):
        V, W = args
        self.counters["quiver.hom_basis.unknowns"] += sum(
            V.dims[v] * W.dims[v] for v in V.bq.quiver.vertices)

    def _count_split(self, args, kwargs, result):
        # the decomposition engine splits exactly when the minimal
        # polynomial it factors has two or more coprime factors
        if len(result[1]) >= 2:
            self.counters["sympy.factor_list.splits"] += 1

    # -- installation

    def _wrap(self, prefix: str, fn):
        stat = self.stats[prefix]
        stack = self._stack
        hook = self._hooks.get(prefix)
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat.calls += 1
            if stat.depth == 0:
                stat.outer_calls += 1
            stat.depth += 1
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stat.self_s += elapsed - stack.pop()
                stat.depth -= 1
                if stat.depth == 0:
                    stat.total_s += elapsed
                if stack:
                    stack[-1] += elapsed
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target; raise LookupError for one that is gone."""
        namespaces = [importlib.import_module(PACKAGE)]
        namespaces += [importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES]
        for prefix, module_name, path in TARGETS:
            owner = importlib.import_module(module_name)
            *owners, attr = path.split(".")
            for name in owners:
                owner = getattr(owner, name, None)
                if owner is None:
                    raise LookupError(f"traced target {module_name}.{path} does not resolve")
            original = owner.__dict__.get(attr) if owners else getattr(owner, attr, None)
            if original is None:
                raise LookupError(f"traced target {module_name}.{path} does not resolve")
            wrapper = self._wrap(prefix, original)
            setattr(owner, attr, wrapper)
            if not owners:
                for ns in namespaces:
                    for name, value in list(vars(ns).items()):
                        if value is original:
                            setattr(ns, name, wrapper)

    # -- report

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for prefix, stat in self.stats.items():
            out[f"{prefix}.calls"] = stat.calls
            out[f"{prefix}.total_s"] = stat.total_s
            out[f"{prefix}.self_s"] = stat.self_s
        out.update(self.counters)
        mult = self.stats["characters.Character.mult"]
        leaves = (self.stats["characters.ClosedFormCharacter.coefficient"].calls
                  + self.stats["characters.mult_d"].calls)
        out["characters.leaf_evals_per_query"] = leaves / mult.outer_calls if mult.outer_calls else 0.0
        minpoly = self.stats["ratlinalg.minimal_polynomial"].calls
        out["quiver.split_yield"] = (
            self.counters["sympy.factor_list.splits"] / minpoly if minpoly else 0.0)
        return out
