"""Verification suites: every checkable identity, replayed from scratch.

Each suite returns a report dict {"suite": name, "checks": [...]} where a
check is {"name", "status", "witness"?} and status is "pass", "fail" or
(for the randomized tame suite only) "inconclusive".  Every pass/fail
check is built by catalog.check, which passes when there is no witness;
a scan reports its first counterexample.  The CLI prints these; the
acceptance tests assert on them.  All numbers are produced by the
library layers.
"""

from __future__ import annotations

from functools import reduce
from itertools import product

from . import catalog, characters as ch, cubics, quiver as qv
from .catalog import check

SUITES = ("characters", "quiver", "loccoh", "tame")

BOX_LO, BOX_HI = -30, 30  # the weight box of the character identities
# the 14 simple characters are linearly independent on the 91 dominant
# weights of this box, so agreement there fixes a composition-factor multiset
ENVELOPE_BOX = (-6, 6)
QUIVER_SAMPLES, TAME_SAMPLES = 50, 100  # random representations each sampler draws
MAX_INCONCLUSIVE_RATE = 0.05  # share of tame summands that may stay inconclusive


def suite_characters() -> dict:
    checks: list[dict] = []

    golden = [
        ("nu(0)", ch.nu(0), 1), ("nu(1)", ch.nu(1), 0), ("nu(6)", ch.nu(6), 2),
        ("<[Sdelta], e^(3,-3)>", catalog.character_of("Sdelta").mult((3, -3)), 1),
        ("<[Sdelta], e^(-1,-5)>", catalog.character_of("Sdelta").mult((-1, -5)), 0),
        ("<[S], e^(3,0)>", catalog.character_of("S").mult((3, 0)), 1),
        ("<[E], e^(3,0)>", catalog.character_of("E").mult((3, 0)), 0),
        ("<[E], e^(-6,-9)>", catalog.character_of("E").mult((-6, -9)), 1),
        ("<[D0], e^(-1,-5)>", ch.mult_d(0, (-1, -5)), 1),
        ("<[D0], e^(3,0)>", ch.mult_d(0, (3, 0)), 0),
        ("<[D0], e^(-6,-9)>", ch.mult_d(0, (-6, -9)), 1),
        ("<[D0], e^(-2,-4)>", ch.mult_d(0, (-2, -4)), 0),
        ("<[D2], e^(-5,-9)>", ch.mult_d(2, (-5, -9)), 1),
        ("<[D1], e^(3,-1)>", ch.mult_d(1, (3, -1)), 0),
        ("<[D1], e^(-5,-5)>", catalog.character_of("D1").mult((-5, -5)), 1),
        ("<F([D0]), e^(3,0)>", ch.fourier(catalog.character_of("D0")).mult((3, 0)), 1),
        ("<[Q0delta], e^(-2,-4)>", catalog.character_of("Q0delta").mult((-2, -4)), 1),
        ("<[Q0delta], e^(-6,-9)>", catalog.character_of("Q0delta").mult((-6, -9)), 1),
        ("<[Q1], e^(0,-2)>", catalog.character_of("Q1").mult((0, -2)), 1),
        ("<[P], e^(3,-3)>", catalog.character_of("P").mult((3, -3)), 1),
        ("<[P], e^(-6,-9)>", catalog.character_of("P").mult((-6, -9)), 0),
        ("m_diag(6)", ch.m_diag(6), -1),
        ("m_diag(5)", ch.m_diag(5), 1),
        ("m_diag(4)", ch.m_diag(4), 0),
    ]
    for name, got, want in golden:
        checks.append(check(f"golden: {name} = {want}", None if got == want else f"got {got}"))

    checks.append(check("m_diag agrees with the nu difference on [-10, 60]", next(
        (a for a in range(-10, 61) if ch.m_diag(a) != ch.nu(a - 5) - ch.nu(a - 6)), None)))
    checks.append(check("nu matches direct expansion on [0, 60]", next(
        (i for i in range(0, 61)
         if ch.nu(i) != sum(1 for a in range(i // 2 + 1) if (i - 2 * a) % 3 == 0)), None)))

    checks.extend(catalog.verify_identities(BOX_LO, BOX_HI))
    checks.extend(catalog.fourier_coherence(BOX_LO, BOX_HI))
    return {"suite": "characters", "checks": checks}


def suite_quiver(seed: int = 0) -> dict:
    """Quiver facts; seed draws the two-vertex component's random samples."""
    checks: list[dict] = []
    pf = cubics.build("paper_full")
    bc = cubics.build("big_component")

    # injective envelopes: the quiver's factors against the character engine
    for vertex, simple in sorted(pf.vertex_labels.items()):
        dims = pf.injective(vertex).dims
        factors = sorted(pf.vertex_labels[v] for v, d in dims.items() for _ in range(d))
        got = reduce(ch.add, map(catalog.character_of, factors))
        want = catalog.injective_envelope_character(simple)
        checks.append(check(f"injective envelope of {simple} has factors {','.join(factors)}",
                            ch.first_disagreement(got, want, *ENVELOPE_BOX)))

    facts = [("d1", "g1", 1), ("e", "s", 0), ("d0", "s", 0), ("q0", "e", 0)]
    for x, y, count in facts:
        got = pf.arrow_count(x, y)
        checks.append(check(f"arrow count {x} -> {y} is {count}",
                            None if got == count else f"got {got}"))

    label_to_vertex = {s: v for v, s in pf.vertex_labels.items()}
    dual = {x: label_to_vertex[catalog.dual_partner(s)] for x, s in pf.vertex_labels.items()}
    checks.append(check("arrow counts are symmetric under holonomic duality", next(
        (f"({x}, {y})" for x, y in product(pf.quiver.vertices, repeat=2)
         if pf.arrow_count(x, y) != pf.arrow_count(dual[y], dual[x])), None)))

    for i, j in ((1, 2), (2, 1), (3, 4), (4, 3)):
        got = qv.is_isomorphic(bc.projective(str(i)), bc.injective(str(j)))
        checks.append(check(f"projective({i}) is isomorphic to injective({j})",
                            None if got else "not isomorphic"))

    try:
        cubics.injective_envelope_of_P()
        witness = None
    except ArithmeticError as exc:
        witness = str(exc)
    checks.append(check("cokernel of P -> H + F(H) is the injective envelope of P", witness))

    for n in (1, 2, 3, 4):
        for lam in (0, 1, -1, 5):
            R = cubics.rn_family(n, lam)
            verdicts = [
                ("", qv.is_indecomposable(R)),
                (" alpha image", qv.is_indecomposable(cubics.embed_alpha(R))),
                (" beta image", qv.is_indecomposable(cubics.embed_beta(R))),
            ]
            bad = [tag for tag, v in verdicts if v != "yes"]
            checks.append(check(f"R_{n}({lam}) indecomposable (and under both embeddings)",
                                f"failed at{','.join(bad)}" if bad else None))

    pairs = [(0, 1), (0, -1), (1, 5), (-1, 5), (2, 7)]
    for a, b in pairs:
        got = qv.is_isomorphic(cubics.rn_family(1, a), cubics.rn_family(1, b))
        checks.append(check(f"R_1({a}) and R_1({b}) are non-isomorphic",
                            "isomorphic" if got else None))

    two = cubics.check_two_vertex_component(samples=QUIVER_SAMPLES, seed=seed)
    checks.append(check(
        f"two-vertex component: {two['summands']} summands from {QUIVER_SAMPLES} samples "
        "all among the four indecomposables",
        two["violations"][:3] or None))
    return {"suite": "quiver", "checks": checks}


def suite_loccoh() -> dict:
    checks: list[dict] = []
    expected = {
        ("S", "O3bar", 1): ("E", "P"),
        ("S", "O2bar", 2): ("D0",),
        ("S", "O0", 4): ("E",),
        ("SdeltaModS", "O2bar", 1): ("D0",),
        ("SdeltaModS", "O0", 3): ("E",),
        ("D0", "O0", 2): ("E",),
        ("P", "O2bar", 1): ("D0", "E"),
        ("P", "O0", 1): ("E",),
        ("P", "O0", 3): ("E",),
        ("Q0", "O3bar", 1): ("D0", "P"),
        ("Q0", "O2bar", 2): ("E",),
        ("Q0", "O0", 2): ("E",),
        ("G1", "O3bar", 1): ("D1",),
        ("G1", "O2bar", 1): ("D1",),
        ("G-1", "O3bar", 1): ("D2",),
        ("G-1", "O2bar", 1): ("D2",),
    }
    for (name, support, k), want in sorted(expected.items()):
        got = tuple(sorted(catalog.local_cohomology(name, support, k)))
        checks.append(check(f"H^{k}_{support}({name}) = {'+'.join(want)}",
                            None if got == want else f"got {got}"))

    # every group below the module's own support, in (module, support, degree) order
    groups = ((name, support, k)
              for name in catalog.SIMPLES
              for support in catalog.SUPPORT_CLOSURES
              if catalog.CLOSURE_DIM[support] < catalog.ORBIT_DIM[catalog.SUPPORT[name]]
              for k in range(0, 7))
    checks.append(check("all off-table local cohomology queries vanish", next(
        (f"H^{k}_{support}({name})" for name, support, k in groups
         if sorted(catalog.local_cohomology(name, support, k))
         != sorted(expected.get((name, support, k), ()))), None)))

    def iterate(name: str, steps: list[tuple[str, int]]) -> tuple[str, ...] | None:
        objs = [name]
        for support, k in steps:
            if len(objs) != 1:
                return None
            cur = objs[0]
            got = catalog.local_cohomology(cur, support, k)
            if catalog.local_cohomology_is_extension(cur, support, k) and set(got) == {"P", "E"}:
                objs = ["SdeltaModS"]
            else:
                objs = list(got)
        return tuple(sorted(objs))

    iterated_groups = [
        ("H^1_O2bar(H^1_O3bar(S))", [("O3bar", 1), ("O2bar", 1)], ("D0",)),
        ("H^3_O0(H^1_O3bar(S))", [("O3bar", 1), ("O0", 3)], ("E",)),
        ("H^2_O0(H^2_O2bar(S))", [("O2bar", 2), ("O0", 2)], ("E",)),
        ("H^2_O0(H^1_O2bar(H^1_O3bar(S)))", [("O3bar", 1), ("O2bar", 1), ("O0", 2)], ("E",)),
    ]
    for label, steps, want in iterated_groups:
        got = iterate("S", steps)
        checks.append(check(f"iterated {label} = {'+'.join(want)}",
                            None if got == want else f"got {got}"))

    g1 = catalog.character_of("G1")
    d1 = catalog.character_of("D1")
    checks.append(check("[H^1_O3bar(G1)] = [D1] on the box",
                        ch.first_disagreement(ch.localize(g1) - g1, d1, BOX_LO, BOX_HI)))
    return {"suite": "loccoh", "checks": checks}


def suite_tame(seed: int = 0) -> dict:
    """The tame classification on random big-component representations drawn from seed."""
    report = cubics.check_tame_classification(samples=TAME_SAMPLES, seed=seed)
    checks = [
        check(f"all {report['summands']} conclusive summands fall into the three classified cases",
              report["violations"][:3] or None),
    ]
    rate = report["inconclusive_rate"]
    rate_check = {
        "name": f"inconclusive rate {rate:.3f} below {MAX_INCONCLUSIVE_RATE}",
        "status": "pass" if rate < MAX_INCONCLUSIVE_RATE else "inconclusive",
    }
    if rate_check["status"] != "pass":
        rate_check["witness"] = f"{report['inconclusive']} of {report['summands']}"
    checks.append(rate_check)
    return {"suite": "tame", "checks": checks, "detail": {
        k: v for k, v in report.items() if k != "violations"}}


def run_suites(names: list[str], seed: int = 0) -> list[dict]:
    reports = []
    for name in names:
        if name not in SUITES:
            raise KeyError(f"unknown suite {name!r}")
        suite = globals()[f"suite_{name}"]  # looked up when it runs, so it can be wrapped
        reports.append(suite(seed=seed) if name in ("quiver", "tame") else suite())
    return reports
