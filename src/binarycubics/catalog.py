"""Catalog of the 14 simple GL2-equivariant D-modules on binary cubic forms.

There are exactly 14 simples, classified by the support of the module:
nine with full support (six of holonomic rank one, G_-1, S = G_0, G_1,
G_2, G_3, G_4, and three of rank two, Q_0, Q_1, Q_2), one supported on
the discriminant hypersurface (P), three on the cone over the twisted
cubic (D_0, D_1, D_2), and one at the origin (E).  The catalog records
their characters (wired to the exact character engine), the Fourier and
holonomic-duality pairings, the composition-series identities of the
localizations, the characters of the injective envelopes, and the full
table of (iterated) local cohomology groups with support in orbit
closures.
"""

from __future__ import annotations

from . import characters as ch
from .characters import Character
from .ratlinalg import integer
from .values import Frozen

SIMPLES = ("S", "G-1", "G1", "G2", "G3", "G4", "Q0", "Q1", "Q2", "P", "D0", "D1", "D2", "E")

#: Names of non-simple characters that are still individually addressable.
DERIVED = ("Sdelta", "Q0delta", "F1", "F-1", "SdeltaModS")

_FOURIER_PAIRS = (("S", "E"), ("G-1", "D1"), ("G1", "D2"), ("G2", "G4"), ("Q1", "Q2"), ("D0", "Q0"))
_FOURIER_FIXED = ("P", "G3")
_DUALITY_PAIRS = (("D1", "D2"), ("Q1", "Q2"), ("G2", "G4"), ("G1", "G-1"))
_DUALITY_FIXED = ("S", "Q0", "P", "D0", "E", "G3")


def _pairing(pairs, fixed) -> dict[str, str]:
    out = {x: x for x in fixed}
    for a, b in pairs:
        out[a] = b
        out[b] = a
    return out


_FOURIER = _pairing(_FOURIER_PAIRS, _FOURIER_FIXED)
_DUALITY = _pairing(_DUALITY_PAIRS, _DUALITY_FIXED)


class OrbitInfo(Frozen):
    """One GL2-orbit on the space of binary cubics; local_systems counts its
    irreducible equivariant local systems, the simples supported there."""

    _fields = ("name", "dim", "representative", "component_group", "local_systems")

    def __init__(self, name: str, dim: int, representative: str, component_group: str,
                 local_systems: int):
        vars(self).update(name=name, dim=dim, representative=representative,
                          component_group=component_group, local_systems=local_systems)


ORBITS = (
    OrbitInfo("O0", 0, "0", "1", 1),
    OrbitInfo("O2", 2, "w0^3", "C3", 3),
    OrbitInfo("O3", 3, "w0^2*w1", "1", 1),
    OrbitInfo("O4", 4, "w0^3 + w1^3", "(C3 x C3) : C2", 9),
)

#: Dimension of each orbit, read off ORBITS.
ORBIT_DIM = {o.name: o.dim for o in ORBITS}

#: Support of each simple, as the orbit whose closure carries it.
SUPPORT = {
    "S": "O4", "G-1": "O4", "G1": "O4", "G2": "O4", "G3": "O4", "G4": "O4",
    "Q0": "O4", "Q1": "O4", "Q2": "O4",
    "P": "O3",
    "D0": "O2", "D1": "O2", "D2": "O2",
    "E": "O0",
}

def fourier_partner(name: str) -> str:
    """The simple paired with this one by the Fourier transform."""
    return _FOURIER[_simple(name)]


def dual_partner(name: str) -> str:
    """The simple paired with this one by holonomic duality."""
    return _DUALITY[_simple(name)]


def _simple(name: str) -> str:
    if name not in SUPPORT:
        raise KeyError(f"unknown simple: {name!r}")
    return name


def check(name: str, witness=None) -> dict:
    """A pass/fail check record: it passes when witness is None.

    A failing record carries str(witness), the first counterexample
    found, under "witness".
    """
    if witness is None:
        return {"name": name, "status": "pass"}
    return {"name": name, "status": "fail", "witness": str(witness)}


_characters: dict[str, Character] = {}


def _build_characters() -> dict[str, Character]:
    s = ch.from_closed_form(ch.S_FORM, "S")
    e = ch.from_closed_form(ch.E_FORM, "E")
    sdelta = ch.from_closed_form(ch.SDELTA_FORM, "Sdelta")
    p = sdelta - s - e
    d = ch.twisted_cubic_characters()
    q0 = ch.fourier(d[0])
    q0delta = ch.localize(q0)
    out = {
        "S": s,
        "E": e,
        "P": p,
        "D0": d[0],
        "D1": d[1],
        "D2": d[2],
        "G1": ch.fourier(d[2]),
        "G-1": ch.fourier(d[1]),
        "G2": ch.shift(sdelta, (2, 2)),
        "G3": ch.shift(sdelta, (3, 3)),
        "G4": ch.shift(sdelta, (4, 4)),
        "Q0": q0,
        "Q1": ch.shift(q0delta, (2, 2)),
        "Q2": ch.shift(q0delta, (4, 4)),
        "Sdelta": sdelta,
        "Q0delta": q0delta,
        "F1": ch.shift(sdelta, (1, 1)),
        "F-1": ch.shift(sdelta, (-1, -1)),
        "SdeltaModS": sdelta - s,
    }
    for key, value in out.items():
        value.name = key
    return out


def character_of(name: str) -> Character:
    """Character of a simple (or of one of the named derived modules).

    Simples are assembled from the character engine: S and E from their
    closed forms, P = [Sdelta] - [S] - [E], the D_j from the
    twisted-cubic count, G_1 and G_-1 as Fourier images of D_2 and D_1,
    G_i = [Sdelta] shifted by (i, i) for i = 2, 3, 4, Q_0 as the Fourier
    image of D_0, and Q_j as [Q0 localized] shifted by (2j, 2j), where
    the localization is read at one proven shift by a multiple of (6, 6)
    (characters.localize).  The table is built on first use and
    instances are shared.  Only four leaves memoize: S, E, one period
    of Sdelta (characters.from_closed_form) and the twisted-cubic count
    that D_0, D_1 and D_2 share (characters.twisted_cubic_characters).
    Every other character is a memo-free view whose values are read off
    those four memos, so repeated queries of any name hit the leaf
    memos they reach.
    """
    if not _characters:
        _characters.update(_build_characters())
    try:
        return _characters[name]
    except KeyError:
        raise KeyError(f"unknown character name: {name!r}") from None


def all_character_names() -> tuple[str, ...]:
    return SIMPLES + DERIVED


class CompositionSeriesFact(Frozen):
    """An ambient module together with its simple factors (with multiplicity).

    non_split marks the indecomposable extensions among the factors, a
    module-level fact recorded here as data (the catalog does not prove
    non-splitness).
    """

    _fields = ("ambient", "factors", "non_split")

    def __init__(self, ambient: str, factors: tuple[str, ...], non_split: bool = False):
        vars(self).update(ambient=ambient, factors=factors, non_split=non_split)


COMPOSITION_SERIES = (
    CompositionSeriesFact("Sdelta", ("S", "P", "E"), non_split=True),
    CompositionSeriesFact("Q0delta", ("Q0", "P", "D0"), non_split=True),
    CompositionSeriesFact("F1", ("G1", "D1"), non_split=True),
    CompositionSeriesFact("F-1", ("G-1", "D2"), non_split=True),
    CompositionSeriesFact("SdeltaModS", ("P", "E"), non_split=True),
)

def injective_envelope_character(name: str) -> Character:
    """Character of the injective envelope of a simple.

    A full-support simple M has the localization away from the
    discriminant, [M_delta] = localize([M]); E and the D_j have the
    Fourier image of the envelope of their full-support Fourier partner;
    P has that of the cokernel of P embedded diagonally in H and F(H)
    (cubics.injective_envelope_of_P), [H] + [F(H)] - [P] =
    [Sdelta] + [Q0delta] - [P].
    """
    if SUPPORT[_simple(name)] == "O4":
        return ch.localize(character_of(name))
    if name == "P":
        return character_of("Sdelta") + character_of("Q0delta") - character_of("P")
    return ch.fourier(ch.localize(character_of(fourier_partner(name))))


SUPPORT_CLOSURES = ("O3bar", "O2bar", "O0")

#: Dimension of each orbit closure: that of the orbit it closes.
CLOSURE_DIM = {c: ORBIT_DIM[c.removesuffix("bar")] for c in SUPPORT_CLOSURES}

#: Non-zero local cohomology H^k with support in an orbit closure, for
#: the simples and for the length-two extension SdeltaModS = Sdelta/S.
#: Values are multisets of simple factors; "extension" flags entries
#: that are a single non-split module rather than a direct sum.
_LOCAL_COHOMOLOGY: dict[tuple[str, str, int], tuple[tuple[str, ...], bool]] = {
    ("S", "O3bar", 1): (("P", "E"), True),          # = SdeltaModS
    ("S", "O2bar", 2): (("D0",), False),
    ("S", "O0", 4): (("E",), False),
    ("SdeltaModS", "O2bar", 1): (("D0",), False),
    ("SdeltaModS", "O0", 3): (("E",), False),
    ("D0", "O0", 2): (("E",), False),
    ("P", "O2bar", 1): (("D0", "E"), False),        # a genuine direct sum
    ("P", "O0", 1): (("E",), False),
    ("P", "O0", 3): (("E",), False),
    ("Q0", "O3bar", 1): (("P", "D0"), True),        # = Q0delta/Q0
    ("Q0", "O2bar", 2): (("E",), False),
    ("Q0", "O0", 2): (("E",), False),
    ("G1", "O3bar", 1): (("D1",), False),
    ("G1", "O2bar", 1): (("D1",), False),
    ("G-1", "O3bar", 1): (("D2",), False),
    ("G-1", "O2bar", 1): (("D2",), False),
}

def _support_of_object(name: str) -> str:
    if name in SUPPORT:
        return SUPPORT[name]
    if name in ("SdeltaModS",):
        return "O3"  # supported on the discriminant hypersurface
    raise KeyError(f"unknown module name: {name!r}")


def _local_cohomology_entry(name: str, support: str, k: int) -> tuple[tuple[str, ...], bool]:
    """(simple factors, whether a non-split extension) of H^k with the given
    support applied to the module.

    Supports not strictly smaller than the support of the module give
    the module itself in degree 0 and nothing elsewhere; every entry
    absent from the table is zero.  An unknown support or module name
    raises KeyError, a degree k that is not an integer TypeError.
    """
    k = integer(k)
    if support not in CLOSURE_DIM:
        raise KeyError(f"unknown support: {support!r} (expected one of {SUPPORT_CLOSURES})")
    if CLOSURE_DIM[support] >= ORBIT_DIM[_support_of_object(name)]:
        return (tuple(COMPOSITION_SERIES_FACTORS.get(name, (name,))) if k == 0 else ()), False
    return _LOCAL_COHOMOLOGY.get((name, support, k), ((), False))


def local_cohomology(name: str, support: str, k: int) -> tuple[str, ...]:
    """Simple factors of H^k with the given support applied to the module."""
    return _local_cohomology_entry(name, support, k)[0]


def local_cohomology_is_extension(name: str, support: str, k: int) -> bool:
    """Whether the recorded group is a non-split extension of its factors."""
    return _local_cohomology_entry(name, support, k)[1]


COMPOSITION_SERIES_FACTORS = {fact.ambient: fact.factors for fact in COMPOSITION_SERIES}


def verify_identities(lo: int = -30, hi: int = 30) -> list[dict]:
    """Replay the catalog's character identities coefficientwise on a box.

    Returns one entry per identity: name, status ("pass"/"fail") and,
    on failure, the first counterexample weight.  The left-hand sides of
    the localization identities are computed by characters.localize,
    which reads S, Q0 and G1 at a proven far shift by a multiple of
    (6, 6); the right-hand sides come from the independent closed/count
    formulas, so the two routes genuinely cross-check each other.
    """
    get = character_of
    # the box and the diagonal are dominant weights of ints, so the scans
    # below read Character._value, unchecked
    box = list(ch.box_weights(lo, hi))

    def equal(name: str, left: Character, right: Character) -> dict:
        return check(name, ch.first_disagreement(left, right, lo, hi))

    checks = [
        equal("[Sdelta] = [S] + [P] + [E] (localize vs formulas)",
              ch.localize(get("S")), get("S") + get("P") + get("E")),
        equal("[Q0delta] = [Q0] + [P] + [D0] (localize vs formulas)",
              ch.localize(get("Q0")), get("Q0") + get("P") + get("D0")),
        equal("[F1] = [G1] + [D1]", get("F1"), get("G1") + get("D1")),
        equal("[F-1] = [G-1] + [D2]", get("F-1"), get("G-1") + get("D2")),
        equal("[H^1_O3bar(G1)] = [D1]", ch.localize(get("G1")) - get("G1"), get("D1")),
    ]

    def congruence(name: str, char: Character, residue: int) -> dict:
        return check(name, next((lam for lam in box if char._value(lam) != 0
                                 and (lam[0] + lam[1] - residue) % 3 != 0), None))

    for j in (0, 1, 2):
        checks.append(congruence(f"[D{j}] supported on l1+l2 = -{j} mod 3", get(f"D{j}"), -j))
    for j, name in ((0, "Q0"), (1, "Q1"), (2, "Q2")):
        checks.append(congruence(f"[{name}] supported on l1+l2 = {j} mod 3", get(name), j))

    def diagonal(name: str, char: Character, expected) -> dict:
        return check(name, next(((a, a) for a in range(lo, hi + 1)
                                 if char._value((a, a)) != expected(a)), None))

    checks.append(diagonal("[D1] SL-invariants: 1 iff a = 1 mod 6, a <= -5", get("D1"),
                           lambda a: 1 if (a % 6 == 1 and a <= -5) else 0))
    checks.append(diagonal("[D2] SL-invariants: 1 iff a = -1 mod 6, a <= -7", get("D2"),
                           lambda a: 1 if (a % 6 == 5 and a <= -7) else 0))
    checks.append(diagonal("[D0] has no SL-invariants", get("D0"), lambda a: 0))

    p = get("P")
    checks.append(check("[P] is non-negative", next((lam for lam in box if p._value(lam) < 0), None)))

    obstruction = (
        ("<[D0], e^(-6,-9)> = 1", get("D0").mult((-6, -9)), 1),
        ("<[D0], e^(0,-3)> = 0", get("D0").mult((0, -3)), 0),
        ("<[D0], e^(-3,-6)> = 0", get("D0").mult((-3, -6)), 0),
        ("<[Q0], e^(0,-3)> = 0", get("Q0").mult((0, -3)), 0),
    )
    for name, got, expected in obstruction:
        checks.append(check(f"submodule obstruction: {name}",
                            None if got == expected else f"got {got}"))
    return checks


def fourier_coherence(lo: int = -30, hi: int = 30) -> list[dict]:
    """character_of(fourier_partner(x)) == fourier(character_of(x)) on the box."""
    checks = []
    for name in SIMPLES:
        partner = fourier_partner(name)
        checks.append(check(f"F([{name}]) = [{partner}]", ch.first_disagreement(
            character_of(partner), ch.fourier(character_of(name)), lo, hi)))
    return checks
