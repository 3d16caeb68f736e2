#!/usr/bin/env python3
"""Tour of the character layer: exact multiplicities for the 14 simple
equivariant D-modules on binary cubic forms."""

from binarycubics import catalog, characters as ch

# ----------------------------------------------------------------------
# The coordinate ring S of the space of binary cubics has a closed
# rational character; coefficients come from bounded Diophantine
# enumeration, never series truncation.

S = catalog.character_of("S")
print("low-degree multiplicities of the coordinate ring:")
for weight, mult in sorted(ch.truncate(S, 0, 9).items()):
    print(f"  <[S], e^{weight}> = {mult}")

# The discriminant spans a copy of the determinant representation of
# weight (6,6); the degree-4 slice above shows it once.

# ----------------------------------------------------------------------
# Localizing away from the discriminant divisor: the character of
# S_Delta is the eventual value of shifts by (6n, 6n), and the engine
# reads it at one shift proven to lie on the constant tail.  The closed
# periodic form agrees.

S_delta = catalog.character_of("Sdelta")
loc = ch.localize(S)
probe = [(3, -3), (-1, -5), (-6, -6), (0, 0)]
print("\nlocalization at the discriminant, two independent routes:")
for weight in probe:
    print(f"  <[S_Delta], e^{weight}> = {S_delta.mult(weight)}"
          f"  (at the proven shift: {loc.mult(weight)})")

# ----------------------------------------------------------------------
# All 14 simples.  Their characters combine closed forms, the counting
# formula on the twisted-cubic cone, Fourier images and localizations.

print("\nmultiplicity of a sample weight in every simple:")
for name in catalog.SIMPLES:
    char = catalog.character_of(name)
    print(f"  {name:4s} supported on {catalog.SUPPORT[name]}:"
          f"  <., e^(0,-3)> = {char.mult((0, -3))},  <., e^(-6,-6)> = {char.mult((-6, -6))}")

# ----------------------------------------------------------------------
# The Fourier transform permutes the simples; on weights it is
# lam -> dual(lam) - (6,6).  Checking a pair pointwise:

print("\nFourier pairing:")
for name in ("S", "D0", "G2", "Q1"):
    partner = catalog.fourier_partner(name)
    ok = ch.first_disagreement(
        catalog.character_of(partner), ch.fourier(catalog.character_of(name)), -12, 12)
    print(f"  F([{name}]) = [{partner}] on the box: {'agree' if ok is None else ok}")

# ----------------------------------------------------------------------
# Composition series.  S_Delta has length three with factors S, P, E;
# the quotient S_Delta/S is a non-split extension of E by P.

P, E = catalog.character_of("P"), catalog.character_of("E")
print("\n[S_Delta] - [S] - [E] = [P], e.g. at (3,-3):",
      S_delta.mult((3, -3)) - S.mult((3, -3)) - E.mult((3, -3)), "=", P.mult((3, -3)))

print("\nall recorded composition series:")
for fact in catalog.COMPOSITION_SERIES:
    tag = " (non-split)" if fact.non_split else ""
    print(f"  [{fact.ambient}] = " + " + ".join(f"[{f}]" for f in fact.factors) + tag)

# ----------------------------------------------------------------------
# The full identity verifier replays every checkable identity on a box.

failures = [c for c in catalog.verify_identities(-15, 15) if c["status"] != "pass"]
print(f"\nidentity verifier on the box [-15, 15]: {'all pass' if not failures else failures}")
