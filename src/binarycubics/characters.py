"""Formal GL2-characters with exact coefficient extraction.

An admissible GL2-representation decomposes with finite multiplicities
into irreducibles indexed by dominant weights (l1, l2) with l1 >= l2, so
its class in the character ring is an integer-valued function on
dominant weights.  Characters here are either closed rational forms -- a
signed monomial numerator over a product of factors 1/(1 - e^mu),
optionally times a full lattice factor sum_{t in Z} e^(t*rho) -- or
combinator nodes (sums, differences, shifts, Fourier images,
localizations) over other characters.

Coefficients of closed forms are counted exactly, in closed form: the
slope gap l1 - l2 pins the last sloped exponent and leaves the one
before it running through an arithmetic progression, the scalar or
lattice exponent is then pinned by l1 + l2, and the count is the number
of integers of an interval in one residue class (see
ClosedFormCharacter.coefficient).  Each form computes its counting plan
once, when it is built: the (gap, rem) offset and sign of each numerator
term, the gcd, quotients, modular inverse and step delta of the last two
sloped weights, and the gcd, period and inverse of the leaf congruence.
Every catalog form has at most two sloped and one scalar or lattice
factor, so each numerator term costs a few integer operations; larger
products sum over their extra exponents in front of the same constants.
Nothing is ever truncated to a power series and all arithmetic is exact.
A localization at the discriminant is evaluated once, at a shift by a
multiple of (6, 6) that is proven to lie where the shifted
multiplicities no longer change (see localize); no limit is sampled.

Only leaf characters memoize: a Character(fn) keeps one memo, keyed by
the weight, and evaluates each weight at most once.  The combinators
return memo-free views, whose value at a weight is a few integer
operations on the values of the nodes below, so a stacked tree holds
memo entries only at its leaves.  Two leaves store less than one entry
per weight read: a periodic closed form is memoized
on one period (see from_closed_form), and D_0, D_1, D_2 are views over
one shared leaf of the twisted-cubic count (see twisted_cubic_characters).

Character.mult is the checked entry: it checks the weight and returns 0
off the dominant chamber.  Combinator nodes and the box scans build
their weights from ints already checked and read the nodes below
through Character._value, so nested calls are not re-checked.  The
counting helpers (ClosedFormCharacter.coefficient, nu, m_diag, mult_d)
check their arguments through integer, with the same plain-int fast
path, so a float or a bool raises TypeError rather than giving a float
or a silent 0.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from math import gcd

from .ratlinalg import integer
from .values import Frozen

Weight = tuple[int, int]


def is_dominant(lam: Weight) -> bool:
    return lam[0] >= lam[1]


def dual(lam: Weight) -> Weight:
    """The dual weight (l1, l2) -> (-l2, -l1), an involution on dominants."""
    return (-lam[1], -lam[0])


def fourier_weight(lam: Weight) -> Weight:
    """Weight map induced by the Fourier transform on binary cubic forms.

    lam -> dual(lam) - (6, 6), where (6, 6) is the determinant weight of
    the 4-dimensional space of cubics.  Involutive, preserves dominance.
    """
    return (-lam[1] - 6, -lam[0] - 6)


def nu(i: int) -> int:
    """Number of pairs (a, b) of non-negative integers with 2a + 3b = i.

    Coefficient of t^i in 1/((1 - t^2)(1 - t^3)); zero for i < 0.  For
    i >= 0 the pairs are b = i mod 2, i mod 2 + 2, ... up to i // 3, so
    nu(i + 6) = nu(i) + 1 and nu(i) = i // 6 + (i % 6 != 1).  i goes
    through integer: a float or a bool raises TypeError.
    """
    if i.__class__ is not int:  # plain ints skip the check
        i = integer(i)
    if i < 0:
        return 0
    return i // 6 + (i % 6 != 1)


class InvalidClosedForm(ValueError):
    """A closed rational form whose coefficients would not be finite."""


def _ints(w: Weight) -> Weight:
    """The two components of a weight, each checked by integer."""
    a, b = w
    return integer(a), integer(b)


class ClosedFormCharacter(Frozen):
    """A character of shape  sum_s s*e^nu / prod_mu (1 - e^mu)  [* e^(rho Z)].

    numerator:    terms (sign, weight) with sign in {+1, -1}.
    denominators: dominant weights mu; each factor 1/(1 - e^mu) is the
                  geometric sum over non-negative exponents.  Strictly
                  sloped factors (mu1 > mu2) may have either sign of
                  mu1 + mu2; scalar factors (mu1 == mu2 != 0) must all
                  share one sign so exponent counts stay finite.
    periodic:     optional scalar weight rho = (r, r), r > 0, standing
                  for the full lattice factor sum_{t in Z} e^(t*rho).
                  Incompatible with scalar denominators (the coefficient
                  count would be infinite).

    Everything is checked at construction: each sign and weight component
    goes through integer (a float, a str or a bool raises TypeError), so
    no form is built that miscounts or fails at its first query.  The
    counting plan of coefficient is built here too, once per form; it
    takes no part in ==, hash or repr.
    """

    _fields = ("numerator", "denominators", "periodic")

    def __init__(self, numerator: tuple[tuple[int, Weight], ...],
                 denominators: tuple[Weight, ...] = (), periodic: Weight | None = None) -> None:
        vars(self).update(numerator=numerator, denominators=denominators, periodic=periodic)
        terms = [(integer(sign), _ints(nu_)) for sign, nu_ in numerator]
        for sign, _ in terms:
            if sign not in (1, -1):
                raise InvalidClosedForm(f"numerator sign must be +-1, got {sign}")
        mus = [_ints(mu) for mu in denominators]
        scalar_signs = set()
        for mu in mus:
            if mu[0] < mu[1]:
                raise InvalidClosedForm(f"denominator weight {mu} is not dominant")
            if mu[0] == mu[1]:
                if mu[0] == 0:
                    raise InvalidClosedForm("denominator weight (0, 0) is not allowed")
                scalar_signs.add(mu[0] > 0)
        if len(scalar_signs) > 1:
            raise InvalidClosedForm("scalar denominators must share one sign")
        modulus = 0
        if periodic is not None:
            r1, r2 = _ints(periodic)
            if r1 != r2 or r1 <= 0:
                raise InvalidClosedForm(f"periodic weight must be (r, r), r > 0, got {periodic}")
            if scalar_signs:
                raise InvalidClosedForm("periodic factor excludes scalar denominators")
            modulus = 2 * r1
        vars(self)["_plan"] = _CountingPlan(terms, mus, modulus)

    def coefficient(self, lam: Weight) -> int:
        """Exact multiplicity of e^lam: a few integer operations per
        numerator term for forms with at most two sloped and one scalar or
        periodic factor, with every constant read off the form's plan.

        A numerator term e^nu meets e^lam with gap = (l1 - l2) - (nu1 - nu2)
        and rem = (l1 + l2) - (nu1 + nu2).  It contributes the number of
        exponent vectors a_i >= 0 (sloped weights, gap d_i > 0, sum s_i)
        and c_j >= 0 (scalar steps t_j) with

            sum a_i*d_i = gap,   sum a_i*s_i + sum c_j*t_j = rem,

        where with a periodic factor (r, r) the second equation holds
        modulo 2r instead.  Sloped exponents beyond the last two and
        scalar exponents beyond the last are summed over (each is
        bounded); what remains is counted by:

        Lemma (progression count).  Let (d1, s1), (d2, s2) be the last two
        sloped weights, g = gcd(d1, d2), n1 = d1/g, n2 = d2/g.  If g does
        not divide gap there is no solution.  Otherwise let a1* be the
        least a1 >= 0 with a1*n1 = gap/g (mod n2), and
        a2* = (gap - a1*·d1)/d2.  The solutions (a1, a2) of
        a1*d1 + a2*d2 = gap in non-negative integers are exactly

            (a1* + k*n2, a2* - k*n1),  0 <= k <= floor(a2*/n1),

        and along them the rest left for the leaf is rem0 - k*delta with
        rem0 = rem - a1*·s1 - a2*·s2 and delta = n2*s1 - n1*s2.

        Proof.  a1*d1 + a2*d2 = gap forces a1*n1 = gap/g (mod n2), and n1
        is invertible mod n2, so the admissible a1 >= 0 are a1* + k*n2,
        k >= 0; each fixes a2 = a2* - k*n1, which is >= 0 exactly for
        k <= a2*/n1.  Substituting into rem - a1*s1 - a2*s2 gives the rest.  []

        The leaf then asks, for k in an interval, that k*delta = rem0
        modulo m: m = t for the last scalar step t > 0, and m = 2r for
        the periodic factor.  A scalar leaf adds the linear bound
        rem0 - k*delta >= 0, which narrows the interval.  With
        h = gcd(delta, m) the congruence is solvable iff h divides rem0,
        and then it says k = r (mod n) for n = m/h and
        r = (rem0/h)·(delta/h)^-1 mod n; the integers of [lo, hi] in that
        class number floor((hi - r)/n) - floor((lo - 1 - r)/n).

        Scalar steps t < 0 (they share one sign) are made positive by
        negating every rem, s_i and t_j, which keeps the count.  A form
        with fewer than two sloped factors, or with neither a scalar nor a
        periodic factor, is counted over phantom factors: multiplying the
        numerator by (1 - e^mu) and the denominator product by the same
        factor leaves every coefficient unchanged, since
        (1 - e^mu)·sum_a e^(a*mu) = 1.  The plan takes mu = (1, 0) (d = 1,
        s = 1) for a missing sloped factor and mu = (1, 1) (t = 2) for a
        missing leaf.  So every form is counted by the one path above,
        from constants its _CountingPlan computes once: the (gap, rem)
        offset and sign of each term, g, n1, n2, n1^-1 mod n2 and delta,
        and h, n and (delta/h)^-1 mod n.

        The components of lam go through integer, as in Character.mult,
        so a float raises TypeError rather than counting as an int.
        """
        l1, l2 = lam
        if l1.__class__ is not int or l2.__class__ is not int:  # plain ints skip the check
            l1, l2 = integer(l1), integer(l2)
        if l1 < l2:
            return 0
        plan = self._plan
        gap, rem = l1 - l2, plan.flip * (l1 + l2)
        total = 0
        for sign, gap0, rem0 in plan.terms:
            if gap >= gap0:
                total += sign * plan.count(gap - gap0, rem - rem0)
        return total


class _CountingPlan:
    """The constants of ClosedFormCharacter.coefficient that depend only
    on the form, and the count of one numerator term from them."""

    __slots__ = ("terms", "flip", "sloped", "g", "n1", "n2", "n1_inv", "s1", "s2", "steps",
                 "delta", "bounded", "h", "n", "delta_inv")

    def __init__(self, numerator: list[tuple[int, Weight]], denominators: list[Weight],
                 modulus: int):
        n_sloped = sum(mu[0] > mu[1] for mu in denominators)
        phantoms = [(1, 0)] * max(0, 2 - n_sloped)
        if not modulus and n_sloped == len(denominators):
            phantoms.append((1, 1))
        for m1, m2 in phantoms:  # times (1 - e^mu) / (1 - e^mu)
            numerator = numerator + [(-sign, (v1 + m1, v2 + m2)) for sign, (v1, v2) in numerator]
        denominators = phantoms + denominators
        sloped = [(mu[0] - mu[1], mu[0] + mu[1]) for mu in denominators if mu[0] > mu[1]]
        steps = [2 * mu[0] for mu in denominators if mu[0] == mu[1]]
        self.flip = flip = -1 if steps and steps[0] < 0 else 1
        self.terms = tuple((sign, nu_[0] - nu_[1], flip * (nu_[0] + nu_[1]))
                           for sign, nu_ in numerator)
        sloped = [(d, flip * s) for d, s in sloped]
        self.sloped = tuple(sloped[:-2])
        (d1, s1), (d2, s2) = sloped[-2:]
        g = gcd(d1, d2)
        n1, n2 = d1 // g, d2 // g
        self.g, self.n1, self.n2, self.n1_inv = g, n1, n2, pow(n1, -1, n2)
        self.s1, self.s2 = s1, s2
        steps = [flip * t for t in steps]
        self.steps = tuple(steps[:-1])
        self.delta = delta = n2 * s1 - n1 * s2
        self.bounded = bool(steps)
        m = steps[-1] if steps else modulus
        self.h = h = gcd(delta, m)
        self.n = m // h
        self.delta_inv = pow(delta // h, -1, self.n)

    def count(self, gap: int, rem: int, i: int = 0) -> int:
        """Solutions for one numerator term, sloped weights i, i+1, ...
        still to place (see ClosedFormCharacter.coefficient)."""
        if i < len(self.sloped):
            d, s = self.sloped[i]
            return sum(self.count(gap - a * d, rem - a * s, i + 1) for a in range(gap // d + 1))
        if gap % self.g:
            return 0
        q = gap // self.g
        a1 = q * self.n1_inv % self.n2
        a2 = (q - a1 * self.n1) // self.n2  # (gap - a1*d1) / d2
        if a2 < 0:
            return 0
        return self.leaf(a2 // self.n1, rem - a1 * self.s1 - a2 * self.s2)

    def leaf(self, top: int, rem: int, j: int = 0) -> int:
        """Pairs (k, c) with 0 <= k <= top, c_i >= 0 for scalar steps j, j+1,
        ... and the last step taking rem - k*delta - sum c_i*t_i (or the
        periodic factor, modulo 2r)."""
        delta = self.delta
        if j < len(self.steps):
            t = self.steps[j]
            most = rem - min(0, top * delta)  # largest rem - k*delta on [0, top]
            return sum(self.leaf(top, rem - c * t, j + 1) for c in range(most // t + 1))
        lo, hi = 0, top
        if self.bounded:
            if delta > 0:
                hi = min(top, rem // delta)
            elif delta < 0:
                lo = max(0, -(rem // -delta))
            elif rem < 0:
                return 0
        if hi < lo or rem % self.h:
            return 0
        n = self.n
        r = rem // self.h * self.delta_inv % n
        return (hi - r) // n - (lo - 1 - r) // n


class Character:
    """An exact multiplicity function on dominant weights.

    Immutable and referentially transparent.  A Character(fn) is a leaf:
    it memoizes fn, so each weight is evaluated at most once.  The
    combinators (add, sub, shift, fourier, localize) return memo-free
    views over their operands, so they may be stacked freely and a tree
    keeps memo entries only at its leaves.  Evaluation at a non-dominant
    weight is 0 by convention.  mult is the checked entry: weight
    components must be integers (any type with __index__, numpy integers
    included); a float, a Fraction or a bool raises TypeError rather
    than being truncated.  The value fn returns goes through the same
    check, so a fn returning 1.7 or '3' raises TypeError too.  The
    combinators and the box scans (truncate, first_disagreement) build
    their weights from checked ints and read the nodes below through
    _value, without checking them again.
    """

    def __init__(self, fn: Callable[[Weight], int], name: str = ""):
        self._fn = fn
        self.name = name
        self._cache: dict[Weight, int] = {}

    def mult(self, lam: Weight) -> int:
        try:
            l1, l2 = lam
        except ValueError:
            raise ValueError(f"a weight has two components, got {lam!r}") from None
        if l1.__class__ is not int or l2.__class__ is not int:  # plain ints skip the check
            l1, l2 = integer(l1), integer(l2)
        if l1 < l2:
            return 0
        return self._value((l1, l2))

    def _value(self, lam: Weight) -> int:
        """The memoized multiplicity at a dominant weight of two ints, unchecked."""
        cached = self._cache.get(lam)
        if cached is None:
            cached = self._fn(lam)
            if cached.__class__ is not int:
                cached = integer(cached)
            self._cache[lam] = cached
        return cached

    def __add__(self, other: "Character") -> "Character":
        if not isinstance(other, Character):
            return NotImplemented
        return add(self, other)

    def __sub__(self, other: "Character") -> "Character":
        if not isinstance(other, Character):
            return NotImplemented
        return sub(self, other)

    def __repr__(self) -> str:
        return f"Character({self.name or '...'})"


class _View(Character):
    """A combinator node: _value is fn itself, with no memo of its own.

    Its value at a weight is a few integer operations on the values of
    its operands, which end in the memo of a leaf; a memo here would
    only store those values once more per node of a stacked tree.
    """

    def __init__(self, fn: Callable[[Weight], int], name: str):
        self._value = fn
        self.name = name


def _operand(c: object) -> Character:
    """c itself if it is a Character; anything else raises TypeError."""
    if isinstance(c, Character):
        return c
    hint = "; wrap it with from_closed_form" if isinstance(c, ClosedFormCharacter) else ""
    raise TypeError(f"a combinator takes a Character, got {type(c).__name__}{hint}")


def from_closed_form(form: ClosedFormCharacter, name: str = "") -> Character:
    """The character of a closed form: a leaf memoizing form.coefficient.

    A periodic form, periodic = (r, r), is memoized on one period: it is a
    view that reads its leaf at (l1 - k*r, l2 - k*r) with k = l2 // r, so
    for each gap the leaf holds at most r weights, those with
    0 <= l2 < r.  Proof that the value is kept: coefficient reads a
    weight only through gap = l1 - l2 and rem = l1 + l2, and with a
    periodic factor the count takes rem modulo 2r.  Adding (r, r) adds
    2r to rem and leaves gap unchanged, so coefficient(lam + (r, r)) =
    coefficient(lam), and the shift keeps lam dominant.
    """
    leaf = Character(form.coefficient, name)
    if form.periodic is None:
        return leaf
    r = integer(form.periodic[0])

    def fn(lam: Weight) -> int:
        k = lam[1] // r
        return leaf._value((lam[0] - k * r, lam[1] - k * r))

    return _View(fn, name)


def add(c: Character, d: Character) -> Character:
    c, d = _operand(c), _operand(d)
    return _View(lambda lam: c._value(lam) + d._value(lam), f"({c.name}+{d.name})")


def sub(c: Character, d: Character) -> Character:
    c, d = _operand(c), _operand(d)
    return _View(lambda lam: c._value(lam) - d._value(lam), f"({c.name}-{d.name})")


def shift(c: Character, mu: Weight) -> Character:
    """Multiplication by e^mu: mult(lam) = c.mult(lam - mu), which is 0
    where lam - mu is not dominant.  mu is checked here, once."""
    c = _operand(c)
    m1, m2 = _ints(mu)

    def fn(lam: Weight) -> int:
        l1, l2 = lam[0] - m1, lam[1] - m2
        return c._value((l1, l2)) if l1 >= l2 else 0

    return _View(fn, f"{c.name}*e^{mu}")


def fourier(c: Character) -> Character:
    """Fourier image: mult(lam) = c.mult(dual(lam) - (6, 6)).  Involutive."""
    c = _operand(c)
    return _View(lambda lam: c._value(fourier_weight(lam)), f"F({c.name})")


def localize(c: Character) -> Character:
    """Character of the localization away from the discriminant divisor.

    The discriminant spans a one-dimensional representation of weight
    (6, 6), so mult(lam) is the eventual value of c.mult(lam + (6n, 6n))
    as n grows.  It is read at the single point n = N(lam),

        N(lam) = max(0, ceil((l1 - 2*l2) / 6)),

    which is proven to lie on the constant tail for the 19 catalog
    characters, their Z-combinations and the shifts in use.  For
    dominant lam, 6N >= l1 - 2*l2 >= -l2, so l2 + 6N >= 0, and:

    (i)   A term of S_FORM with numerator nu and exponents a, b on (3,0),
          (4,2) sits at gap l1 - l2 = nu1 - nu2 + 3a + 2b, and both
          numerators satisfy nu1 + nu2 + 3a + 6b <= 3(l1 - l2).  Its
          exponent on (6,6) is (l1 + l2 + 12n - nu1 - nu2 - 3a - 6b)/12,
          which is >= 0 for every term once 12n >= 2*l1 - 4*l2; from
          there on S(lam + (6n, 6n)) = SDELTA_FORM(lam).
    (ii)  nu(k + 6) = nu(k) + 1 for k >= 0, so the nu differences in Q0
          and G+-1 (nu(l1 + 1) - nu(l2) at shift n) are constant once
          l2 + 6n >= 0.
    (iii) E is supported on l1 <= -6 and the D_j on l2 <= -5, while the
          shifted point has l1 >= l2 >= 0, so E and the D_j vanish
          there; by (i) so does P = Sdelta - S - E.
    (iv)  Sdelta and its shifts (G2, G3, G4, F1, F-1, Q0delta, Q1, Q2)
          are already invariant under shifts by (6, 6).

    The bound is sharp: S at (-6, -12) has N = 3 and reads 1 at n = 2,
    2 from n = 3 on.  Meaningful when the underlying module has no
    discriminant torsion; that cannot be read off the character, so
    the caller is trusted, and a character outside the class above
    (say one with finite support) gets its value at that point, not a
    limit.
    """
    c = _operand(c)

    def fn(lam: Weight) -> int:
        n = max(0, -((2 * lam[1] - lam[0]) // 6))  # ceil((l1 - 2*l2) / 6)
        return c._value((lam[0] + 6 * n, lam[1] + 6 * n))

    return _View(fn, f"({c.name})_loc")


def truncate(c: Character, lo: int, hi: int) -> dict[Weight, int]:
    """Sparse table of nonzero multiplicities on {lo <= l2 <= l1 <= hi},
    in lexicographic order of the weights.

    lo and hi are checked by integer once; the scan reads c._value.
    """
    lo, hi = integer(lo), integer(hi)
    table: dict[Weight, int] = {}
    for l1 in range(lo, hi + 1):
        for l2 in range(lo, l1 + 1):
            lam = (l1, l2)
            v = c._value(lam)
            if v:
                table[lam] = v
    return table


def box_weights(lo: int, hi: int) -> Iterable[Weight]:
    """Dominant weights lam with lo <= l2 <= l1 <= hi, in lexicographic order.

    lo and hi are checked by integer at the call, so a float or a bool
    raises TypeError there rather than at the first weight drawn.
    """
    lo, hi = integer(lo), integer(hi)
    return ((l1, l2) for l1 in range(lo, hi + 1) for l2 in range(lo, l1 + 1))


def first_disagreement(c: Character, d: Character, lo: int, hi: int) -> Weight | None:
    """First weight in the box where the two characters differ, else None.

    lo and hi are checked by integer once; the scan reads c._value and d._value.
    """
    for lam in box_weights(lo, hi):
        if c._value(lam) != d._value(lam):
            return lam
    return None


# Closed forms for the ambient space of binary cubic forms.
#
# S is the ring of polynomial functions: generated over the base by the
# degree-1 piece (3,0), with relations encoded by the numerator term
# (6,3) and the classical generators (4,2) (degree 2) and the
# discriminant weight (6,6) (degree 4).
S_FORM = ClosedFormCharacter(
    numerator=((1, (0, 0)), (1, (6, 3))),
    denominators=((3, 0), (4, 2), (6, 6)),
)

# S localized at the discriminant Delta, of weight (6,6).  Proof: inverting
# Delta turns 1/(1 - e^(6,6)) = sum_{t >= 0} e^(t(6,6)) into the lattice factor.
SDELTA_FORM = ClosedFormCharacter(
    numerator=S_FORM.numerator,
    denominators=tuple(mu for mu in S_FORM.denominators if mu != (6, 6)),
    periodic=(6, 6),
)

# Fourier transform of S, supported at the origin.  Proof: dual is linear, so
# F(nu + sum a_i mu_i) = F(nu) + sum a_i dual(mu_i), and dual keeps dominance.
E_FORM = ClosedFormCharacter(
    numerator=tuple((sign, fourier_weight(nu)) for sign, nu in S_FORM.numerator),
    denominators=tuple(dual(mu) for mu in S_FORM.denominators),
)


def m_weight(lam: Weight) -> int:
    """nu(l1 - 5) - nu(l2 - 6), the sloped part of the twisted-cubic counts."""
    return nu(lam[0] - 5) - nu(lam[1] - 6)


def e_weight(lam: Weight) -> int:
    """Multiplicity of e^(lam - (6,6)) in S; the origin-module correction term."""
    return S_FORM.coefficient((lam[0] - 6, lam[1] - 6))


def m_diag(a: int) -> int:
    """m at the scalar weight (a, a): -1 for a = 0 mod 6, a >= 6; +1 for
    a = +-1 mod 6, a >= 5; else 0.  a goes through integer."""
    if a.__class__ is not int:  # plain ints skip the check
        a = integer(a)
    if a >= 6 and a % 6 == 0:
        return -1
    if a >= 5 and a % 6 in (1, 5):
        return 1
    return 0


def mult_d(j: int, lam: Weight) -> int:
    """Multiplicity of e^lam in the simple module D_j on the twisted-cubic cone.

    The character of D_j is carried by dual weights, so the count is read
    off at dual(lam): zero unless dual(lam)_1 + dual(lam)_2 = j mod 3,
    and otherwise m (j = 1, 2) or m + e (j = 0).  j and the components
    of lam go through integer, so a bool j or a float weight raises
    TypeError; a j outside {0, 1, 2} raises ValueError.
    """
    if j.__class__ is not int:  # plain ints skip the check
        j = integer(j)
    if j not in (0, 1, 2):
        raise ValueError(f"j must be 0, 1 or 2, got {j}")
    l1, l2 = lam
    if l1.__class__ is not int or l2.__class__ is not int:  # plain ints skip the check
        l1, l2 = integer(l1), integer(l2)
    if l1 < l2:
        return 0
    mu = dual((l1, l2))
    if (mu[0] + mu[1] - j) % 3 != 0:
        return 0
    m = m_weight(mu)
    if j == 0:
        return m + e_weight(mu)
    return m


def twisted_cubic_characters() -> tuple[Character, Character, Character]:
    """The characters of D_0, D_1, D_2, as views over one shared leaf.

    mult_d(j, lam) is 0 unless j = -(l1 + l2) mod 3, since dual(lam) =
    (-l2, -l1).  So the leaf lam -> mult_d(-(l1 + l2) mod 3, lam) holds
    all three counts, each weight once, and D_j reads it on its own
    class l1 + l2 = -j mod 3 and is 0 elsewhere.
    """
    leaf = Character(lambda lam: mult_d(-(lam[0] + lam[1]) % 3, lam), "D")

    def view(j: int) -> Character:
        return _View(lambda lam: leaf._value(lam) if -(lam[0] + lam[1]) % 3 == j else 0, f"D{j}")

    return view(0), view(1), view(2)
