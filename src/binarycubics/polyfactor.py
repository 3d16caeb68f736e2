"""Exact factorization of univariate polynomials over the rationals.

factor(coeffs) gives the monic prime-power factors over ℚ of a monic
rational polynomial, in pure Python on integers (Zassenhaus 1969, with
the modular step of Cantor and Zassenhaus 1981).  Let f be the primitive
integer multiple of the input, t^k stripped.  Yun's algorithm splits f
into squarefree parts.  A linear part is irreducible, and a quadratic
part splits over ℚ exactly when its discriminant is a square (the
quadratic formula).  Each part of higher degree is factored modulo the
least odd prime p keeping it squarefree (distinct-degree, then
equal-degree splitting by a fixed internal generator), the factors are
Hensel-lifted to a modulus M > 2B, B = 2^n ‖f‖₂, and subsets of the
lifts are recombined, smallest first.  This finds the irreducible
factors: such a factor g is, mod M, lc(g) times the product of the
lifts of the modular factors it reduces to (Hensel lifts are unique),
and by Mignotte's bound (lc(f)/lc(g))·g has coefficients at most B, so
it is the symmetric residue of one subset; as smaller subsets come
first, each divisor found is irreducible.  The factors must multiply back to the input, or
ArithmeticError is raised.

Polynomials are coefficient lists from low to high degree without
trailing zeros; the helpers work modulo m, or on integers when m = 0.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, count, zip_longest
from math import gcd, isqrt

from .ratlinalg import cleared, exact


def factor(coeffs) -> list[list[Fraction]]:
    """Monic prime-power factors over ℚ of a monic polynomial, low-to-high coefficients.

    They come ordered by degree, multiplicity, then primitive integer
    coefficients from high to low, as computer-algebra factor lists are.
    ValueError on a non-monic input, TypeError on an inexact coefficient,
    ArithmeticError if the factors fail to multiply back to the input.
    """
    coeffs = [exact(c) for c in coeffs]
    if not coeffs or coeffs[-1] != 1:
        raise ValueError("factor takes a monic polynomial, whose last coefficient is 1")
    whole = _primitive(coeffs)
    k = next(i for i, c in enumerate(whole) if c)
    parts = [([0, 1], k)] if k else []
    rng = None  # built for the first part of degree >= 3, the first that can draw
    for h, m in _yun(whole[k:]):
        if rng is None and len(h) > 3:
            rng = random.Random(0)
        parts += [(g, m) for g in _zassenhaus(h, rng)]
    parts.sort(key=lambda part: (len(part[0]), part[1], part[0][::-1]))
    powers = [_product([g] * m) for g, m in parts]
    if _product(powers) != whole:
        raise ArithmeticError(f"factors of {coeffs} do not multiply back to it")
    return [[Fraction(c, power[-1]) for c in power] for power in powers]


def _reduce(f: list, m: int) -> list:
    """f mod m without trailing zeros; when m = 0, f itself, trimmed in place."""
    if m:
        f = [c % m for c in f]
    while f and not f[-1]:
        f.pop()
    return f


def _add(f: list, g: list, m: int = 0) -> list:
    return _reduce([a + b for a, b in zip_longest(f, g, fillvalue=0)], m)


def _sub(f: list, g: list, m: int = 0) -> list:
    return _reduce([a - b for a, b in zip_longest(f, g, fillvalue=0)], m)


def _mul(f: list, g: list, m: int = 0) -> list:
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return _reduce(out, m)


def _product(polys: list[list], m: int = 0) -> list:
    out = [1]
    for f in polys:
        out = _mul(out, f, m)
    return out


def _monic(f: list, m: int = 0) -> list:
    return _divmod(f, f[-1:], m)[0]


def _deriv(f: list, m: int = 0) -> list:
    return _reduce([i * c for i, c in enumerate(f)][1:], m)


def _divmod(f: list, g: list, m: int = 0) -> tuple[list, list]:
    """Quotient and remainder of f by g modulo m, where lc(g) must be a unit;
    on integers (m = 0) by floor division, so the remainder is 0 exactly
    when g divides f with an integer quotient."""
    inv = pow(g[-1], -1, m) if m else 0
    r = list(f)
    dg = len(g) - 1
    q = [0] * max(len(f) - dg, 0)
    for i in reversed(range(len(q))):
        c = r[i + dg] * inv % m if m else r[i + dg] // g[-1]
        q[i] = c
        if c:
            for j, b in enumerate(g):
                r[i + j] -= c * b
    return _reduce(q, m), _reduce(r, m)


def _gcd(f: list, g: list, m: int = 0) -> list:
    """Monic gcd modulo a prime m; on integers (m = 0) the primitive gcd
    with positive lc, from primitive pseudo-remainders, which keep the
    coefficients of the Euclidean sequence small."""
    while g:
        if not m:  # lc(g)^k f is divisible by g over ℤ up to a remainder
            f = [c * g[-1] ** max(len(f) - len(g) + 1, 0) for c in f]
        r = _divmod(f, g, m)[1]
        f, g = g, r if m or not r else _primitive(r)
    return _monic(f, m) if m else _primitive(f)


def _gcdex(f: list, g: list, p: int) -> tuple[list, list]:
    """(s, t) with s f + t g = 1 mod p, for coprime f and g (extended Euclid)."""
    r0, r1, s0, s1, t0, t1 = f, g, [1], [], [], [1]
    while r1:
        q, r = _divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _sub(s0, _mul(q, s1), p)
        t0, t1 = t1, _sub(t0, _mul(q, t1), p)
    return _divmod(s0, r0, p)[0], _divmod(t0, r0, p)[0]


def _powmod(a: list, e: int, f: list, p: int) -> list:
    """a^e mod (f, p) by repeated squaring."""
    out = [1]
    while e:
        if e & 1:
            out = _divmod(_mul(out, a), f, p)[1]
        e >>= 1
        if e:
            a = _divmod(_mul(a, a), f, p)[1]
    return out


def _primitive(f: list) -> list[int]:
    """The primitive integer polynomial with positive lc proportional to f."""
    ints, _ = cleared(f)
    content = gcd(*ints) if ints[-1] > 0 else -gcd(*ints)
    return [c // content for c in ints]


def _odd_primes():
    return (n for n in count(3, 2) if all(n % q for q in range(3, isqrt(n) + 1, 2)))


def _squarefree_mod(f: list[int], p: int) -> bool:
    """p does not divide lc(f) and f mod p is squarefree."""
    return bool(f[-1] % p) and len(_gcd(_reduce(f, p), _deriv(f, p), p)) == 1


def _yun(f: list[int]) -> list[tuple[list[int], int]]:
    """[(g_i, i)] with f = ∏ g_i^i, each g_i primitive, squarefree and nonconstant,
    for a primitive f (Yun, "On square-free decomposition algorithms",
    SYMSAC 1976, on integers).

    Write f = ∏_j g_j^j, each g_j primitive with lc > 0 (g_j = 1 for the
    multiplicities f lacks).  Round i starts from b = ∏_(j>=i) g_j and
    c = Σ_(j>=i) (j - i + 1) g_j' ∏_(k>=i, k!=j) g_k, exactly on integers,
    as the gcds are primitive with lc > 0.  So d = c - b' is the same sum
    with j - i in place of j - i + 1: the term of g_i vanishes, every
    other term has the factor g_i, and a g_j with j > i divides every
    term but its own (g_j is squarefree and prime to the other g_k).
    Hence gcd(b, d) = g_i, and b / g_i, d / g_i start round i + 1.  When
    b is linear it is the one nonconstant g_j with j >= i, and c is the
    constant (j - i + 1) b': the rounds left would take b off at round j,
    so the loop appends (b, i - 1 + c / b') and stops.  A power
    (t - λ)^n of one linear factor costs one gcd.
    """
    out = []
    df = _deriv(f)
    a = _gcd(f, df)
    b, c = _divmod(f, a)[0], _divmod(df, a)[0]
    i = 1
    while len(b) > 1:
        if len(b) == 2:
            out.append((b, i - 1 + c[0] // b[1]))
            break
        d = _sub(c, _deriv(b))
        a = _gcd(b, d)
        if len(a) > 1:
            out.append((a, i))
        b, c = _divmod(b, a)[0], _divmod(d, a)[0]
        i += 1
    return out


def _ddf(f: list[int], p: int) -> list[tuple[list[int], int]]:
    """[(product of the degree-d irreducible factors, d)] of a monic squarefree f mod p."""
    out = []
    x = h = [0, 1]
    d = 0
    while 2 * (d + 1) < len(f):
        d += 1
        h = _powmod(h, p, f, p)
        g = _gcd(f, _sub(h, x, p), p)
        if len(g) > 1:
            out.append((g, d))
            f = _divmod(f, g, p)[0]
            h = _divmod(h, f, p)[1]
    if len(f) > 1:
        out.append((f, len(f) - 1))
    return out


def _edf(g: list[int], d: int, p: int, rng: random.Random) -> list[list[int]]:
    """Monic irreducible factors mod p of g, a product of distinct ones of degree d."""
    if len(g) - 1 == d:
        return [g]
    e = (p ** d - 1) // 2
    while True:
        a = _reduce([rng.randrange(p) for _ in range(len(g) - 1)], p)
        h = _gcd(g, _sub(_powmod(a, e, g, p), [1], p), p)
        if 1 < len(h) < len(g):
            return _edf(h, d, p, rng) + _edf(_divmod(g, h, p)[0], d, p, rng)


def _hensel_step(f, g, h, s, t, m):
    """From f = g h, s g + t h = 1 mod m (h monic) to the same mod m^2
    (von zur Gathen and Gerhard, Modern Computer Algebra, Algorithm 15.10)."""
    mm = m * m
    e = _sub(f, _mul(g, h), mm)
    q, r = _divmod(_mul(s, e), h, mm)
    g = _add(g, _add(_mul(t, e), _mul(q, g)), mm)
    h = _add(h, r, mm)
    b = _sub(_add(_mul(s, g), _mul(t, h)), [1], mm)
    c, d = _divmod(_mul(s, b), h, mm)
    return g, h, _sub(s, d, mm), _sub(t, _add(_mul(t, b), _mul(c, g)), mm)


def _lift(f: list[int], factors: list[list[int]], p: int, M: int) -> list[list[int]]:
    """Monic lifts mod M = p^(2^j) of the monic factors of f / lc(f) mod p."""
    if len(factors) == 1:
        return [_monic(f, M)]
    k = len(factors) // 2
    g, h = _product([[f[-1]]] + factors[:k], p), _product(factors[k:], p)
    s, t = _gcdex(g, h, p)
    m = p
    while m < M:
        g, h, s, t = _hensel_step(f, g, h, s, t, m)
        m *= m
    return _lift(g, factors[:k], p, M) + _lift(h, factors[k:], p, M)


def _zassenhaus(f: list[int], rng: random.Random | None) -> list[list[int]]:
    """Irreducible factors over ℤ of a primitive squarefree f with lc(f) > 0;
    only a degree >= 3 f draws from rng, which may be None for a lower one."""
    if len(f) == 2:  # linear, so irreducible
        return [f]
    if len(f) == 3:
        # c + b t + a t^2 = a (t - t_1)(t - t_2), t_1,2 = (-b ± √D) / 2a with
        # D = b^2 - 4ac, so f splits over ℚ exactly when D is a rational
        # square, that is for an integer D a perfect square r^2; r > 0, as f
        # is squarefree.  2a t + b ∓ r = 2a (t - t_1,2), so the product of
        # their primitive parts is proportional to f, and primitive with a
        # positive lc (Gauss), as f is: it is f.
        c, b, a = f
        D = b * b - 4 * a * c
        r = isqrt(D) if D > 0 else 0
        if r * r != D:
            return [f]
        return [_primitive([b - r, 2 * a]), _primitive([b + r, 2 * a])]
    p = next(p for p in _odd_primes() if _squarefree_mod(f, p))
    modular = [u for g, d in _ddf(_monic(_reduce(f, p), p), p) for u in _edf(g, d, p, rng)]
    if len(modular) == 1:
        return [f]
    M = p
    while M <= 2 ** len(f) * (isqrt(sum(c * c for c in f)) + 1):  # 2B
        M *= M
    lifts = _lift(f, modular, p, M)
    found = []
    size = 1
    while 2 * size <= len(lifts):
        for subset in combinations(range(len(lifts)), size):
            g = _product([[f[-1]]] + [lifts[i] for i in subset], M)
            g = _primitive([c - M if 2 * c > M else c for c in g])
            if not g[0] or f[0] % g[0]:  # a divisor's g(0) divides f(0) != 0
                continue
            q, r = _divmod(f, g)
            if not r:  # g divides f over ℤ, so over ℚ, g being primitive (Gauss)
                found.append(g)
                f = q
                lifts = [u for i, u in enumerate(lifts) if i not in subset]
                break
        else:
            size += 1
    return found + [f]
