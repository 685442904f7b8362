"""Factorization over the rationals: the squarefree part, factorization modulo
a small prime, quadratic Hensel lifting and subset recombination, then each
factor's multiplicity by exact division.

The squarefree part comes from the modular gcd of qpoly, which proves a
squarefree input so with one prime; then every multiplicity is 1 and no
division runs.  A linear body is its own factor, and a quadratic is
irreducible exactly when its discriminant is not a square.

The prime search takes the good primes in turn (von zur Gathen and Gerhard,
Modern Computer Algebra, 14.2) and runs distinct-degree factorization at
each: one factor proves the input irreducible, and the search ends at the
first prime with at most two factors, whose recombination is a single trial
division, or else after four primes, at the one with the fewest.
Equal-degree splitting runs only at the prime whose factors are lifted.

Inputs are desk scale (degree <= 64), so the classical algorithm with
exponential recombination in the worst case is a deliberate choice; the
modular factor counts stay tiny for everything this library produces.  A
subset of half the remaining factors is tried only with the first of them in
it, as its complement makes the same split: x^4 + 1, two quadratics modulo
every prime, is proved irreducible by one trial division, at the first good
prime.  A trial division is refused at once when the candidate's constant
term does not divide the input's.
"""

from __future__ import annotations

import random
from functools import reduce
from itertools import combinations, zip_longest
from math import isqrt

from .errors import DegreeCapExceeded, ValidationError
from .qpoly import (
    ONE,
    QPoly,
    X,
    _convolve,
    _next_prime,
    _poly,
    _symmetric,
    _trim,
    _zdivmod,
    _zgcd,
    _zmod,
    _zmonic,
    _zx_divides,
    binary_power,
)

DEGREE_CAP = 64

# ---------------------------------------------------------------------------
# arithmetic for integer polynomials modulo m (constant term first)


def _zmul(a: list[int], b: list[int], m: int) -> list[int]:
    return _zmod(_convolve(a, b), m)


def _zadd(a: list[int], b: list[int], m: int) -> list[int]:
    return _zmod([x + y for x, y in zip_longest(a, b, fillvalue=0)], m)


def _zsub(a: list[int], b: list[int], m: int) -> list[int]:
    return _zmod([x - y for x, y in zip_longest(a, b, fillvalue=0)], m)


def _zxgcd(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int], list[int]]:
    r0, r1 = [c % p for c in a], [c % p for c in b]
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while _trim(r1[:]):
        q, r = _zdivmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _zsub(s0, _zmul(q, s1, p), p)
        t0, t1 = t1, _zsub(t0, _zmul(q, t1, p), p)
    inv = pow(r0[-1], -1, p)
    scale = lambda v: _trim([(c * inv) % p for c in v])
    return scale(r0), scale(s0), scale(t0)


def _zpow_mod(a: list[int], n: int, f: list[int], m: int) -> list[int]:
    return binary_power(_zdivmod(a, f, m)[1], n, [1], lambda u, v: _zdivmod(_zmul(u, v, m), f, m)[1])


# ---------------------------------------------------------------------------
# factorization of a squarefree monic polynomial mod an odd prime


def _ddf(f: list[int], p: int) -> list[tuple[list[int], int]]:
    out = []
    h = [0, 1]
    d = 0
    f = f[:]
    while len(f) - 1 >= 2 * (d + 1):
        d += 1
        h = _zpow_mod(h, p, f, p)
        g = _zgcd(_zsub(h, [0, 1], p), f, p)
        if len(g) > 1:
            out.append((g, d))
            f = _zdivmod(f, g, p)[0]
            h = _zdivmod(h, f, p)[1]
    if len(f) > 1:
        out.append((f, len(f) - 1))
    return out


def _edf(f: list[int], d: int, p: int, rng: random.Random) -> list[list[int]]:
    n = len(f) - 1
    if n == d:
        return [f]
    m = (p**d - 1) // 2
    while True:
        a = _trim([rng.randrange(p) for _ in range(n)])
        if len(a) <= 1:
            continue
        g = _zgcd(_zsub(_zpow_mod(a, m, f, p), [1], p), f, p)
        if not 1 < len(g) < len(f):
            continue
        rest = _zdivmod(f, g, p)[0]
        return _edf(g, d, p, rng) + _edf(rest, d, p, rng)


# ---------------------------------------------------------------------------
# Hensel lifting


def _hensel_step(f, g, h, s, t, m):
    """One quadratic lift: from mod m to mod m*m.

    Invariants: f = g*h, s*g + t*h = 1 (both mod m), h monic,
    deg f = deg g + deg h, deg s < deg h, deg t < deg g.
    """
    mm = m * m
    e = _zsub(f, _zmul(g, h, mm), mm)
    q, r = _zdivmod(_zmul(s, e, mm), h, mm)
    g1 = _zadd(g, _zadd(_zmul(t, e, mm), _zmul(q, g, mm), mm), mm)
    h1 = _zadd(h, r, mm)
    b = _zsub(_zadd(_zmul(s, g1, mm), _zmul(t, h1, mm), mm), [1], mm)
    c, d = _zdivmod(_zmul(s, b, mm), h1, mm)
    s1 = _zsub(s, d, mm)
    t1 = _zsub(t, _zadd(_zmul(t, b, mm), _zmul(c, g1, mm), mm), mm)
    return g1, h1, s1, t1


def _lift_split(f: list[int], g0: list[int], h0: list[int], p: int, pk: int):
    """Lift f = g0*h0 (mod p) to mod pk (pk a power of p); h0 monic."""
    _, s, t = _zxgcd(g0, h0, p)
    g, h = g0, h0
    m = p
    while m < pk:
        g, h, s, t = _hensel_step(_zmod(f, m * m), g, h, s, t, m)
        m = m * m
    return _zmod(g, pk), _zmod(h, pk)


def _lift_factors(f: list[int], facs: list[list[int]], p: int, pk: int) -> list[list[int]]:
    """Monic factors mod pk with f = lc(f) * prod(result) (mod pk)."""
    if len(facs) == 1:
        return [_zmonic(_zmod(f, pk), pk)]
    mid = len(facs) // 2
    g0 = reduce(lambda u, v: _zmul(u, v, p), facs[:mid], [f[-1] % p])
    h0 = reduce(lambda u, v: _zmul(u, v, p), facs[mid:], [1])
    g, h = _lift_split(_zmod(f, pk), g0, h0, p, pk)
    return _lift_factors(g, facs[:mid], p, pk) + _lift_factors(h, facs[mid:], p, pk)


# ---------------------------------------------------------------------------
# recombination


def _factor_squarefree_z(g: list[int]) -> list[QPoly]:
    """Irreducible monic rational factors of a primitive squarefree g in Z[x]."""
    n = len(g) - 1
    if n == 1:
        return [QPoly(g).monic()]

    deriv = _trim([g[i] * i for i in range(1, len(g))])
    best, tried, p = (n + 1, 0, []), 0, 2
    while tried < 4 and best[0] > 2:
        p = _next_prime(p)
        if g[-1] % p == 0:
            continue
        gp = _zmod(g, p)
        if len(_zgcd(gp, _zmod(deriv, p), p)) != 1:
            continue
        blocks = _ddf(_zmonic(gp, p), p)
        count = sum((len(block) - 1) // d for block, d in blocks)
        if count == 1:
            return [QPoly(g).monic()]
        if count < best[0]:
            best = (count, p, blocks)
        tried += 1
    _, p, blocks = best
    rng = random.Random(0x5A55)
    facs = sorted(f for block, d in blocks for f in _edf(block, d, p, rng))

    # lift far enough that any true factor (times lc) is recognizable
    norm2 = isqrt(sum(c * c for c in g)) + 1
    bound = 2 * (norm2 << n) * abs(g[-1]) + 1
    pk = p
    while pk < bound:
        pk *= p
    lifted = _lift_factors(_zmod(g, pk), facs, p, pk)

    found: list[QPoly] = []
    remaining = list(range(len(lifted)))
    size = 1
    while 2 * size <= len(remaining):
        hit = False
        combos = combinations(remaining, size)
        if 2 * size == len(remaining):  # a subset and its complement make the same split
            combos = ((remaining[0], *rest) for rest in combinations(remaining[1:], size - 1))
        for combo in combos:
            cand = reduce(lambda u, v: _zmul(u, v, pk), (lifted[i] for i in combo), [g[-1] % pk])
            cand = _poly(_symmetric(cand, pk)).clear_denominators()[1]
            quot = _zx_divides(cand, g)
            if quot is not None:
                found.append(QPoly(cand).monic())
                g = _poly(quot).clear_denominators()[1]
                remaining = [i for i in remaining if i not in combo]
                hit = True
                break
        if not hit:
            size += 1
    if len(g) > 1:
        found.append(QPoly(g).monic())
    return found


# ---------------------------------------------------------------------------
# public entry points


def _check_degree(degree: int) -> None:
    """Refuse a polynomial of the given degree past DEGREE_CAP."""
    if degree > DEGREE_CAP:
        raise DegreeCapExceeded(f"degree {degree} exceeds cap {DEGREE_CAP}")


def factor(p: QPoly) -> list[tuple[QPoly, int]]:
    """Factor p into monic irreducibles with multiplicities.

    p equals lc(p) times the product of the returned factors raised to their
    multiplicities.  The squarefree part of p / x^k is factored once, and each
    factor's multiplicity is read by exact division, unless the squarefree
    part is p / x^k itself.  Factors are sorted by (degree, coefficients) so
    output is canonical.
    """
    if p.is_zero:
        raise ValidationError("cannot factor the zero polynomial")
    _check_degree(p.degree)
    out: list[tuple[QPoly, int]] = []
    shift = next(i for i, c in enumerate(p.num) if c)
    if shift:
        out.append((X, shift))
    body = _poly(list(p.num[shift:]), p.den)
    if body.degree == 1:
        out.append((body.monic(), 1))
    elif body.degree > 1:
        part = body.squarefree_part()
        # each factor once fewer: nothing left of a body the gcd proved squarefree
        rest = body // part if part.degree < body.degree else ONE
        for irr in _factor_squarefree_z(part.clear_denominators()[1]):
            mult = 1
            while rest.degree >= irr.degree and not rest % irr:
                rest, mult = rest // irr, mult + 1
            out.append((irr, mult))
    out.sort(key=lambda fm: (fm[0].degree, fm[0].coeffs))
    return out


def is_irreducible(p: QPoly) -> bool:
    if p.degree < 1:
        return False
    if p.degree == 1:
        return True
    if p.degree == 2:  # irreducible unless its discriminant is a square
        c, b, a = p.num
        disc = b * b - 4 * a * c
        return disc < 0 or isqrt(disc) ** 2 != disc
    facs = factor(p)
    return len(facs) == 1 and facs[0][1] == 1
