"""Algebraic numbers as (irreducible minimal polynomial, certified enclosure)
pairs, with exact products and powers.

Products use the composed product prod (x - a*b) over all roots a of p and b
of q; the factor the true product sits in is selected by intersecting
certified enclosures and the selection is refined until it is unique, which
makes it a proof: the product is a root of the composed product, distinct
irreducible factors share no roots, and the enclosures are exact.  Powers use
prod (x - a^k) the same way.  Both polynomials are built from Newton power
sums (qpoly.power_sums): the k-th power sum of the products a*b is s_k(p) *
s_k(q), and the j-th power sum of the k-th powers is s_jk(p).
"""

from __future__ import annotations

from fractions import Fraction

from . import factorq
from .enclosures import MAX_BITS, ComplexEnclosure, isolate_roots
from .errors import CrossCheckError, PrecisionExhausted, ValidationError
from .qpoly import QPoly, X, from_power_sums, power_sums


class AlgebraicNumber:
    """One root of an irreducible monic rational polynomial, pinned by a disk."""

    __slots__ = ("minpoly", "enclosure", "bits")

    def __init__(self, minpoly: QPoly, enclosure: ComplexEnclosure, bits: int = 128):
        object.__setattr__(self, "minpoly", minpoly)
        object.__setattr__(self, "enclosure", enclosure)
        object.__setattr__(self, "bits", bits)

    def __setattr__(self, name, value):
        raise AttributeError("AlgebraicNumber is immutable")

    def __repr__(self):
        return f"AlgebraicNumber({self.minpoly!r} @ {self.enclosure!r})"

    @property
    def is_rational(self) -> bool:
        return self.minpoly.degree == 1

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValidationError("algebraic number is not rational")
        return -self.minpoly[0]

    def refined(self, bits: int) -> AlgebraicNumber:
        """Same number with a smaller certified enclosure."""
        if bits <= self.bits:
            return self
        if self.is_rational:
            v = self.as_fraction()
            return AlgebraicNumber(self.minpoly, ComplexEnclosure(v, 0, 0), bits)
        attempt = bits
        while attempt <= MAX_BITS:
            fresh = isolate_roots(self.minpoly, attempt)
            hits = [e for e in fresh if e.meets(self.enclosure)]
            if len(hits) == 1:
                return AlgebraicNumber(self.minpoly, hits[0], attempt)
            attempt *= 2
        raise PrecisionExhausted("could not re-pin algebraic number to one root")


def from_rational(q) -> AlgebraicNumber:
    q = Fraction(q)
    return AlgebraicNumber(X - QPoly((q,)), ComplexEnclosure(q, 0, 0), MAX_BITS)


def from_root(minpoly: QPoly, enclosure: ComplexEnclosure, bits: int = 128) -> AlgebraicNumber:
    return AlgebraicNumber(minpoly, enclosure, bits)


def _select_root(candidates: list[QPoly], disk_of, bits: int) -> tuple[QPoly, ComplexEnclosure, int]:
    """Pick the unique (factor, root enclosure) meeting the target disk.

    disk_of(bits) must return a certified enclosure of the target value at the
    given precision; the target is known to be a root of one candidate.
    """
    while bits <= MAX_BITS:
        disk = disk_of(bits)
        hits: list[tuple[QPoly, ComplexEnclosure]] = []
        for q in candidates:
            for e in isolate_roots(q, bits):
                if e.meets(disk):
                    hits.append((q, e))
        if len(hits) == 1:
            return hits[0][0], hits[0][1], bits
        if not hits:
            raise CrossCheckError("target value escaped every certified enclosure")
        bits *= 2
    raise PrecisionExhausted("could not separate candidate roots")


def _product_resultant(pa: QPoly, pb: QPoly) -> QPoly:
    """Monic composed product prod (x - a*b) over the roots a of pa, b of pb."""
    n = pa.degree * pb.degree
    sums = [u * v for u, v in zip(power_sums(pa, n), power_sums(pb, n))]
    return from_power_sums(sums, n)


def _power_polynomial(p: QPoly, k: int) -> QPoly:
    """Monic prod (x - a^k) over the roots a of p."""
    n = p.degree
    return from_power_sums(power_sums(p, n * k)[::k], n)


def product(a: AlgebraicNumber, b: AlgebraicNumber) -> AlgebraicNumber:
    """The algebraic number a*b with its exact minimal polynomial."""
    if a.is_rational:
        a, b = b, a
    if b.is_rational:
        r = b.as_fraction()
        if r == 0:
            return from_rational(0)
        if a.is_rational:
            return from_rational(a.as_fraction() * r)
        scaled = a.minpoly.scale_roots(r)
        return AlgebraicNumber(scaled, a.enclosure * r, a.bits)

    res = _product_resultant(a.minpoly, b.minpoly)
    candidates = sorted({q for q, _ in factorq.factor(res)}, key=lambda q: (q.degree, q.coeffs))
    state = {"a": a, "b": b}

    def disk_of(bits: int) -> ComplexEnclosure:
        state["a"] = state["a"].refined(bits)
        state["b"] = state["b"].refined(bits)
        return state["a"].enclosure * state["b"].enclosure

    q, e, bits = _select_root(candidates, disk_of, max(a.bits, b.bits))
    return AlgebraicNumber(q, e, bits)


def power(a: AlgebraicNumber, k: int) -> AlgebraicNumber:
    """The algebraic number a**k, k >= 0."""
    if k < 0:
        raise ValidationError("negative powers not supported here")
    if k == 0:
        return from_rational(1)
    if k == 1:
        return a
    if a.is_rational:
        return from_rational(a.as_fraction() ** k)
    pk = _power_polynomial(a.minpoly, k)
    candidates = sorted({q for q, _ in factorq.factor(pk)}, key=lambda q: (q.degree, q.coeffs))
    state = {"a": a}

    def disk_of(bits: int) -> ComplexEnclosure:
        state["a"] = state["a"].refined(bits)
        return state["a"].enclosure ** k

    q, e, bits = _select_root(candidates, disk_of, a.bits)
    return AlgebraicNumber(q, e, bits)


def product_many(items: list[AlgebraicNumber]) -> AlgebraicNumber:
    acc = from_rational(1)
    for item in items:
        acc = product(acc, item)
    return acc
