"""Number fields Q(alpha) = Q[x]/(m) with exact element arithmetic, norms and
traces over Q, and the field-type classification: totally real, CM (with its
conjugation automorphism), or neither, reported as the named tuple
FieldTypeReport.

An element is its residue of degree below [F:Q], one QPoly: an integer
numerator over one denominator, reduced modulo m in the integers.

Whether a field is totally real, or has a real embedding at all, is a Sturm
count of the real roots of its minimal polynomial against the degree.

Norms are resultants, N(a) = Res(m, a) for the monic m; traces are read off
the Newton power sums of m, and characteristic polynomials are rebuilt from
the traces of the powers of the element.

The CM test proves both answers.  _verify_cm is the one judge of a
candidate conjugation h: an automorphism of order two other than the
identity whose fixed field, generated by alpha + h(alpha) and alpha h(alpha),
is totally real.  The exact candidates come first: x^-1 mod m for a
reciprocal m, as a cyclotomic polynomial is, and the other root -x - a_1 of
a quadratic m.  The last is read off the trace form in one certified pass
over the root disks, which either pins the traces Tr(alpha^i h(alpha)) of
the only possible h or proves that the field is not CM (_trace_candidate).
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from . import factorq
from .enclosures import MAX_BITS, _disk_in, _disk_mul, _isolate
from .errors import CrossCheckError, PrecisionExhausted, ValidationError
from .qpoly import ONE, QPoly, X, _combine, _mul_mod, _poly, count_real_roots, from_power_sums, power_sums, resultant

TOTALLY_REAL = "TotallyReal"
CM = "CM"
OTHER = "Other"


class NumberField:
    """Q[x]/(minpoly) for a monic irreducible minpoly."""

    def __init__(self, minpoly: QPoly):
        if minpoly.degree < 1:
            raise ValidationError("a number field needs a minimal polynomial of degree >= 1")
        if not minpoly.is_monic:
            raise ValidationError("minimal polynomial must be monic")
        if not factorq.is_irreducible(minpoly):
            raise ValidationError(f"{minpoly!r} is reducible over the rationals")
        self.minpoly = minpoly
        self.degree = minpoly.degree
        # Tr(alpha^j) for j < degree: the trace is linear in the coordinates
        self._power_sums = power_sums(minpoly, self.degree - 1)
        self._cm_report: FieldTypeReport | None = None

    def __repr__(self):
        return f"NumberField({self.minpoly!r})"

    def __eq__(self, other):
        return isinstance(other, NumberField) and self.minpoly == other.minpoly

    def __hash__(self):
        return hash(self.minpoly)

    def element(self, coeffs) -> NFElement:
        if isinstance(coeffs, NFElement):
            if coeffs.parent != self:
                raise ValidationError("element belongs to a different field")
            return coeffs
        if isinstance(coeffs, (int, Fraction)):  # a constant is reduced
            return _element(self, _poly([coeffs.numerator], coeffs.denominator))
        if isinstance(coeffs, QPoly):
            return NFElement(self, coeffs)
        return NFElement(self, QPoly(tuple(Fraction(c) for c in coeffs)))

    def zero(self) -> NFElement:
        return NFElement(self, QPoly())

    def one(self) -> NFElement:
        return NFElement(self, ONE)

    def gen(self) -> NFElement:
        return NFElement(self, X % self.minpoly)


def rationals_field() -> NumberField:
    """Q presented as Q[x]/(x)."""
    return NumberField(X)


class NFElement(namedtuple("NFElement", "parent poly")):
    """Residue representative of degree < [F:Q]; canonical, hence hashable."""

    __slots__ = ()

    def __new__(cls, parent: NumberField, poly: QPoly):
        if poly.degree >= parent.degree:
            poly = poly % parent.minpoly
        return tuple.__new__(cls, (parent, poly))

    def __reduce__(self):  # as _element: __new__ reads a field that copy or pickle may still be building
        return tuple.__new__, (type(self), tuple(self))

    @property
    def coeffs(self):
        return self.poly.coeffs

    @property
    def is_zero(self) -> bool:
        return self.poly.is_zero

    def __repr__(self):
        return f"NFElement({self.poly!r} in deg-{self.parent.degree} field)"

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.poly == QPoly((Fraction(other),))
        return isinstance(other, NFElement) and tuple.__eq__(self, other)

    def __ne__(self, other):  # not the tuple's field-wise !=
        return not self == other

    __hash__ = tuple.__hash__

    def _coerce(self, other) -> NFElement:
        if isinstance(other, NFElement):
            if other.parent is not self.parent and other.parent != self.parent:
                raise ValidationError("elements of different fields")
            return other
        if isinstance(other, (int, Fraction)):
            return NFElement(self.parent, QPoly((Fraction(other),)))
        raise ValidationError(f"cannot coerce {other!r} into the field")

    # sums of reduced representatives are reduced and _mul_mod reduces, so no constructor check

    def __add__(self, other):
        if other.__class__ is not NFElement or other.parent is not self.parent:
            other = self._coerce(other)
        return _element(self.parent, _combine(self.poly, other.poly, 1))

    __radd__ = __add__

    def __neg__(self):
        return _element(self.parent, -self.poly)

    def __sub__(self, other):
        if other.__class__ is not NFElement or other.parent is not self.parent:
            other = self._coerce(other)
        return _element(self.parent, _combine(self.poly, other.poly, -1))

    def __rsub__(self, other):
        return _element(self.parent, _combine(self._coerce(other).poly, self.poly, -1))

    def __mul__(self, other):
        if other.__class__ is not NFElement or other.parent is not self.parent:
            other = self._coerce(other)
        return _element(self.parent, _mul_mod(self.poly, other.poly, self.parent.minpoly))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValidationError("negative field element power")
        return NFElement(self.parent, self.poly.pow_mod(n, self.parent.minpoly))

    # -- norms and traces over Q -----------------------------------------------

    def charpoly_q(self, index: int = 1) -> QPoly:
        """Characteristic polynomial over Q of self as an element of K, a
        subfield of F of the given index that the caller knows to hold self
        (index 1: K = F), of degree [F:Q] / index.

        Its roots are the conjugates of self in K, whose k-th power sum is
        Tr_K(self^k) = Tr_F(self^k) / index; Newton's identities turn the
        traces into coefficients.
        """
        e = self.parent.degree // index
        traces, acc = [e], self.parent.one()
        for _ in range(e):
            acc = acc * self
            traces.append(acc.trace_q() / index)
        return from_power_sums(traces, e)

    def minimal_polynomial(self, charpoly: QPoly | None = None) -> QPoly:
        """Monic irreducible annihilator; its degree divides the field degree.

        charpoly, when given, is a characteristic polynomial of self that the
        caller has built: over F, or over a subfield that holds self
        (charpoly_q(index)); either is a power of the minimal polynomial."""
        cp = self.charpoly_q() if charpoly is None else charpoly
        mp_ = cp.squarefree_part()
        if not mp_.compose_mod(self.poly, self.parent.minpoly).is_zero:
            raise CrossCheckError("minimal polynomial does not annihilate its element")
        return mp_

    def norm_q(self) -> Fraction:
        return resultant(self.parent.minpoly, self.poly)

    def trace_q(self) -> Fraction:
        return Fraction(sum(c * s for c, s in zip(self.poly.num, self.parent._power_sums))) / self.poly.den


def _element(parent: NumberField, poly: QPoly) -> NFElement:
    """The element with the reduced representative poly."""
    return tuple.__new__(NFElement, (parent, poly))


# ---------------------------------------------------------------------------
# field-type predicates


def is_totally_real(field: NumberField) -> bool:
    """True iff every embedding of the field lands in the reals."""
    return count_real_roots(field.minpoly) == field.degree


# kind: TOTALLY_REAL, CM or OTHER; conj_automorphism: the NFElement image of the
# generator under complex conjugation (the generator itself for a totally real
# field), None for OTHER
FieldTypeReport = namedtuple("FieldTypeReport", "kind conj_automorphism")


def _inverse_candidate(m: QPoly) -> QPoly | None:
    """x^-1 mod m when the monic m is reciprocal, else None.

    m is irreducible of degree at least 2 here, so m(1) != 0 and m is not
    antireciprocal; a reciprocal m is a palindrome with m(0) = 1, and then
    x^-1 = -(m - 1)/x mod m maps each root to its inverse: complex
    conjugation when the roots lie on the unit circle, as for Q(zeta_k).
    """
    if m.num != m.num[::-1]:
        return None
    return _poly([-c for c in m.num[1:]], m.den)


def cm_structure(field: NumberField) -> FieldTypeReport:
    """Classify the field as totally real, CM, or neither.

    CM certificates are exact; see the module docstring.
    """
    if field._cm_report is not None:
        return field._cm_report
    report = _cm_structure_uncached(field)
    field._cm_report = report
    return report


def _cm_structure_uncached(field: NumberField) -> FieldTypeReport:
    real = count_real_roots(field.minpoly)
    if real == field.degree:
        return FieldTypeReport(TOTALLY_REAL, field.gen())
    if real > 0:  # every field of odd degree has a real embedding
        return FieldTypeReport(OTHER, None)

    for h in _candidates(field):
        if h is not None:
            report = _verify_cm(field, h)
            if report is not None:
                return report
    return FieldTypeReport(OTHER, None)


def _candidates(field: NumberField):
    """The conjugation candidates, each QPoly or None, in the order tried:
    x^-1 mod m; for a quadratic m = x^2 + a_1 x + a_0, the other root
    -x - a_1; last, the trace-form candidate, which isolates the roots."""
    m = field.minpoly
    yield _inverse_candidate(m)
    if m.degree == 2:
        yield QPoly((-m[1] / m[2], -1))
    yield _trace_candidate(field)


def _trace_candidate(field: NumberField) -> QPoly | None:
    """The one candidate for complex conjugation h left on a totally imaginary
    field, or None when the field is proved not CM.

    Take beta = alpha - c, c the integer nearest the roots' centroid, and L
    the leading coefficient of m's primitive integer multiple.  Were h complex
    conjugation, t_i = Tr(beta^i h(beta)) would be the sum of w^i conj(w) over
    the roots w = z - c, and L^(i+1) t_i an integer, as L beta is integral.
    The sums are enclosed on the certified root disks (real, as the roots are
    closed under conjugation): a scaled interval holding no integer proves F
    not CM, one holding two or more doubles the bits.  Euler's lemma gives
    h(beta) = m'(alpha)^-1 sum_j t_j b_j for m(x + c) = (x - beta) sum_j b_j x^j,
    the inverse by Cayley-Hamilton.  A CM field's conjugation gives these
    very t_i, so a refused candidate proves it is not CM.
    """
    m, n = field.minpoly, field.degree
    lead, c, bits = m.clear_denominators()[1][-1], round(-m[n - 1] / n), 64
    while True:
        if bits > MAX_BITS:
            raise PrecisionExhausted(f"trace form of {m!r} unresolved at {MAX_BITS} bits")
        mids, rads = [0] * n, [0] * n
        for e in _isolate(m, bits):
            re, im, rad = _disk_in(e, bits)
            w = re - (c << bits), im, rad
            term = w[0], -im, rad  # conj(w), the i = 0 term
            for i in range(n):
                mids[i], rads[i] = mids[i] + term[0], rads[i] + term[2]
                term = _disk_mul(term, w, bits)
        # the integers L^(i+1) t_i in L^(i+1) [mid - rad, mid + rad] / 2^bits
        spans = [(-(-(mid - rad) * lead ** (i + 1) >> bits), (mid + rad) * lead ** (i + 1) >> bits)
                 for i, (mid, rad) in enumerate(zip(mids, rads))]
        if any(lo > hi for lo, hi in spans):
            return None
        if all(lo == hi for lo, hi in spans):
            break
        bits *= 2
    a = m(X + c).coeffs
    t = [Fraction(lo, lead ** (i + 1)) for i, (lo, _) in enumerate(spans)]
    dual_sum = QPoly([sum(t[j] * a[j + k + 1] for j in range(n - k)) for k in range(n)])
    derivative = field.element(m.derivative())
    cp = derivative.charpoly_q()
    inverse = (QPoly(cp.coeffs[1:]) * (-1 / cp[0])).compose_mod(derivative.poly, m)
    return _mul_mod(dual_sum(X - c), inverse, m) + c


def _verify_cm(field: NumberField, h: QPoly) -> FieldTypeReport | None:
    """The CM report with conjugation h on a totally imaginary field, or None.

    An automorphism h of order two has a fixed field K of index two, and K is
    generated by s = alpha + h(alpha) and t = alpha h(alpha), since alpha is a
    root of x^2 - s x + t over Q(s, t), or by s alone when s has degree
    [F:Q]/2.  A compositum of totally real fields is totally real, so K is
    when the minimal polynomials of its generators have only real roots.

    s and t lie in K, so halving their first [F:Q]/2 traces gives their
    characteristic polynomials over K (charpoly_q(2)), each a power of the
    minimal polynomial.  The Sturm count reads the roots of its squarefree
    part, which is the characteristic polynomial itself when y generates K.
    """
    m = field.minpoly
    h = h % m
    if h == X % m or not m.compose_mod(h, m).is_zero or h.compose_mod(h, m) != X % m:
        return None
    gen, conj_gen = field.gen(), field.element(h)
    for y in (gen + conj_gen, gen * conj_gen):
        cp = y.charpoly_q(2)
        mp_ = cp.squarefree_part()
        if count_real_roots(mp_) != mp_.degree:
            return None
        if mp_ == cp:  # cp is the minimal polynomial of y, which generates K
            break
    return FieldTypeReport(CM, conj_gen)


def apply_conjugation(report: FieldTypeReport, x: NFElement) -> NFElement:
    """Image of x under the conjugation automorphism of a CM or totally real field."""
    if report.kind == TOTALLY_REAL:
        return x
    if report.kind != CM or report.conj_automorphism is None:
        raise ValidationError("field has no conjugation automorphism")
    return NFElement(x.parent, x.poly.compose_mod(report.conj_automorphism.poly, x.parent.minpoly))
