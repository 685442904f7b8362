"""Number fields Q(alpha) = Q[x]/(m) with exact element arithmetic, norms and
traces over Q, embedding enclosures, and the field-type classification:
totally real, CM (with its conjugation automorphism and maximal totally real
subfield), or neither.

An element is its residue of degree below [F:Q], one QPoly: an integer
numerator over one denominator, reduced modulo m in the integers.

Whether a field is totally real, or has a real embedding at all, is a Sturm
count of the real roots of its minimal polynomial against the degree.

Norms are resultants, N(a) = Res(m, a) for the monic m; traces are read off
the Newton power sums of m, and characteristic polynomials are rebuilt from
the traces of the powers of the element.

The CM test is numeric-guess / exact-certificate: the candidate conjugation
is read off from high-precision embeddings and rationally reconstructed, then
everything that matters is verified exactly (it is an automorphism, has order
two, is not the identity, the field is totally imaginary and the fixed
subfield has index two and is totally real).  A success is therefore a proof;
repeated failure at increasing precision reports "Other".
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import factorq
from .enclosures import ComplexEnclosure, _cdiv, isolate_roots
from .errors import CrossCheckError, ValidationError
from .qpoly import ONE, QPoly, X, _combine, _mul_mod, _poly, count_real_roots, from_power_sums, power_sums, resultant

TOTALLY_REAL = "TotallyReal"
CM = "CM"
OTHER = "Other"


class NumberField:
    """Q[x]/(minpoly) for a monic irreducible minpoly."""

    def __init__(self, minpoly: QPoly, check_irreducible: bool = True):
        if minpoly.degree < 1:
            raise ValidationError("a number field needs a minimal polynomial of degree >= 1")
        if not minpoly.is_monic:
            raise ValidationError("minimal polynomial must be monic")
        if check_irreducible and not factorq.is_irreducible(minpoly):
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

    def embeddings(self, precision_bits: int = 128) -> list[ComplexEnclosure]:
        """Enclosures of the roots of minpoly, one per embedding into C."""
        return isolate_roots(self.minpoly, precision_bits)

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

    def to_json(self) -> dict:
        return {"minpoly": self.minpoly.to_json()}

    @classmethod
    def from_json(cls, data) -> NumberField:
        if not isinstance(data, dict) or "minpoly" not in data:
            raise ValidationError("field JSON must be an object with a 'minpoly' array")
        return cls(QPoly.from_json(data["minpoly"]))


def rationals_field() -> NumberField:
    """Q presented as Q[x]/(x)."""
    return NumberField(X, check_irreducible=False)


class NFElement:
    """Residue representative of degree < [F:Q]; canonical, hence hashable."""

    __slots__ = ("parent", "poly")

    def __init__(self, parent: NumberField, poly: QPoly):
        if poly.degree >= parent.degree:
            poly = poly % parent.minpoly
        _set_parent(self, parent)
        _set_poly(self, poly)

    def __setattr__(self, name, value):
        raise AttributeError("NFElement is immutable")

    @property
    def coeffs(self):
        return self.poly.coeffs

    @property
    def is_zero(self) -> bool:
        return self.poly.is_zero

    @property
    def is_rational(self) -> bool:
        return self.poly.degree <= 0

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValidationError("element is not rational")
        return self.poly[0]

    def __repr__(self):
        return f"NFElement({self.poly!r} in deg-{self.parent.degree} field)"

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.poly == QPoly((Fraction(other),))
        return (
            isinstance(other, NFElement)
            and self.parent == other.parent
            and self.poly == other.poly
        )

    def __hash__(self):
        return hash((self.parent.minpoly, self.poly))

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

    def apply_poly(self, h: QPoly) -> NFElement:
        """Image under alpha -> h(alpha), i.e. coords composed with h."""
        return NFElement(self.parent, self.poly.compose_mod(h, self.parent.minpoly))

    # -- norms and traces over Q -----------------------------------------------

    def charpoly_q(self) -> QPoly:
        """Characteristic polynomial over Q, degree [F:Q].

        Its roots are the conjugates of self, whose k-th power sum is
        Tr(self^k); Newton's identities turn the traces into coefficients.
        """
        e = self.parent.degree
        traces, acc = [e], self.parent.one()
        for _ in range(e):
            acc = acc * self
            traces.append(acc.trace_q())
        return from_power_sums(traces, e)

    def minimal_polynomial(self) -> QPoly:
        """Monic irreducible annihilator; its degree divides the field degree."""
        cp = self.charpoly_q()
        mp_ = cp.squarefree_part()
        if not mp_.compose_mod(self.poly, self.parent.minpoly).is_zero:
            raise CrossCheckError("minimal polynomial does not annihilate its element")
        return mp_

    def norm_q(self) -> Fraction:
        return resultant(self.parent.minpoly, self.poly)

    def trace_q(self) -> Fraction:
        return Fraction(sum(c * s for c, s in zip(self.poly.num, self.parent._power_sums))) / self.poly.den

    def embeddings(self, precision_bits: int = 128) -> list[ComplexEnclosure]:
        """sigma(self) for every embedding, aligned with the field's root order."""
        return [self.poly(r) for r in self.parent.embeddings(precision_bits)]

    def to_json(self) -> dict:
        return {"field": self.parent.to_json(), "coords": self.poly.to_json()}


_set_parent, _set_poly = NFElement.parent.__set__, NFElement.poly.__set__


def _element(parent: NumberField, poly: QPoly) -> NFElement:
    """The element with the reduced representative poly."""
    x = object.__new__(NFElement)
    _set_parent(x, parent)
    _set_poly(x, poly)
    return x


# ---------------------------------------------------------------------------
# field-type predicates


def is_totally_real(field: NumberField) -> bool:
    """True iff every embedding of the field lands in the reals."""
    return count_real_roots(field.minpoly) == field.degree


@dataclass(frozen=True)
class FieldTypeReport:
    kind: str
    conj_automorphism: NFElement | None
    max_real_subfield_minpoly: QPoly | None


def _conjugation_candidate(field: NumberField, bits: int) -> QPoly | None:
    """Interpolate alpha -> conj(alpha) through all embeddings and reconstruct.

    The interpolant is found without a linear solve: Newton divided
    differences, then expanded into the power basis (Bjorck-Pereyra), on the
    embeddings rounded to Gaussian integers over 2^w: every quotient is
    rounded to one, every product is shifted right by w.
    """
    e, w = field.degree, bits + 30
    z = [(round(r.re * (1 << w)), round(r.im * (1 << w))) for r in field.embeddings(bits)]
    sol = [(re, -im) for re, im in z]
    for k in range(e - 1):
        for i in range(e - 1, k, -1):
            (ar, ai), (br, bi), (cr, ci), (dr, di) = sol[i], sol[i - 1], z[i], z[i - k - 1]
            sol[i] = _cdiv(ar - br, ai - bi, cr - dr, ci - di, w)
    for k in range(e - 2, -1, -1):
        zr, zi = z[k]
        for i in range(k, e - 1):
            (ar, ai), (br, bi) = sol[i], sol[i + 1]
            sol[i] = ar - ((zr * br - zi * bi) >> w), ai - ((zr * bi + zi * br) >> w)
    bound, half = 1 << max(bits // 4, 32), bits // 2
    coeffs = []
    for re, im in sol:
        if abs(im) > 1 << (w - half):
            return None
        approx = Fraction(re, 1 << w)
        cand = rational_reconstruct(approx, bound)
        if abs(cand - approx) > Fraction(1, 1 << half):
            return None
        coeffs.append(cand)
    return QPoly(coeffs)


def rational_reconstruct(x: Fraction, den_bound: int) -> Fraction:
    """Best continued-fraction convergent of x with denominator <= den_bound."""
    m2, m1 = 0, 1
    d2, d1 = 1, 0
    num, den = x.numerator, x.denominator
    best = Fraction(0)
    while den:
        a = num // den
        num, den = den, num - a * den
        m2, m1 = m1, a * m1 + m2
        d2, d1 = d1, a * d1 + d2
        if d1 > den_bound:
            break
        best = Fraction(m1, d1)
    return best


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
    if is_totally_real(field):
        return FieldTypeReport(TOTALLY_REAL, field.gen(), field.minpoly)
    e = field.degree
    if e % 2 == 1 or count_real_roots(field.minpoly) > 0:
        return FieldTypeReport(OTHER, None, None)

    bits = 192
    while bits <= 3072:
        h = _conjugation_candidate(field, bits)
        if h is not None:
            report = _verify_cm(field, h)
            if report is not None:
                return report
        bits *= 2
    return FieldTypeReport(OTHER, None, None)


def _verify_cm(field: NumberField, h: QPoly) -> FieldTypeReport | None:
    m = field.minpoly
    h = h % m
    if h == X % m:
        return None
    if not m.compose_mod(h, m).is_zero:
        return None
    if h.compose_mod(h, m) != X % m:
        return None
    gen = field.gen()
    conj_gen = field.element(h)
    base = gen + conj_gen
    extra = gen * conj_gen
    preferred = base.minimal_polynomial()
    for c in range(2 * field.degree + 1):
        ms = (base + extra * c).minimal_polynomial() if c else preferred
        if ms.degree != field.degree // 2:
            continue
        if is_totally_real(NumberField(ms, check_irreducible=False)):
            reported = preferred if preferred.degree == field.degree // 2 else ms
            return FieldTypeReport(CM, conj_gen, reported)
    return None


def apply_conjugation(report: FieldTypeReport, x: NFElement) -> NFElement:
    """Image of x under the conjugation automorphism of a CM or totally real field."""
    if report.kind == TOTALLY_REAL:
        return x
    if report.kind != CM or report.conj_automorphism is None:
        raise ValidationError("field has no conjugation automorphism")
    return x.apply_poly(report.conj_automorphism.poly)
