"""Growth classification, automorphism and Salem tests, entropy and its
algebraic structure certificate.

Exact algebraic criteria decide everything; enclosure arithmetic only selects
among exact alternatives or cross-checks.  Where the two could disagree the
code raises CrossCheckError instead of picking a side: the criteria are
provably equivalent, so a disagreement is a bug, not data.

The spectrum of f is chi = q^k for one irreducible q (Spectrum), as Q[f] is
a field on a simple abelian variety.  For a number field q is the squarefree
part of chi; for a quaternion algebra chi is factored, and a chi with two
distinct factors is rejected where the spectrum is built (the single-factor
rule).  So the roots are either all roots of unity (periodic growth) or none
is, and qpoly.cyclotomic_order of q, the one root-of-unity test, says which.
What classify decides about a spec is one record kept on it (_Decision), each
part computed once.  The reports it returns, and Spectrum, are named tuples.

Every real-root decision is an exact Sturm count (qpoly): the roots of q, or
of the structure element's minimal polynomial, on |z| = 1 (the census by
which the enclosures are labelled), and the Salem test.  No working
precision enters any answer.

The entropy is log(gamma), a 28-digit Decimal from the standard library's
correctly rounded ln, gamma the Mahler measure of the eigenvalue multiset
(Lind-Schmidt-Ward, Invent. Math. 1990).  Except for the totally indefinite
type, where it comes from q, gamma is one root of an exterior power of the
minimal polynomial of the totally real element f^2, f*conj(f) or Nrd(f) (the
paper's structure theorem), and the certificate checks it against the product
of the roots of q outside the circle.
"""

from __future__ import annotations

from collections import namedtuple
from decimal import Decimal, localcontext
from functools import cached_property
from math import prod

from . import algnum, factorq
from .enclosures import ON_CIRCLE, OUTSIDE, _isolate, circle_root_count, disk_product, unit_circle_status
from .errors import CrossCheckError, NotSimpleAlbertType, ValidationError
from .lefschetz import CM_FIELD, TOTALLY_DEFINITE_QUATERNION, TOTALLY_INDEFINITE_QUATERNION, TOTALLY_REAL_FIELD
from .lefschetz import AlbertType, EndomorphismSpec, admissibility_check
from .numfield import apply_conjugation, cm_structure
from .qpoly import ONE, QPoly, X, count_real_roots, cyclotomic_order, trace_polynomial

PERIODIC = "Periodic"
EXPONENTIAL_PURE = "ExponentialPure"
EXPONENTIAL_MIXED = "ExponentialMixed"


# growth_class: one of the three names above; period: the int least period of a
# periodic f, else None; unit_circle_roots_of_unity: bool; witness: str
GrowthReport = namedtuple("GrowthReport", "growth_class period unit_circle_roots_of_unity witness")

# is_salem: bool; lead_root: the ComplexEnclosure of the root > 1 of a Salem
# polynomial, else None; reason: str
SalemReport = namedtuple("SalemReport", "is_salem lead_root reason")


class EntropyReport(
    namedtuple("EntropyReport", "value gamma_minpoly gamma_enclosure is_salem structure_ok structure_note")
):
    """value: log(gamma) to 28 digits, a Decimal >= 0; gamma_minpoly: its QPoly;
    gamma_enclosure: its ComplexEnclosure; is_salem: bool; structure_ok: bool,
    or None where the structure statement does not apply; structure_note: str."""

    __slots__ = ()

    @property
    def is_zero(self) -> bool:
        return self.gamma_minpoly == X - ONE


# ---------------------------------------------------------------------------
# the spectrum, and what classify decides about a spec


class Spectrum(namedtuple("Spectrum", "poly mult order statuses")):
    """The roots of chi^(2g/(de)) = q^mult for the one irreducible q: its
    root-of-unity order (None when q is not cyclotomic) and each root's
    enclosure with its side of |z| = 1 (enclosures.unit_circle_status).

    poly: the QPoly q; mult: int; order: int or None; statuses: a tuple of
    (ComplexEnclosure, int side) pairs."""

    __slots__ = ()


def rational_eigenvalues(spec: EndomorphismSpec, precision_bits: int = 128) -> Spectrum:
    """The spectrum of f, whose chi must be a power of one irreducible q.

    In a number field, proved a field when the spec was parsed, chi is a
    power of the minimal polynomial q of f: its squarefree part, found with
    no factoring (NFElement.minimal_polynomial checks q(f) = 0 exactly).  In
    a quaternion algebra chi is factored (the single-factor rule): Q[f] is a
    field when the algebra is a division algebra, as the endomorphism
    algebra of a simple abelian variety is, so two distinct factors prove
    that the algebra is not.
    """
    admissibility_check(spec)
    chi = spec.charpoly_q()
    if spec.is_field_case:
        q = spec.element.minimal_polynomial(chi)
        mult = chi.degree // q.degree
    else:
        factors = factorq.factor(chi)
        if len(factors) != 1:
            raise NotSimpleAlbertType(
                f"characteristic polynomial has {len(factors)} distinct irreducible factors, so f "
                "generates no field: the algebra cannot act on a simple abelian variety"
            )
        [(q, mult)] = factors
    mult *= spec.exponent()
    if mult * q.degree != 2 * spec.g:
        raise CrossCheckError("eigenvalue multiset total differs from 2g")
    statuses = tuple(unit_circle_status(q, _isolate(q, precision_bits)))
    return Spectrum(q, mult, cyclotomic_order(q), statuses)


_WITNESS = {
    TOTALLY_REAL_FIELD: "f == +-1 in a totally real field",
    CM_FIELD: "f * conj(f) == 1 in a CM field",
    TOTALLY_DEFINITE_QUATERNION: "Nrd(f) == 1 in a totally definite quaternion algebra",
    TOTALLY_INDEFINITE_QUATERNION: "eigenvalue multiset analysis (totally indefinite)",
}


class _Decision:
    """What classify decides about one spec, kept on it (spec._classified).

    What is read off the spec is built with the record, so that the record
    keeps no reference to the spec: that cycle would keep every finished spec
    alive until the garbage collector ran.  The growth class and gamma are
    computed on first use.
    """

    def __init__(self, spec: EndomorphismSpec):
        self.albert = admissibility_check(spec)
        self.witness = _WITNESS[self.albert.kind]
        self.g = spec.g
        self.spectrum = rational_eigenvalues(spec)
        self.outside = [e for e, s in self.spectrum.statuses if s == OUTSIDE]
        # the totally indefinite type has no structure element y; in a CM
        # field, y = f conj(f) lies in the real subfield, of index two
        self.minpoly_y = None
        if self.albert.kind != TOTALLY_INDEFINITE_QUATERNION:
            y = _structure_element(spec, self.albert)
            self.minpoly_y = y.minimal_polynomial(y.charpoly_q(2 if self.albert.kind == CM_FIELD else 1))

    @cached_property
    def growth_class(self) -> str:
        """Read off the sides of |z| = 1 the roots of q lie on.  q is monic,
        integral and irreducible, so if every root lies on the circle, q is
        cyclotomic (Kronecker): a q with all roots on the circle and no order
        is a bug.  Where y exists, its conjugates are the |mu|^2, so every
        root lies on the circle iff minpoly(y) = x - 1 (f^2 = 1 iff f = +-1):
        that must agree, and no root does unless all do."""
        spectrum = self.spectrum
        sides = {s for _, s in spectrum.statuses}
        if spectrum.order is not None:
            growth_class = PERIODIC
        elif ON_CIRCLE not in sides:
            growth_class = EXPONENTIAL_PURE
        elif OUTSIDE in sides:
            growth_class = EXPONENTIAL_MIXED
        else:
            raise CrossCheckError("every root of q lies on |z| = 1, yet q is not cyclotomic (Kronecker)")
        if self.minpoly_y is not None:
            if (self.minpoly_y == X - ONE) != (growth_class == PERIODIC):
                raise CrossCheckError("exact periodicity criterion disagrees with the eigenvalue spectrum")
            if growth_class == EXPONENTIAL_MIXED:
                raise CrossCheckError("dichotomy violated for a totally real / CM / definite spec")
        return growth_class

    @cached_property
    def gamma(self) -> algnum.AlgebraicNumber:
        """gamma = prod |mu| over the eigenvalues outside the circle, with
        multiplicity.  For the totally real, CM and totally definite types, y
        has the conjugates |mu|^2, so gamma is the product of b^(g/n') over the
        conjugates b > 1 of y, n' = deg minpoly(y).  Otherwise it is the product
        of a^m over the roots a outside of q, of multiplicity m (a conjugate
        pair gives |a|^(2m), and a real a gives |a|^m as m is even)."""
        spectrum, outside = self.spectrum, self.outside
        if spectrum.mult % 2 and any(e.is_real for e in outside):
            raise CrossCheckError("real eigenvalue with odd multiplicity outside the circle")
        if not outside:
            return algnum.from_rational(1)
        minpoly_y, g = self.minpoly_y, self.g
        if minpoly_y is None:
            return algnum.root_product(spectrum.poly, outside, spectrum.mult)
        if g % minpoly_y.degree:
            raise CrossCheckError("the degree of the totally real subfield element does not divide g")
        above_one = [e for e, s in unit_circle_status(minpoly_y) if s == OUTSIDE]
        return algnum.root_product(minpoly_y, above_one, g // minpoly_y.degree)


def _decided(spec: EndomorphismSpec) -> _Decision:
    if spec._classified is None:
        spec._classified = _Decision(spec)
    return spec._classified


# ---------------------------------------------------------------------------
# growth classification


def classify_growth(spec: EndomorphismSpec) -> GrowthReport:
    """Periodic / exponential / mixed growth of n -> fix(f^n), exactly decided.

    The period of a periodic f is the order k of q = Phi_k.  Every eigenvalue
    mu is a primitive k-th root of unity, so fix(f^n), the product of
    |1 - mu^n| over the eigenvalues, is 0 exactly when k divides n.  So k is
    a period, and any period d has fix(f^(k + d)) = fix(f^k) = 0, so k
    divides d: k is the least period."""
    decision = _decided(spec)
    growth_class = decision.growth_class
    period = decision.spectrum.order if growth_class == PERIODIC else None
    return GrowthReport(growth_class, period, growth_class != EXPONENTIAL_MIXED, decision.witness)


def is_automorphism(spec: EndomorphismSpec) -> bool:
    """True iff f is a unit of an order: |N(f)| = |chi(0)| = 1 with chi integral
    (chi(0) is +-N(f) in a field, N_{F/Q}(Nrd f) in a quaternion algebra over F)."""
    admissibility_check(spec)
    return abs(spec.charpoly_q()[0]) == 1


# ---------------------------------------------------------------------------
# Salem polynomials


def is_salem_polynomial(p: QPoly) -> SalemReport:
    """Salem test: reciprocal, irreducible, one real root each side of 1,
    everything else on the unit circle.

    Two Sturm counts on T, p = x^m T(x + 1/x), decide it: m - 1 roots of T in
    (-2, 2) put 2m - 2 roots of p on the circle, and the last root t of T
    gives the two real roots off it, positive iff t > 2.  Root isolation
    only pins the lead root for printing.
    """
    if not p.is_integral:
        raise ValidationError("Salem test needs integer coefficients")
    if not p.is_monic:
        return SalemReport(False, None, "not monic")
    if p.degree < 4 or p.degree % 2:
        return SalemReport(False, None, "degree must be even and at least 4")
    if p != p.reciprocal():
        return SalemReport(False, None, "not reciprocal")
    if not factorq.is_irreducible(p):
        return SalemReport(False, None, "not irreducible")
    t = trace_polynomial(p)
    if count_real_roots(t, -2, 2) != t.degree - 1:
        return SalemReport(False, None, "more than one root off the unit circle on some side")
    if count_real_roots(t, 2) != 1:
        return SalemReport(False, None, "real roots are not positive")
    lead = [e for e in _isolate(p, 128) if e.is_real][-1]  # the roots come sorted by midpoint
    return SalemReport(True, lead, "reciprocal, irreducible, lead root real > 1, rest on |z| = 1")


# ---------------------------------------------------------------------------
# entropy and the structure certificate


def entropy(spec: EndomorphismSpec) -> EntropyReport:
    """Entropy value log(gamma), a 28-digit Decimal, with gamma's exact minimal polynomial.

    gamma is the product of |mu| over the rational eigenvalues outside the
    unit circle, so the value is mult/2 * log of the product of |mu|^2 over
    those eigenvalues; both readings are computed and must agree.
    """
    decision = _decided(spec)
    periodic = decision.growth_class == PERIODIC
    gamma = decision.gamma
    if gamma.minpoly == X - ONE:
        if not periodic:
            raise CrossCheckError("gamma = 1 for a spec classified as exponential")
        ok, note = _structure_result(spec, decision.albert, trivial=True)
        return EntropyReport(Decimal(0), gamma.minpoly, gamma.enclosure, False, ok, note)
    if periodic:
        raise CrossCheckError("gamma > 1 for a spec classified as periodic")

    disk = gamma.enclosure
    if not disk.is_real or disk.re_num - disk.rad_num <= disk.den:
        raise CrossCheckError("gamma enclosure is not certified real and > 1")

    with localcontext() as ctx:
        ctx.prec = 28
        value = (Decimal(disk.re_num) / disk.den).ln()
        norm = prod((Decimal(e.re_num**2 + e.im_num**2) / e.den**2 for e in decision.outside), start=Decimal(1))
        check = decision.spectrum.mult * norm.ln() / 2
        if abs(value - check) > Decimal("1e-12") * (1 + abs(value)):
            raise CrossCheckError("entropy readings disagree: log(gamma) vs log of the product of |mu|")

    # gamma > 1 is a root of the irreducible monic q (factorq.factor made it),
    # so q is Salem iff all but two roots lie on the circle: circle_root_count
    # is 0 unless q is reciprocal, and the one root of the trace polynomial
    # outside (-2, 2] is gamma + 1/gamma > 2.  A q that is not integral is not.
    q = gamma.minpoly
    salem = q.is_integral and q.degree >= 4 and circle_root_count(q) == q.degree - 2
    ok, note = _structure_result(spec, decision.albert, trivial=False)
    return EntropyReport(value, gamma.minpoly, gamma.enclosure, salem, ok, note)


def _structure_element(spec: EndomorphismSpec, at: AlbertType):
    """The explicit element of the maximal totally real subfield whose
    conjugates are the conjugate-pair products |mu|^2."""
    f = spec.element
    if at.kind == TOTALLY_REAL_FIELD:
        return f * f
    if at.kind == CM_FIELD:
        return f * apply_conjugation(cm_structure(spec.algebra), f)
    return f.reduced_norm()


def _structure_result(spec: EndomorphismSpec, at: AlbertType, trivial: bool) -> tuple[bool | None, str]:
    if at.kind == TOTALLY_INDEFINITE_QUATERNION:
        return None, "structure statement does not cover totally indefinite quaternion multiplication"
    if trivial:
        return True, "gamma = 1 lies in every subfield"
    if not structure_certificate_for(spec):
        return False, "gamma's enclosure misses the disk_product of q's roots outside the circle"
    return True, (
        "every |mu|^2 factor of gamma is a conjugate of an explicit element of the "
        "maximal totally real subfield, so gamma lies in its normal closure"
    )


def structure_certificate_for(spec: EndomorphismSpec) -> bool:
    """Check from the eigenvalue side that gamma, taken from the totally real
    subfield element y, is the Mahler measure of the spectrum: its enclosure
    must meet the target disk of the product of a^m over the roots a of q
    outside the circle, m the multiplicity (enclosures.disk_product)."""
    decision = _decided(spec)
    if decision.albert.kind == TOTALLY_INDEFINITE_QUATERNION:
        raise ValidationError("structure certificate only covers totally real, CM and totally definite types")
    target = disk_product(decision.outside, 128, decision.spectrum.mult)
    return decision.gamma.enclosure.meets(target)
