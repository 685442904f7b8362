"""Growth classification, automorphism and Salem tests, entropy and its
algebraic structure certificate.

Exact algebraic criteria decide everything; enclosure arithmetic only selects
among exact alternatives or cross-checks.  Where the two could disagree the
code raises CrossCheckError instead of picking a side: the criteria are
provably equivalent, so a disagreement is a bug, not data.

The spectrum of f is chi = q^k for one irreducible q (lefschetz.Spectrum),
as Q[f] is a field on a simple abelian variety; a chi with two distinct
factors is rejected where the spectrum is built.  So the roots are either all
roots of unity (periodic growth) or none is.

Every real-root decision is an exact Sturm count (qpoly): the roots of q, or
of the structure element's minimal polynomial, on |z| = 1 (the census by
which the enclosures are labelled), and the Salem test.  No working
precision enters any answer.

The entropy is log(gamma), gamma the Mahler measure of the eigenvalue
multiset (Lind-Schmidt-Ward, Invent. Math. 1990).  Except for the totally
indefinite type, where it comes from q, gamma is one root of an exterior
power of the minimal polynomial of the totally real element f^2, f*conj(f)
or Nrd(f) (the paper's structure theorem), and the certificate checks it
against the product of the roots of q outside the circle.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import algnum, factorq
from .enclosures import ON_CIRCLE, OUTSIDE, ComplexEnclosure, disk_product, isolate_roots, unit_circle_status
from .errors import CrossCheckError, ValidationError
from .lefschetz import TOTALLY_INDEFINITE_QUATERNION  # noqa: F401  re-export
from .lefschetz import CM_FIELD, TOTALLY_DEFINITE_QUATERNION, TOTALLY_REAL_FIELD, AlbertType, EndomorphismSpec
from .lefschetz import Spectrum, admissibility_check, fixed_point_table, rational_eigenvalues
from .numfield import apply_conjugation, cm_structure
from .qpoly import ONE, QPoly, X, count_real_roots, cyclotomic_order, trace_polynomial

PERIODIC = "Periodic"
EXPONENTIAL_PURE = "ExponentialPure"
EXPONENTIAL_MIXED = "ExponentialMixed"
UNIT_CIRCLE_NON_TORSION = "UnitCircleNonTorsionOnly"

_DICHOTOMY_KINDS = (TOTALLY_REAL_FIELD, CM_FIELD, TOTALLY_DEFINITE_QUATERNION)


@dataclass(frozen=True)
class GrowthReport:
    growth_class: str
    period: int | None
    unit_circle_roots_of_unity: bool
    witness: str


@dataclass(frozen=True)
class SalemReport:
    is_salem: bool
    lead_root: ComplexEnclosure | None
    reason: str


@dataclass(frozen=True)
class EntropyReport:
    value: object  # mpmath mpf, >= 0
    gamma_minpoly: QPoly
    gamma_enclosure: ComplexEnclosure
    is_salem: bool
    structure_ok: bool | None
    structure_note: str

    @property
    def is_zero(self) -> bool:
        return self.gamma_minpoly == X - ONE


# ---------------------------------------------------------------------------
# root-of-unity test


def is_root_of_unity(minpoly: QPoly, enclosure: ComplexEnclosure | None = None) -> int | None:
    """Exact order of the algebraic number, or None.

    Kronecker shortcut: an enclosure certified off the unit circle rules the
    order out immediately; otherwise the cyclotomic orders with matching
    Euler phi are enumerated and checked by exact divisibility into x^k - 1.
    """
    if not minpoly.is_integral:
        raise ValidationError("root-of-unity test needs integer coefficients")
    if not minpoly.is_monic:
        raise ValidationError("root-of-unity test needs a monic polynomial")
    if enclosure is not None and enclosure.side() != ON_CIRCLE:
        return None
    return cyclotomic_order(minpoly)


# ---------------------------------------------------------------------------
# shared spectral analysis


def _spectrum(spec: EndomorphismSpec) -> Spectrum:
    if spec._spectrum_cache is None:
        spec._spectrum_cache = rational_eigenvalues(spec)
    return spec._spectrum_cache


# ---------------------------------------------------------------------------
# growth classification


_PERIODICITY_WITNESS = {
    TOTALLY_REAL_FIELD: "f == +-1 in a totally real field",
    CM_FIELD: "f * conj(f) == 1 in a CM field",
    TOTALLY_DEFINITE_QUATERNION: "Nrd(f) == 1 in a totally definite quaternion algebra",
}


def _periodicity_criterion(spec: EndomorphismSpec, at: AlbertType) -> tuple[bool | None, str]:
    """The exact per-type test equivalent to 'all eigenvalues on the circle':
    the subfield element f^2, f*conj(f) or Nrd(f) is 1 (f^2 = 1 iff f = +-1)."""
    if at.kind not in _DICHOTOMY_KINDS:
        return None, "eigenvalue multiset analysis (totally indefinite)"
    return _structure_element(spec, at) == 1, _PERIODICITY_WITNESS[at.kind]


def classify_growth(spec: EndomorphismSpec) -> GrowthReport:
    """Periodic / exponential / mixed growth of n -> fix(f^n), exactly decided."""
    at = admissibility_check(spec)
    spectrum = _spectrum(spec)
    sides = {s for _, s in spectrum.statuses}
    nontorsion_on = spectrum.order is None and ON_CIRCLE in sides

    if spectrum.order is not None:
        growth_class = PERIODIC
    elif ON_CIRCLE not in sides:
        growth_class = EXPONENTIAL_PURE
    elif OUTSIDE in sides:
        growth_class = EXPONENTIAL_MIXED
    else:
        growth_class = UNIT_CIRCLE_NON_TORSION

    crit, witness = _periodicity_criterion(spec, at)
    if crit is not None:
        if crit != (growth_class == PERIODIC):
            raise CrossCheckError("exact periodicity criterion disagrees with the eigenvalue spectrum")
        if growth_class in (EXPONENTIAL_MIXED, UNIT_CIRCLE_NON_TORSION):
            raise CrossCheckError("dichotomy violated for a totally real / CM / definite spec")

    period = None
    if growth_class == PERIODIC:
        period = _realized_period(spec, spectrum.order)

    return GrowthReport(growth_class, period, not nontorsion_on, witness)


def _realized_period(spec: EndomorphismSpec, order: int) -> int:
    seq = fixed_point_table(spec, 2 * order)
    for cand in sorted(d for d in range(1, order + 1) if order % d == 0):
        if all(seq[i] == seq[i + cand] for i in range(len(seq) - cand)):
            return cand
    return order


def is_automorphism(spec: EndomorphismSpec) -> bool:
    """True iff f is a unit of an order: |N(f)| = 1 with integral charpoly."""
    admissibility_check(spec)
    if spec.is_field_case:
        norm = spec.element.norm_q()
    else:
        norm = spec.element.norm_to_q()
    return norm in (1, -1)


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
    lead = [e for e in isolate_roots(p) if e.is_real][-1]  # the roots come sorted by midpoint
    return SalemReport(True, lead, "reciprocal, irreducible, lead root real > 1, rest on |z| = 1")


# ---------------------------------------------------------------------------
# entropy and the structure certificate


def fraction_to_mpf(q, den: int = 1, rounding: str = "n"):
    """q / den, for a rational q and an integer den > 0, as an mpf at the
    working precision, rounded once in mpmath's direction rounding ("n"
    nearest, "f" floor, "c" ceiling)."""
    from mpmath import mp
    from mpmath.libmp import from_rational

    return mp.make_mpf(from_rational(q.numerator, q.denominator * den, mp.prec, rounding))


def _gamma_of(spec: EndomorphismSpec) -> algnum.AlgebraicNumber:
    """gamma = prod |mu| over the eigenvalues outside the circle, with
    multiplicity.  For the totally real, CM and totally definite types, the
    structure element y is totally positive with the conjugates |mu|^2, so
    gamma is the product of b^(g/n') over the conjugates b > 1 of y,
    n' = deg minpoly(y).  Otherwise it is the product of a^m over the roots a
    outside of q, of multiplicity m (a conjugate pair gives |a|^(2m), and a
    real a gives |a|^m as m is even)."""
    if spec._gamma_cache is None:
        at = admissibility_check(spec)
        spectrum = _spectrum(spec)
        outside = [e for e, s in spectrum.statuses if s == OUTSIDE]
        if spectrum.mult % 2 and any(e.is_real for e in outside):
            raise CrossCheckError("real eigenvalue with odd multiplicity outside the circle")
        if not outside:
            gamma = algnum.from_rational(1)
        elif at.kind in _DICHOTOMY_KINDS:
            minpoly_y = _structure_element(spec, at).minimal_polynomial()
            if spec.g % minpoly_y.degree:
                raise CrossCheckError("the degree of the totally real subfield element does not divide g")
            above_one = [e for e, s in unit_circle_status(minpoly_y) if s == OUTSIDE]
            gamma = algnum.root_product(minpoly_y, above_one, spec.g // minpoly_y.degree)
        else:
            gamma = algnum.root_product(spectrum.poly, outside, spectrum.mult)
        spec._gamma_cache = gamma
    return spec._gamma_cache


def entropy(spec: EndomorphismSpec) -> EntropyReport:
    """Entropy value log(gamma) with gamma's exact minimal polynomial.

    gamma is the product of |mu| over the rational eigenvalues outside the
    unit circle, so the value is the sum of mult * log|mu| over those
    eigenvalues; both readings are computed and must agree.
    """
    from mpmath import mp, mpf

    at = admissibility_check(spec)
    growth = classify_growth(spec)
    gamma = _gamma_of(spec)

    periodic = growth.growth_class in (PERIODIC, UNIT_CIRCLE_NON_TORSION)
    if gamma.minpoly == X - ONE:
        if not periodic:
            raise CrossCheckError("gamma = 1 for a spec classified as exponential")
        ok, note = _structure_result(spec, at, trivial=True)
        return EntropyReport(mpf(0), gamma.minpoly, gamma.enclosure, False, ok, note)
    if periodic:
        raise CrossCheckError("gamma > 1 for a spec classified as periodic")

    disk = gamma.enclosure
    if not disk.is_real or disk.re_num - disk.rad_num <= disk.den:
        raise CrossCheckError("gamma enclosure is not certified real and > 1")

    with mp.workprec(200):
        value = mp.log(fraction_to_mpf(disk.re_num, disk.den))
        spectrum = _spectrum(spec)
        check = spectrum.mult * mp.fsum(
            mp.log(mp.sqrt(fraction_to_mpf(e.re_num**2 + e.im_num**2, e.den**2)))
            for e, s in spectrum.statuses
            if s == OUTSIDE
        )
        if abs(value - check) > mpf(10) ** (-12) * (1 + abs(value)):
            raise CrossCheckError("entropy readings disagree: log(gamma) vs sum of log|mu|")

    try:
        salem = is_salem_polynomial(gamma.minpoly).is_salem
    except ValidationError:
        salem = False
    ok, note = _structure_result(spec, at, trivial=False)
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
    if at.kind not in _DICHOTOMY_KINDS:
        return None, "structure statement does not cover totally indefinite quaternion multiplication"
    if trivial:
        return True, "gamma = 1 lies in every subfield"
    if not structure_certificate_for(spec):
        return False, "gamma is not a root of the exterior power of the totally real subfield element"
    return True, (
        "every |mu|^2 factor of gamma is a conjugate of an explicit element of the "
        "maximal totally real subfield, so gamma lies in its normal closure"
    )


def structure_certificate_for(spec: EndomorphismSpec) -> bool:
    """Check from the eigenvalue side that gamma, taken from the totally real
    subfield element y, is the Mahler measure of the spectrum: its enclosure
    must meet the target disk of the product of a^m over the roots a of q
    outside the circle, m the multiplicity (enclosures.disk_product)."""
    if admissibility_check(spec).kind not in _DICHOTOMY_KINDS:
        raise ValidationError("structure certificate only covers totally real, CM and totally definite types")
    spectrum = _spectrum(spec)
    target = disk_product([e for e, s in spectrum.statuses if s == OUTSIDE], 128, spectrum.mult)
    return _gamma_of(spec).enclosure.meets(target)
