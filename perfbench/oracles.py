"""Independent checks of endoscope's answers, run outside the timed region.

The characteristic polynomial, irreducibility and admissibility are worked
out here with sympy, which shares no code with the library.  Fixed-point rows
are compared with the library's block-companion determinant, a third path the
library itself never uses for its reports: for an endomorphism of dimension g
whose reduced characteristic polynomial over Q is P, fix(f^n)^deg(P) equals
companion_oracle(P, n)^g.
"""

from __future__ import annotations

import json
from decimal import Decimal, localcontext
from fractions import Fraction

import sympy

X, Y = sympy.symbols("x y")


def _poly(coeffs, var) -> sympy.Expr:
    return sum(sympy.Rational(str(Fraction(c))) * var**i for i, c in enumerate(coeffs))


def _ints(expr) -> list[Fraction]:
    """Constant-first coefficients of a polynomial in x."""
    return [Fraction(int(c.p), int(c.q)) for c in reversed(sympy.Poly(expr, X).all_coeffs())]


def _norm_and_pure_square(alg: dict, elt: dict, m) -> tuple:
    """Reduced norm a^2 - alpha b^2 - beta c^2 + alpha beta d^2 of a + bi + cj + dk,
    and alpha b^2 + beta c^2 - alpha beta d^2 (the square of its pure part), mod m."""
    a, b, c, d = (_poly(elt[k], Y) for k in "abcd")
    alpha, beta = _poly(alg["alpha"], Y), _poly(alg["beta"], Y)
    pure_square = alpha * b * b + beta * c * c - alpha * beta * d * d
    return sympy.rem(sympy.expand(a * a - pure_square), m, Y), sympy.rem(sympy.expand(pure_square), m, Y)


class Oracle:
    """Checks one job result at a time; caches per spec, since pools repeat."""

    def __init__(self, companion_oracle, make_qpoly):
        self._companion = companion_oracle
        self._qpoly = make_qpoly
        self._charpolys: dict[str, list[Fraction]] = {}
        self._companion_values: dict[tuple, int] = {}

    # -- the exact reference data of a spec ------------------------------

    def charpoly(self, spec: dict) -> list[Fraction]:
        """Reduced characteristic polynomial over Q, monic, constant first."""
        key = json.dumps(spec, sort_keys=True)
        if key not in self._charpolys:
            self._charpolys[key] = self._charpoly(spec)
        return self._charpolys[key]

    def _charpoly(self, spec: dict) -> list[Fraction]:
        alg, elt = spec["algebra"], spec["element"]
        if alg["kind"] == "field":
            m = _poly(alg["minpoly"], Y)
            h = X - _poly(elt["coords"], Y)
        else:
            m = _poly(alg["base_minpoly"], Y)
            nrd, _ = _norm_and_pure_square(alg, elt, m)
            h = X**2 - 2 * _poly(elt["a"], Y) * X + nrd
        res = sympy.Poly(sympy.resultant(m, h, Y), X)
        return _ints(res.monic().as_expr())

    def expected_rejection(self, spec: dict, ops: list[str]) -> str | None:
        """Error kind the job must end in, or None when it must be accepted.

        Every field in the pools that is not totally real is CM, so the field
        check reduces to the divisibility conditions.
        """
        alg, elt, g = spec["algebra"], spec["element"], spec["g"]
        if alg["kind"] == "field":
            m = sympy.Poly(_poly(alg["minpoly"], Y), Y)
            e = m.degree()
            totally_real = sympy.polys.polytools.count_roots(m) == e
            if (g % e) if totally_real else ((2 * g) % e):
                return "divisibility"
        else:
            mexpr = _poly(alg["base_minpoly"], Y)
            e = sympy.degree(mexpr, Y)
            alpha, beta = _poly(alg["alpha"], Y), _poly(alg["beta"], Y)
            signs = {
                bool(alpha.subs(Y, root).evalf(30) < 0 and beta.subs(Y, root).evalf(30) < 0)
                for root in sympy.real_roots(sympy.Poly(mexpr, Y))
            }
            if len(signs) != 1:
                return "not-simple-albert-type"
            if g % (2 * e):
                return "divisibility"
            nrd, pure_square = _norm_and_pure_square(alg, elt, mexpr)
            pure_part = any(_poly(elt[k], Y) != 0 for k in "bcd")
            if nrd == 0 or (pure_part and pure_square == 0):
                return "not-simple-albert-type"
        if any(c.denominator != 1 for c in self.charpoly(spec)):
            return "non-integral-element"
        if {"classify", "entropy"} & set(ops):
            # a simple abelian variety never mixes roots of unity with other eigenvalues
            cyclo = {sympy.Poly(q, X).is_cyclotomic for q, _ in sympy.factor_list(_poly(self.charpoly(spec), X))[1]}
            if cyclo == {True, False}:
                return "not-simple-albert-type"
        return None

    # -- report checks: each returns None or what is wrong ---------------

    def check_run_report(self, spec: dict | None, report: dict) -> str | None:
        for result in report["results"]:
            op = result["op"]
            if op == "check-algebra":
                got = [Fraction(c) for c in result["charpoly_q"]]
                if got != self.charpoly(spec):
                    return f"check-algebra charpoly_q {result['charpoly_q']} differs from the resultant"
            elif op == "fixpoints":
                problem = self._check_fix_rows(spec, result["fix"])
                if problem:
                    return problem
            elif op in ("classify", "entropy"):
                problem = check_entropy(result["entropy"])
                if problem:
                    return problem
            elif op == "salem":
                problem = check_salem(result)
                if problem:
                    return problem
        return None

    def _check_fix_rows(self, spec: dict, rows: list[dict]) -> str | None:
        p = self.charpoly(spec)
        qp = self._qpoly(p)
        g = spec["g"]
        deg = len(p) - 1
        for row in rows:
            n, fix = row["n"], int(row["fix"])
            key = (tuple(p), n)
            if key not in self._companion_values:
                self._companion_values[key] = self._companion(qp, n)
            if fix**deg != self._companion_values[key] ** g:
                return f"fix(f^{n}) = {fix} disagrees with the companion determinant"
        return None


def _irreducible(coeffs) -> bool:
    _, factors = sympy.factor_list(_poly(coeffs, X))
    return len(factors) == 1 and factors[0][1] == 1


def _has_root_near(coeffs, x: Fraction, rel: Fraction) -> bool:
    """A sign change of the exact polynomial across [x(1-rel), x(1+rel)]."""
    cs = [Fraction(c) for c in coeffs]

    def ev(t):
        acc = Fraction(0)
        for c in reversed(cs):
            acc = acc * t + c
        return acc

    lo, hi = ev(x * (1 - rel)), ev(x * (1 + rel))
    return lo == 0 or hi == 0 or (lo < 0) != (hi < 0)


def _exp(decimal_text: str) -> Fraction:
    with localcontext() as ctx:
        ctx.prec = 50
        return Fraction(Decimal(decimal_text).exp())


REL = Fraction(1, 10**13)


def check_entropy(ent: dict) -> str | None:
    """Positive entropy: gamma's minimal polynomial is irreducible and exp(value) is a root."""
    if ent["gamma_minpoly"] == ["-1/1", "1/1"]:
        return None if Decimal(ent["value_decimal"]) == 0 else "gamma = 1 with nonzero entropy"
    if not _irreducible(ent["gamma_minpoly"]):
        return f"gamma_minpoly {ent['gamma_minpoly']} is reducible"
    if not _has_root_near(ent["gamma_minpoly"], _exp(ent["value_decimal"]), REL):
        return f"exp({ent['value_decimal']}) is not a root of gamma_minpoly"
    return None


def check_salem(result: dict) -> str | None:
    """The irreducibility verdict against sympy, and the lead root when Salem."""
    coeffs = result["poly"]
    reached_irreducibility = result["reason"] not in ("not monic", "degree must be even and at least 4", "not reciprocal")
    if not reached_irreducibility:
        return None
    irreducible = _irreducible(coeffs)
    if (result["reason"] == "not irreducible") == irreducible:
        return f"irreducibility verdict on {coeffs} disagrees with sympy"
    if result["is_salem"] and not _has_root_near(coeffs, Fraction(result["lead_root"]), REL):
        return f"lead root {result['lead_root']} is not a root of {coeffs}"
    return None
