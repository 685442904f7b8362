#!/usr/bin/env python3
"""Print fixed-point sequences and the convergence of fix(f^n)^(1/n).

For each sample endomorphism the exact counts are computed along with the
expected limit growth rate gamma = exp(h), read off the certified entropy
h = log gamma of endoscope.entropy, showing how fast the empirical rate
locks on.

Usage: python scripts/fixpoint_growth.py [nmax]
"""

import math
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from endoscope import (
    EndomorphismSpec,
    NumberField,
    QuatAlgebra,
    entropy,
    fixed_point_table,
    from_ints,
    rationals_field,
)


def sample_specs():
    silver = NumberField(from_ints(-2, 0, 1))
    golden = NumberField(from_ints(-5, 0, 1))
    gauss = NumberField(from_ints(1, 0, 1))
    base13 = NumberField(from_ints(-13, 0, 1))
    b13 = QuatAlgebra(base13, [-2, -2], [2])
    salem_unit = b13.element([Fraction(1, 4), Fraction(-1, 4)], Fraction(1, 4))
    return [
        ("1+sqrt2 on g=2", EndomorphismSpec(silver, silver.element([1, 1]), 2)),
        ("golden ratio on g=2", EndomorphismSpec(golden, golden.element([Fraction(1, 2), Fraction(1, 2)]), 2)),
        ("1+i on g=1", EndomorphismSpec(gauss, gauss.element([1, 1]), 1)),
        ("-id on g=2", EndomorphismSpec(rationals_field(), -1, 2)),
        ("sqrt13 Salem unit on g=4", EndomorphismSpec(b13, salem_unit, 4)),
    ]


def main():
    nmax = int(sys.argv[1]) if len(sys.argv) > 1 else 24
    for label, spec in sample_specs():
        expected = math.exp(entropy(spec).value)
        print(f"\n== {label} (expected rate {expected:.6f})")
        for n, fix in enumerate(fixed_point_table(spec, nmax), 1):
            rate = fix ** (1 / n) if fix else float("nan")
            show = str(fix) if fix < 10**15 else f"~{float(fix):.3e}"
            if n <= 8 or n % 4 == 0:
                print(f"  n={n:3d}  fix={show:>22}  fix^(1/n)={rate:9.6f}")


if __name__ == "__main__":
    main()
