#!/usr/bin/env python3
"""Scan reciprocal quartics x^4 - a x^3 + b x^2 - a x + 1 for Salem polynomials.

The three published quaternion constructions produce (a, b) = (1, -1), (3, 0)
and (7, -1); the scan shows where they sit in the family and what else is
nearby.

Usage: python scripts/salem_scan.py [amax] [bmax]
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from endoscope import from_ints, is_salem_polynomial


def main():
    amax = int(sys.argv[1]) if len(sys.argv) > 1 else 8
    bmax = int(sys.argv[2]) if len(sys.argv) > 2 else 8
    hits = []
    for a in range(-amax, amax + 1):
        for b in range(-bmax, bmax + 1):
            poly = from_ints(1, -a, b, -a, 1)
            report = is_salem_polynomial(poly)
            if report.is_salem:
                lead = float(report.lead_root.re)
                hits.append((lead, a, b))
    hits.sort()
    print(f"{len(hits)} Salem quartics with |a| <= {amax}, |b| <= {bmax}")
    for lead, a, b in hits:
        marker = " <- published construction" if (a, b) in ((1, -1), (3, 0), (7, -1)) else ""
        print(f"  lambda = {lead:11.8f}   x^4 - {a} x^3 + {b} x^2 - {a} x + 1{marker}")


if __name__ == "__main__":
    main()
