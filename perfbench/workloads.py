"""Seeded job streams for the three benchmark workloads.

A stream is a list of jobs.  Each job is a dict with an ``argv`` for
``endoscope.cli.main`` (the job file path is filled in when the stream is
written) and, for ``run`` jobs, the JSON ``job`` body that goes into the file.
The program under test only ever sees the written files and the argv; the
generator is the benchmark's own code and depends on nothing but the seed
and the run length.

Pool picks are stratified in shuffled blocks, so every seed gets the same mix
of algebras and of sizes; the seed varies the order, the elements and the
exact sizes.  That keeps the latency percentiles comparable across seeds
without dropping any input the draw produces.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

WORKLOADS = ("fixpoints-sweep", "classify-corpus", "salem-scan")


def _q(*ints) -> list[str]:
    return [f"{c}/1" for c in ints]


def field_spec(minpoly, coords, g) -> dict:
    return {
        "algebra": {"kind": "field", "minpoly": _q(*minpoly)},
        "element": {"coords": [c if isinstance(c, str) else f"{c}/1" for c in coords]},
        "g": g,
    }


def quat_spec(base, alpha, beta, a, b=(), c=(), d=(), g=2) -> dict:
    def coords(xs):
        return [x if isinstance(x, str) else f"{x}/1" for x in xs]

    return {
        "algebra": {
            "kind": "quaternion",
            "base_minpoly": _q(*base),
            "alpha": _q(*alpha),
            "beta": _q(*beta),
        },
        "element": {"a": coords(a), "b": coords(b), "c": coords(c), "d": coords(d)},
        "g": g,
    }


# the README example: Salem unit of the indefinite algebra over Q(sqrt13)
README_SPEC = quat_spec((-13, 0, 1), (-2, -2), (2,), ("1/4", "-1/4"), ("1/4",), g=4)
README_JOB = {
    "spec": README_SPEC,
    "commands": [{"op": "check-algebra"}, {"op": "fixpoints", "nmax": 8}, {"op": "classify"}],
    "precision_bits": 128,
}

# the three published totally indefinite constructions (`endoscope paper-examples`)
PAPER_SPECS = [
    quat_spec((-disc, 0, 1), alpha, (2,), (f"{a_num}/4", "-1/4"), ("1/4",), g=4)
    for disc, alpha, a_num in ((13, (-2, -2), 1), (61, (94, -14), 7), (17, (10, -6), 3))
]

CYCLO7 = (1, 1, 1, 1, 1, 1, 1)

# ---------------------------------------------------------------------------
# fixpoints-sweep: one spec per Albert type and a few more, fixed


FIXPOINT_POOL = [
    field_spec((-2, 0, 1), (1, 1), 2),  # 1+sqrt2, totally real
    field_spec((-5, 0, 1), ("1/2", "1/2"), 2),  # golden unit, totally real
    field_spec((1, 0, 1), (1, 1), 1),  # 1+i, CM
    field_spec((-1, -3, 0, 1), (1, 1, 0), 3),  # 1+theta on the cyclic cubic
    field_spec((1, 1, 1, 1, 1), (0, 1, 0, 0), 2),  # zeta5, periodic
    quat_spec((0, 1), (-1,), (-1,), ("1/2",), ("1/2",), ("1/2",), ("1/2",), g=2),  # Hamilton unit
    quat_spec((-13, 0, 1), (-1,), (-4, 1), (1,), (1,), g=4),  # 1+i, definite over Q(sqrt13)
    README_SPEC,
]

NMAX_LO, NMAX_HI = 8, 200
# equal strata of log(nmax); one block pairs every spec with every stratum once
NMAX_STRATA = 13


def _fixpoints_anchors() -> list[dict]:
    return [{"argv": ["run", None, "--nmax", str(NMAX_HI)], "job": README_JOB}]


def _fixpoints_block(rng: random.Random) -> list[dict]:
    """Every (spec, nmax stratum) pair once, in shuffled order.

    log(nmax) is uniform on the middle fifth of its stratum of [log 8,
    log 200], so every block holds the same spread of sizes for every spec,
    and the seed moves no job's cost by more than a few percent.
    """
    lo, hi = math.log(NMAX_LO), math.log(NMAX_HI)
    pairs = [(spec, k) for spec in FIXPOINT_POOL for k in range(NMAX_STRATA)]
    rng.shuffle(pairs)
    jobs = []
    for spec, k in pairs:
        nmax = round(math.exp(lo + (hi - lo) * (k + rng.uniform(0.4, 0.6)) / NMAX_STRATA))
        body = {"spec": spec, "commands": [{"op": "fixpoints", "nmax": nmax}], "precision_bits": 128}
        jobs.append({"argv": ["run", None], "job": body})
    return jobs


# ---------------------------------------------------------------------------
# classify-corpus: the acceptance-criterion-3 draw plus two cubics, keeping
# every drawn input (admissibility rejections and precision failures)


# (minpoly constant-first, the g of its jobs in one block).  Every g is a
# multiple of the smallest g the field's Albert type admits, and at most 8.
FIELD_POOL = [
    ((0, 1), (1, 8)),  # Q
    ((-2, 0, 1), (2, 8)),
    ((-5, 0, 1), (2, 8)),
    ((-13, 0, 1), (2, 8)),
    ((1, 0, 1), (1, 4, 8)),  # Q(i)
    ((3, 0, 1), (1, 4, 8)),  # Q(sqrt-3)
    ((1, 1, 1, 1, 1), (2, 4, 6, 8)),  # Q(zeta5)
    ((1, 0, 0, 0, 1), (2, 4, 6, 8)),  # Q(zeta8)
    ((1, 0, -10, 0, 1), (4, 8)),  # Q(sqrt2, sqrt3)
    ((-1, -3, 0, 1), (3, 6)),  # cyclic cubic
    ((-1, -2, 1, 1), (3, 6)),  # Q(zeta7)^+, totally real cubic
]

# (base minpoly, alpha, beta, the g of its jobs in one block)
QUAT_POOL = [
    ((-13, 0, 1), (-2, -2), (2,), (4, 4, 8, 8)),
    ((-17, 0, 1), (10, -6), (2,), (4, 4, 8, 8)),
    ((-61, 0, 1), (94, -14), (2,), (4, 4, 8, 8)),
    ((-13, 0, 1), (-1,), (-4, 1), (4, 8, 8)),  # totally definite over Q(sqrt13)
    ((-2, 0, 1), (-1,), (-1,), (4, 8, 8)),  # totally definite over Q(sqrt2)
]

# one block: every field and quaternion algebra at each of its g, near the
# 65/35 split of the criterion-3 draw.  The seed draws the elements and the
# order, so every run holds the same mix of algebras and dimensions.  Most
# jobs fall on a plateau near 0.2 s.  Above it sit the g = 8 quaternions and
# Q(sqrt2, sqrt3) at g = 8: about half of them exhaust precision, some only
# after 3 to 15 s.  The mix is sized so that the 90th percentile falls among
# them in every run, not on the edge to the few slowest.  Q(zeta7) jobs take
# 2.5 s each and moved that edge by one job per block, so Q(zeta7) comes in
# the entropy anchor only.
CLASSIFY_BLOCK = [("field", minpoly, g) for minpoly, dims in FIELD_POOL for g in dims]
CLASSIFY_BLOCK += [("quat", entry[:3], g) for entry in QUAT_POOL for g in entry[3]]
CLASSIFY_COMMANDS = [{"op": "check-algebra"}, {"op": "classify"}]


def _random_field_spec(rng: random.Random, minpoly, g: int) -> dict:
    coords = [rng.randint(-3, 3) for _ in range(len(minpoly) - 1)]
    if all(c == 0 for c in coords):
        coords[0] = 1
    return field_spec(minpoly, coords, g)


def _random_quat_spec(rng: random.Random, entry, g: int) -> dict:
    base, alpha, beta = entry
    degree = len(base) - 1
    coords = [[rng.randint(-2, 2) for _ in range(degree)] for _ in range(4)]
    if all(c == 0 for row in coords for c in row):
        coords[0][0] = 1
    return quat_spec(base, alpha, beta, *coords, g=g)


def _classify_anchors() -> list[dict]:
    anchors = [
        README_JOB,
        {"spec": field_spec(CYCLO7, (1, 1, 0, 0, 0, 0), 3), "commands": [{"op": "entropy"}]},
    ] + [{"spec": spec, "commands": CLASSIFY_COMMANDS} for spec in PAPER_SPECS]
    return [{"argv": ["run", None], "job": body} for body in anchors]


def _classify_block(rng: random.Random) -> list[dict]:
    block = list(CLASSIFY_BLOCK)
    rng.shuffle(block)
    jobs = []
    for kind, entry, g in block:
        spec = _random_quat_spec(rng, entry, g) if kind == "quat" else _random_field_spec(rng, entry, g)
        jobs.append({"argv": ["run", None], "job": {"spec": spec, "commands": CLASSIFY_COMMANDS}})
    return jobs


# ---------------------------------------------------------------------------
# salem-scan: spec-free Salem tests on reciprocal polynomials


LEHMER = (1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1)


def _palindrome(half: list[int]) -> tuple[int, ...]:
    """Monic reciprocal polynomial from its coefficients up to the middle."""
    return tuple(half + half[-2::-1])


# Lehmer's decic and its neighbours, one symmetric coefficient pair moved by
# one.  Some neighbours are reducible and settle in milliseconds, so they are
# dealt in shuffled rounds rather than drawn: every run then holds the same
# share of them.
DECICS = [LEHMER] + [
    _palindrome([c + step if i == k else c for i, c in enumerate(LEHMER[:6])])
    for k in range(1, 6)
    for step in (-1, 1)
]
# per block: 12 quartics from the salem_scan.py grid, 4 sextics, 3 octics
# and 6 decics.  Six of the eleven decics are irreducible and take 0.3 s;
# at a quarter of the jobs they fill the slowest tenth, so the 90th
# percentile falls inside their cluster rather than on the edge between two
# random clusters.
SALEM_BLOCK = [4] * 12 + [6] * 4 + [8] * 3 + [10] * 6


def _salem_poly(rng: random.Random, degree: int) -> tuple[int, ...]:
    if degree == 4:
        a, b = rng.randint(-8, 8), rng.randint(-8, 8)
        return (1, -a, b, -a, 1)
    half = [1] + [rng.randint(-3, 3) for _ in range(degree // 2)]
    return _palindrome(half)


def _salem_blocks(rng: random.Random, count: int) -> list[dict]:
    jobs, decics = [], []
    for _ in range(count):
        degrees = list(SALEM_BLOCK)
        rng.shuffle(degrees)
        for degree in degrees:
            if degree == 10 and not decics:
                decics = list(DECICS)
                rng.shuffle(decics)
            coeffs = decics.pop() if degree == 10 else _salem_poly(rng, degree)
            jobs.append({"argv": ["salem", ",".join(str(c) for c in coeffs)]})
    return jobs


# ---------------------------------------------------------------------------
# stream length

MIN_JOBS = 100  # at least ten latencies lie beyond the 90th percentile
DEFAULT_SECONDS = 45


def _blocks(make_block):
    return lambda rng, count: [job for _ in range(count) for job in make_block(rng)]


# name -> (anchor jobs, blocks generator, jobs per block, jobs per second).
# The rate is the one measured at the commit the benchmark was defined on,
# on a two-core x86_64 host.  It only sets how many blocks a stream has, so
# the job count depends on --seconds but never on how fast a run goes.
STREAMS = {
    "fixpoints-sweep": (_fixpoints_anchors, _blocks(_fixpoints_block), len(FIXPOINT_POOL) * NMAX_STRATA, 2.1),
    "classify-corpus": (_classify_anchors, _blocks(_classify_block), len(CLASSIFY_BLOCK), 3.1),
    "salem-scan": (list, _salem_blocks, len(SALEM_BLOCK), 7.7),
}


def block_count(workload: str, seconds: float) -> int:
    anchors, _, size, rate = STREAMS[workload]
    return max(round(seconds * rate / size), math.ceil((MIN_JOBS - len(anchors())) / size), 1)


def generate(workload: str, seed: int, seconds: float = DEFAULT_SECONDS) -> list[dict]:
    """The anchors, then whole blocks: enough to fill ``seconds`` at the
    reference rate.  A longer stream starts with the shorter one."""
    anchors, blocks, _, _ = STREAMS[workload]
    rng = random.Random(f"{workload}:{seed}")
    return anchors() + blocks(rng, block_count(workload, seconds))


def write_stream(jobs: list[dict], directory: Path) -> list[dict]:
    """Write one job file per run job and the stream manifest; fill in argv."""
    directory.mkdir(parents=True, exist_ok=True)
    for i, job in enumerate(jobs):
        job["id"] = i
        if "job" in job:
            path = directory / f"job-{i:05d}.json"
            path.write_text(json.dumps(job["job"], indent=1, sort_keys=True) + "\n", encoding="utf-8")
            job["argv"] = [a if a is not None else str(path) for a in job["argv"]]
    manifest = [{"id": i, "argv": _portable(job["argv"], directory)} for i, job in enumerate(jobs)]
    (directory / "stream.json").write_text(json.dumps(manifest, indent=1) + "\n", encoding="utf-8")
    return jobs


def _portable(argv: list[str], directory: Path) -> list[str]:
    return [Path(a).name if a.startswith(str(directory)) else a for a in argv]
