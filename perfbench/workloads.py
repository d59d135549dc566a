"""The benchmark's workloads: fixed pathfn CLI operations plus one seeded set.

Each operation is one ``pathfn`` command line.  ``scan-exact``, ``scan-float``
and ``flow`` are fixed; the seed only generates the ``offgrid`` point set.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

SPECS = "perfbench/specs"


def spec(name: str) -> str:
    return f"{SPECS}/{name}.json"


@dataclass(frozen=True)
class Op:
    """One CLI operation and how its output is checked.

    ``pinned``: fields of the output are compared with the values recorded at
    the seed commit (``expected.json``).  ``oracle``: the name of an
    independent value check in ``checks.ORACLES``.  ``truth``: for float
    scans, the known answer ("holds" or "violated") a decisive verdict must
    not contradict.
    """

    name: str
    argv: Tuple[str, ...]
    pinned: bool = True
    oracle: Optional[str] = None
    truth: Optional[str] = None

    def arg(self, flag: str) -> str:
        return self.argv[self.argv.index(flag) + 1]


@dataclass(frozen=True)
class Workload:
    name: str
    ops: Tuple[Op, ...]
    setup: Tuple[Op, ...]
    notes: Dict[str, object] = field(default_factory=dict)


def _setup(*names: str, mode: str = "exact") -> Tuple[Op, ...]:
    """Fresh ``eval --points 0`` per spec: start, import, parse, one cold evaluation."""
    return tuple(
        Op(f"setup-{n}", ("eval", "--func", spec(n), "--points", "0", "--mode", mode), pinned=False)
        for n in names
    )


def _membership(name: str, spec_name: str, c: str, r: int, nmax: int, ydepth: int, *extra: str, **kw) -> Op:
    argv = ("membership", "--func", spec(spec_name), "--c", c, "--r", str(r),
            "--nmax", str(nmax), "--ydepth", str(ydepth)) + extra
    return Op(name, argv, **kw)


def _flow(name: str, spec_name: str, c: str, t: str, *extra: str, **kw) -> Op:
    return Op(name, ("flow", "--func", spec(spec_name), "--c", c, "--t", t) + extra, **kw)


def scan_exact() -> Workload:
    return Workload(
        "scan-exact",
        (
            # ydepth 4, not ROADMAP item 2's 6: at 6 this one operation takes ~20 s, so
            # a run could time only one pass and host noise would decide the spread
            _membership("membership-tau3", "tau3", "3/2", 3, 5, 4, oracle="takagi_margin"),
            _membership("membership-utheta2", "utheta2", "1/10", 2, 8, 6),
            Op("identity-theta2", ("identity", "--psi", spec("theta2"), "--r", "2", "--nmax", "8", "--ydepth", "5")),
        ),
        _setup("tau3", "utheta2", "theta2"),
    )


def scan_float() -> Workload:
    return Workload(
        "scan-float",
        (
            _membership("membership-float-tau2", "tau2", "2", 2, 5, 4, "--mode", "float",
                        oracle="takagi_margin", truth="holds"),
            _membership("membership-float-usin", "usin", "1", 2, 5, 4, "--mode", "float",
                        oracle="abs_sin_margin", truth="violated"),
            Op("eval-float-usin", ("eval", "--grid", "10", "--mode", "float", "--func", spec("usin")),
               pinned=False, oracle="abs_sin_csv"),
        ),
        _setup("tau2", "usin", mode="float"),
    )


def flow() -> Workload:
    return Workload(
        "flow",
        (
            _flow("flow-tau2-samples", "tau2", "2", "1/65536", "--samples", "4097", oracle="takagi_pieces"),
            _flow("flow-tau2-crosscheck", "tau2", "2", "1/4", "--crosscheck", "10", oracle="takagi_pieces"),
            _flow("flow-upsi0-crosscheck", "upsi0", "1", "1/1024", "--crosscheck", "10"),
            _flow("flow-float-tau2", "tau2", "2", "1/4096", "--mode", "float", oracle="takagi_pieces"),
        ),
        _setup("tau2", "upsi0"),
    )


def _primes(lo: int, hi: int) -> List[int]:
    return [p for p in range(max(lo, 2), hi + 1) if all(p % d for d in range(2, int(p**0.5) + 1))]


def _order2(q: int) -> int:
    """Multiplicative order of 2 mod an odd prime q: the orbit length of p/q under x -> 2x mod 1."""
    a, k = 2 % q, 1
    while a != 1:
        a, k = a * 2 % q, k + 1
    return k


# Distinct-orbit points: one p/q per prime q in 500..1200 whose orbit is at
# least this long.  All such primes are used, so orbit lengths (and cost) do
# not depend on the seed; only the numerators do.
_MIN_ORBIT = 100
# Shared-orbit points: this many points on the single orbit of p0/q for each
# of two primes q with 2 a primitive root (orbit length q - 1), one drawn
# from 1000..1499 and one from 1500..2000.
_SHARED_PER_PRIME = 50


def offgrid_points(seed: int) -> Tuple[List[Fraction], Dict[str, object]]:
    """The seeded off-grid point set and its orbit-sharing profile.

    A point counts as shared-orbit when an earlier point in the list lies on
    the same cycle of x -> 2x mod 1, so evaluating it can reuse that walk.
    """
    rng = random.Random(seed)
    points = [Fraction(rng.randrange(1, q), q) for q in _primes(500, 1200) if _order2(q) >= _MIN_ORBIT]
    primitive = [q for q in _primes(1000, 2000) if _order2(q) == q - 1]
    shared_primes = (rng.choice([q for q in primitive if q < 1500]), rng.choice([q for q in primitive if q >= 1500]))
    for q in shared_primes:
        p0 = rng.randrange(1, q)
        for k in rng.sample(range(q - 1), _SHARED_PER_PRIME):
            points.append(Fraction(p0 * pow(2, k, q) % q, q))
    rng.shuffle(points)
    walked = set()  # (q, p) of every point on a cycle already walked
    shared = 0
    for x in points:
        q, a = x.denominator, x.numerator
        shared += (q, a) in walked
        while (q, a) not in walked:
            walked.add((q, a))
            a = a * 2 % q
    notes = {
        "offgrid_points": len(points),
        "shared_orbit_share": shared / len(points),
        "distinct_orbit_share": (len(points) - shared) / len(points),
        "shared_primes": list(shared_primes),
    }
    return points, notes


def offgrid(seed: int) -> Workload:
    points, notes = offgrid_points(seed)
    return Workload(
        "offgrid",
        (
            Op("eval-tau2-offgrid", ("eval", "--func", spec("tau2"), "--points", ",".join(map(str, points))),
               pinned=False, oracle="takagi_points"),
            Op("probe-tau2", ("probe", "--func", spec("tau2"), "--x", "1/3", "--N", "40")),
            Op("probe-upsi0", ("probe", "--func", spec("upsi0"), "--x", "1/2003", "--N", "40")),
        ),
        _setup("tau2", "upsi0"),
        notes,
    )


NAMES = ("scan-exact", "scan-float", "flow", "offgrid")


def build(name: str, seed: int) -> Workload:
    if name == "offgrid":
        return offgrid(seed)
    return {"scan-exact": scan_exact, "scan-float": scan_float, "flow": flow}[name]()
