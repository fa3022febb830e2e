"""Regenerate the reference zeros file ``perfbench/data/zeros_t10010.txt``.

Run from the repository root: ``python3 perfbench/make_reference.py [jobs]``.

Every ordinate below t = 10010 is located by mpmath, independently of
``szeta.zeros``: a coarse bracket from ``szeta.zeros.find_zeros`` (any
bracket of width 1e-6 around a simple zero will do) is confirmed by a sign
change of ``mpmath.siegelz`` and refined by two secant steps, which leaves
an error far below 1e-11 (the bracket width squared times Z''/Z').  The
benchmark then treats the file as ground truth and spot-checks it against
``mpmath.zetazero`` on every run.
"""

from __future__ import annotations

import hashlib
import os
import sys
from multiprocessing import get_context

import mpmath

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "data", "zeros_t10010.txt")
T_MAX = 10010.0
HALF_WIDTH = 5e-7


def _z(t):
    return float(mpmath.siegelz(mpmath.mpf(t)))


def refine(g: float) -> float:
    h = HALF_WIDTH
    while True:
        a, b = g - h, g + h
        za, zb = _z(a), _z(b)
        if za * zb < 0.0:
            break
        h *= 4.0
        if h > 1e-3:
            raise RuntimeError(f"no sign change of Z near {g!r}")
    for _ in range(2):
        c = b - zb * (b - a) / (zb - za)
        if c == b:
            break
        a, za, b, zb = b, zb, c, _z(c)
    return b


def main() -> int:
    jobs = int(sys.argv[1]) if len(sys.argv) > 1 else 1
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    from szeta.zeros import find_zeros

    coarse = find_zeros(T_MAX, threads=1).ordinates.tolist()
    with get_context("spawn").Pool(jobs) as pool:
        fine = pool.map(refine, coarse, chunksize=64)
    if any(b <= a for a, b in zip(fine, fine[1:])):
        raise RuntimeError("refined ordinates are not increasing")
    body = "\n".join(repr(g) for g in fine)
    text = ("# zeta zero ordinates below t = 10010, one per line, ascending;"
            " refined with mpmath.siegelz (see perfbench/make_reference.py)\n"
            f"{body}\n")
    with open(OUT, "w", encoding="ascii", newline="\n") as fh:
        fh.write(text)
    print(f"{len(fine)} ordinates, sha256 "
          f"{hashlib.sha256(text.encode('ascii')).hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
