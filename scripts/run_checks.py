#!/usr/bin/env python3
"""Run every identity check at its default parameters and print a table.

Pair-sum identities compute their own zero set (up to T=210), so the script
is self-contained; it takes about a second on a 2-core machine.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from szeta.kernels import check_identity  # noqa: E402
from szeta.paircorr import lemma5_check, lemma6_check  # noqa: E402
from szeta.theorem import lemma_8_9_10_eval  # noqa: E402
from szeta.zeros import find_zeros  # noqa: E402


def main():
    reports = [check_identity(name) for name in
               ("w_partition", "lemma3", "lemma4", "lemma7", "lemma11")]
    zeros = find_zeros(210.0)
    reports.append(lemma5_check(zeros, 200.0, 0.5))
    reports.append(lemma6_check(zeros, 100.0, 0.4))
    reports += lemma_8_9_10_eval(zeros, 200.0, 0.5).values()

    print(f"{'identity':<14} {'rel discrepancy':>16}  kind    status")
    for r in reports:
        kind = "assert" if r.assertable else "report"
        status = "pass" if r.passed else "FAIL"
        print(f"{r.name:<14} {r.discrepancy_rel:>16.3e}  {kind:<6}  {status}")
    ok = all(r.passed for r in reports)
    return 0 if ok else 2


if __name__ == "__main__":
    sys.exit(main())
