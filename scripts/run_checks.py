#!/usr/bin/env python3
"""Run every identity check at its default parameters and print a table.

Pair-sum identities compute their own zero set (up to T=210), so the script
is self-contained; it takes about a second on a 2-core machine.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from szeta.kernels import check_identity  # noqa: E402
from szeta.paircorr import lemma5_check, lemma6_eval  # noqa: E402
from szeta.theorem import lemma_8_9_10_eval  # noqa: E402
from szeta.zeros import find_zeros  # noqa: E402


def main():
    rows = []
    for name in ("w_partition", "lemma3", "lemma4", "lemma7", "lemma11"):
        rep = check_identity(name)
        rows.append((rep.name, rep.discrepancy_rel, rep.assertable,
                     rep.passed))

    zeros = find_zeros(210.0)
    rep = lemma5_check(zeros, 200.0, 0.5)
    rows.append((rep.name, rep.discrepancy_rel, True, rep.passed))
    dec = lemma6_eval(zeros, 100.0, 0.4)
    term_sum = dec.term_main + dec.term_F_beta - dec.term_k2_integral
    rel = abs(dec.r_total - term_sum) / abs(dec.r_total)
    rows.append(("lemma6", rel, True, rel < 1e-6))
    for name, rep in lemma_8_9_10_eval(zeros, 200.0, 0.5).items():
        rows.append((name, rep.discrepancy_rel, rep.assertable, rep.passed))

    print(f"{'identity':<14} {'rel discrepancy':>16}  kind    status")
    ok = True
    for name, rel, assertable, passed in rows:
        kind = "assert" if assertable else "report"
        status = "pass" if passed else "FAIL"
        ok &= passed
        print(f"{name:<14} {rel:>16.3e}  {kind:<6}  {status}")
    return 0 if ok else 2


if __name__ == "__main__":
    sys.exit(main())
