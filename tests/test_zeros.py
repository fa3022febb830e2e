import math
import os

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (theta_binet_oracle, theta_series_oracle,
                     zeros_text_oracle, zeta_em_oracle)
from szeta.errors import DomainError, MissedZerosError, ZerosParseError
from szeta.zeros import (_EM_COEF, RS_MIN_T, ZeroSet, _em_length, _z_em,
                         _z_rs, export_zeros, find_zeros, gram_points,
                         import_zeros, riemann_siegel_Z, theta, theta_exact)

PI = math.pi


def test_theta_monotone_and_domain():
    assert theta(100.0) > theta(50.0)
    # below the series' floor theta is the log-Gamma form, NaN kept
    assert theta(9.99) == theta_exact(9.99)
    assert theta(2 * PI) == theta_exact(2 * PI)   # the series' stationary t
    got = theta([5.0, math.nan])
    assert got[0] == theta_exact(5.0) and math.isnan(got[1])
    # a number runs on NumPy scalars and gets an array element's bits
    t = np.geomspace(10.0, 1e5, 2001)
    on_array = theta(t)
    assert all(theta(float(v)) == on_array[i] for i, v in enumerate(t))
    assert math.isnan(theta(math.nan))
    assert theta(np.array([])).shape == (0,)
    # the log-Gamma form below 10 and the series above, at a number as in
    # an array that mixes both, negative t included
    t = np.concatenate((np.linspace(0.0, 20.0, 401),
                        [14.134725141734695, 250.0, -0.5, -9.0, -50.0]))
    on_array = theta(t)
    assert all(theta(float(v)) == on_array[i] for i, v in enumerate(t))


def test_theta_below_series_floor_against_mpmath():
    for t in (0.0, 0.5, 2 * PI, 9.99, -9.0, -50.0):
        assert abs(theta(t) - float(mpmath.siegeltheta(t))) <= 1e-14


def test_theta_exact_number_gets_array_bits():
    # NumPy's complex scalar arithmetic rounds otherwise than its array
    # loops: at 0.5 they differ in the last bit
    t = np.array([0.0, 0.5, 3.7, 2 * PI, 9.99, -9.0, 25.0])
    on_array = theta_exact(t)
    assert all(theta_exact(float(v)) == on_array[i] for i, v in enumerate(t))


def test_theta_against_loggamma_quadrature():
    for t in (14.0, 100.0):
        assert theta(t) == pytest.approx(theta_binet_oracle(t), abs=1e-10)


def test_theta_exact_against_mpmath_siegeltheta():
    for t in (0.0, 0.1, 1.0, 3.7, 2 * PI, 9.99, 10.0):
        assert abs(theta_exact(t) - float(mpmath.siegeltheta(t))) <= 1e-14


def test_theta_matches_four_power_series():
    # powers by recurrence in 1/t^2 keep the term-by-term sum's roundings
    t = np.geomspace(10.0, 1e6, 20001)
    want = theta_series_oracle(t)
    # relative, but theta crosses 0 near t = 17.8
    scale = np.maximum(np.abs(want), 1.0)
    assert np.max(np.abs(theta(t) - want) / scale) <= 4e-16
    lo = np.linspace(10.0, 200.0, 2001)
    assert np.max(np.abs(theta(lo) - theta_exact(lo))) <= 1e-12


def test_theta_exact_matches_series_overlap():
    t = np.array([10.0, 25.0, 300.0])
    assert np.max(np.abs(theta_exact(t) - theta(t))) < 1e-9


def test_z_sign_change_brackets_first_zero():
    assert riemann_siegel_Z(14.0) * riemann_siegel_Z(14.2) < 0
    # bisection oracle
    lo, hi = 14.0, 14.2
    flo = riemann_siegel_Z(lo)
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        fm = riemann_siegel_Z(mid)
        if flo * fm <= 0:
            hi = mid
        else:
            lo, flo = mid, fm
    gamma1 = 0.5 * (lo + hi)
    assert gamma1 == pytest.approx(14.134725, abs=1e-6)


def test_z_squared_matches_zeta_oracle():
    # dual route: the Riemann-Siegel branch vs an independent
    # Euler-Maclaurin |zeta|^2, at t above the dispatch threshold so "auto"
    # really exercises the Riemann-Siegel formula: one t away from a
    # main-sum transition and one with sqrt(t/2pi) just above the integer 12
    for t in (1200.0, 2 * PI * (12 + 1e-3) ** 2):
        assert t > RS_MIN_T
        oracle = abs(zeta_em_oracle(t)) ** 2
        assert _z_rs(np.array([t]))[0] ** 2 == pytest.approx(oracle,
                                                             abs=1e-6)
        assert riemann_siegel_Z(t) ** 2 == pytest.approx(oracle, abs=1e-6)


def test_z_branches_agree_on_overlap():
    # Riemann-Siegel against Euler-Maclaurin on a dense grid and right next
    # to the main-sum transitions sqrt(t/2pi) = n, where an inaccurate
    # model of Psi's derivatives shows first
    n = np.arange(9, 16)
    ts = np.concatenate([np.linspace(500.0, 1500.0, 700),
                         2 * PI * (n - 1e-4) ** 2, 2 * PI * (n + 1e-4) ** 2])
    assert np.min(ts) >= RS_MIN_T
    em = _z_em(ts)
    assert np.max(np.abs(riemann_siegel_Z(ts) - em)) < 3e-7
    assert np.max(np.abs(_z_rs(ts) - em)) < 3e-7


def test_z_em_against_mpmath_siegelz():
    # a dense grid over [10, 500), t just above 10, and both sides of every
    # step of the rounded sum length N = 16 ceil((t/pi + 6)/16)
    steps = PI * (16.0 * np.arange(1, 11) - 6.0)
    ts = np.concatenate([np.linspace(10.0, 499.9, 200),
                         [10.0 + 1e-9, 10.001, 10.3],
                         steps - 1e-9, steps + 1e-9])
    lengths = _em_length(ts)
    assert np.all(lengths[-10:] == lengths[-20:-10] + 16)
    ref = np.array([float(mpmath.siegelz(t)) for t in ts])
    assert np.max(np.abs(_z_em(ts) - ref)) <= 1e-12


def test_z_em_remainder_bound():
    # Edwards 6.4: |R| <= |s+2m+1|/(sigma+2m+1) |T_m+1|, T_m+1 the first
    # omitted Bernoulli term, below 1e-16 at the sum length of every t
    # below the switch; and the tail's coefficients B_2k/(2k)!
    m = len(_EM_COEF)
    for k, c in enumerate(_EM_COEF, 1):
        exact = mpmath.bernoulli(2 * k) / mpmath.factorial(2 * k)
        assert abs(c / float(exact) - 1.0) <= 4e-15, k
    t = np.linspace(10.0, RS_MIN_T, 49001)
    s = 0.5 + 1j * t
    k = m + 1
    log_b = float(mpmath.log(abs(mpmath.bernoulli(2 * k))
                             / mpmath.factorial(2 * k)))
    log_bound = (np.log(np.abs(s + 2 * m + 1)) - math.log(0.5 + 2 * m + 1)
                 + log_b
                 + sum(np.log(np.abs(s + j)) for j in range(2 * m + 1))
                 - (0.5 + 2 * m + 1) * np.log(_em_length(t)))
    assert np.max(log_bound) < math.log(1e-16)


def test_polish_brackets_every_ordinate(zeros_1010):
    # each ordinate is the midpoint of a bracket of width <= 1e-9 around a
    # sign change of Z, on both branches
    g = zeros_1010.ordinates
    assert np.any(g < RS_MIN_T) and np.any(g > RS_MIN_T)
    assert np.all(riemann_siegel_Z(g - 0.6e-9)
                  * riemann_siegel_Z(g + 0.6e-9) < 0.0)


def test_find_zeros_z_points(monkeypatch):
    # the scan, its refinement and the Anderson-Bjorck polish of the 657
    # zeros below 1010 take 4968 Z points (7.6 a zero; Illinois steps took
    # 5596): a slower polish fails here
    from szeta import zeros as zmod
    real = zmod.riemann_siegel_Z
    points = []

    def counted(t):
        points.append(np.size(t))
        return real(t)

    monkeypatch.setattr(zmod, "riemann_siegel_Z", counted)
    assert len(zmod.find_zeros(1010.0)) == 657
    assert sum(points) <= 4968


def _psi_exact(p):
    return mpmath.cos(2 * mpmath.pi * (p * p - p - mpmath.mpf(1) / 16)) \
        / mpmath.cos(2 * mpmath.pi * p)


def test_psi_model_against_mpmath():
    # the Riemann-Siegel corrections use Psi and its derivatives 2, 3 and
    # 6; each must hold up to the ends p = 0, 1 of the model's interval.
    # The derivatives are those of the shipped C0 = Psi, from which the
    # shipped C1 and C2 derive exactly (checked in test_kernels.py)
    from szeta.zeros import _rs_tables
    psi = _rs_tables()[0]
    D = {k: psi.deriv(k) if k else psi for k in (0, 2, 3, 6)}
    points = (0.0, 1e-3, 0.02, 0.5, 0.98, 1.0 - 1e-3, 1.0)
    tols = {0: 1e-12, 2: 1e-8, 3: 1e-7, 6: 1e-2}
    with mpmath.workdps(40):
        for k, tol in tols.items():
            for p in points:
                exact = float(mpmath.diff(_psi_exact, mpmath.mpf(p), k))
                err = abs(float(D[k](p)) - exact) / max(1.0, abs(exact))
                assert err < tol, (k, p, err)


def test_z_is_real_valued():
    vals = riemann_siegel_Z(np.linspace(20.0, 80.0, 50))
    assert vals.dtype == np.float64


def test_z_domain():
    with pytest.raises(DomainError):
        riemann_siegel_Z(5.0)


@pytest.mark.filterwarnings("error")
def test_z_refuses_non_finite_t():
    # refused, not NaN, and before any cast can warn
    for t in (math.nan, math.inf, np.array([600.0, math.inf]),
              np.array([20.0, math.nan])):
        with pytest.raises(DomainError, match="finite t >= 10"):
            riemann_siegel_Z(t)


def test_find_zeros_first_zero_only():
    zs = find_zeros(20.0)
    assert len(zs) == 1
    assert zs.ordinates[0] == pytest.approx(14.134725, abs=1e-6)
    assert zs.claimed_complete


def test_find_zeros_count_at_100():
    zs = find_zeros(100.0)
    # count cross-check via theta(100)/pi + 1 rounding (no external table)
    smooth = theta(100.0) / PI + 1.0
    assert len(zs) == round(smooth) == 29
    assert np.max(np.abs(riemann_siegel_Z(zs.ordinates))) < 1e-6


def test_find_zeros_idempotent():
    a = find_zeros(60.0)
    b = find_zeros(60.0)
    assert np.array_equal(a.ordinates, b.ordinates)


def test_riemann_siegel_Z_against_mpmath_siegelz():
    # the Riemann-Siegel branch well above its switch, to the 1.5e-7 the
    # zeros module states
    for t in (1600.3, 5000.7, 9999.1, 30000.5, 99000.2):
        exact = float(mpmath.siegelz(t))
        assert abs(riemann_siegel_Z(t) - exact) <= 1.5e-7, t


def test_find_zeros_domain():
    with pytest.raises(DomainError):
        find_zeros(5.0)


def test_gram_points_against_mpmath():
    for n in (0, 1, 100, 10000):
        assert gram_points(n) == pytest.approx(float(mpmath.grampoint(n)),
                                               abs=1e-9)
    many = gram_points(np.array([0, 1, 100, 10000]))
    assert np.array_equal(many, [gram_points(n) for n in (0, 1, 100, 10000)])
    with pytest.raises(DomainError):
        gram_points(-1)


def test_find_zeros_against_mpmath_zetazero(zeros_10k):
    for k in (2000, 5000, 10000):
        exact = float(mpmath.zetazero(k).imag)
        assert zeros_10k.ordinates[k - 1] == pytest.approx(exact, abs=2e-7)


@pytest.mark.parametrize("pair", [(7005.0629, 7005.1006),
                                  (5229.1986, 5229.2418)])
def test_find_zeros_resolves_close_pairs(zeros_10k, pair):
    # both gaps are narrower than a 0.05 grid step
    g = zeros_10k.ordinates
    near = g[(g > pair[0] - 0.02) & (g < pair[1] + 0.02)]
    assert len(near) == 2
    assert np.max(np.abs(near - np.array(pair))) < 1e-4


def test_against_reference_table(zeros_120):
    # reference file as an external table would supply it (6 decimals,
    # frozen from the bisection oracle at first run)
    ref = "\n".join(["# reference ordinates", "14.134725", "21.022040",
                     "25.010858", "30.424876", "32.935062", "37.586178",
                     "40.918719", "43.327073", "48.005151", "49.773832"])
    imported = import_zeros(ref)
    ours = zeros_120.ordinates[:10]
    assert np.max(np.abs(ours - imported.ordinates)) < 1e-5


@pytest.mark.parametrize("cut", [512.0, 2510.0])
def test_import_refuses_one_missing_ordinate(zeros_10k, cut):
    # the last three cases passed the median-of-S rule that decided
    # completeness before Turing's count
    full = zeros_10k.ordinates[zeros_10k.ordinates <= cut]
    assert import_zeros(export_zeros(ZeroSet(full, float(full[-1])))) \
        .claimed_complete
    n = len(full)
    for k in (0, n // 2, n - 4, n - 3, n - 2):
        holed = ZeroSet(np.delete(full, k), float(full[-1]))
        assert not import_zeros(export_zeros(holed)).claimed_complete, k


def test_narrow_scan_widens_to_its_windows(monkeypatch, zeros_1010):
    # with one Gram point of margin the first scan is too short for the
    # Turing windows, above and below t_max, so it must widen and still
    # certify the same sets
    from szeta import zeros as zmod
    monkeypatch.setattr(zmod, "_MARGIN", 1)
    assert np.array_equal(find_zeros(700.0).ordinates,
                          zeros_1010.up_to(700.0))
    g = zeros_1010.ordinates
    for n in range(330, len(g), 40):
        assert import_zeros(export_zeros(ZeroSet(g[:n], float(g[n - 1])))) \
            .claimed_complete, n


def test_import_above_the_range_is_not_certified(monkeypatch):
    # a set that ends above the supported range is imported uncertified,
    # with no Z evaluated near its top
    from szeta import zeros as zmod

    def refuse(t):
        raise AssertionError("Z evaluated")

    monkeypatch.setattr(zmod, "riemann_siegel_Z", refuse)
    for text in ("2e5\n", "1e300\n"):
        zs = import_zeros(text)
        assert len(zs) == 1 and not zs.claimed_complete
    # non-finite ordinates are refused before any certificate
    for text in ("14.1\n21.0\nnan\n", "inf\n", "nan\n"):
        with pytest.raises(DomainError):
            import_zeros(text)


def test_import_basic_and_t_max():
    zs = import_zeros("14.134725\n21.022040\n25.010858\n")
    assert len(zs) == 3
    assert zs.t_max == 25.010858
    assert zs.source == "imported"
    assert zs.claimed_complete


def test_import_errors_name_lines():
    with pytest.raises(ZerosParseError) as info:
        import_zeros("14.1\n13.9\n")
    assert info.value.line_number == 2
    with pytest.raises(ZerosParseError):
        import_zeros("")
    with pytest.raises(ZerosParseError) as info2:
        import_zeros("14.1\nbogus\n")
    assert info2.value.line_number == 2


# pieces of zeros text: decimals in the forms Python's float reads, words
# it does not, comments, blanks, and every line break str.splitlines knows
_TEXT_PIECES = ["14.1", "21.0", "21.0", "25.5", " 30 ", "+31.5", "1_2.5",
                "3.2e1", "nan", "inf", "-inf", "bogus", "1,5", "# c 9",
                "#", "", "  ", "\t", "\n", "\r\n", "\r", "\v", "\f",
                "\x1c", "\x85", "\u2028", "\n\n", "\r\n\n"]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(_TEXT_PIECES), max_size=30),
       st.integers(min_value=1, max_value=12))
def test_parse_in_blocks_reads_what_whole_lines_read(pieces, block):
    # blocks of a few characters, cut after any LF, list the same lines
    # as the whole text's splitlines: the same values, or the same first
    # refused line and message
    from szeta import zeros as zmod
    text = "".join(pieces)
    want = zeros_text_oracle(text)
    default, zmod._PARSE_BLOCK = zmod._PARSE_BLOCK, block
    try:
        got = zmod._parse_ordinates(text)
    except ZerosParseError as exc:
        if not want:
            assert exc.line_number == 0
        else:
            assert (exc.line_number, str(exc)) == want
        return
    finally:
        zmod._PARSE_BLOCK = default
    assert isinstance(want, list) and want
    assert np.array_equal(got, want, equal_nan=True)
    assert not got.flags.writeable


def test_import_line_numbers_past_the_first_block():
    # the line numbers of a refused line count the lines of every block
    # before it; CR LF endings included
    body = "".join(f"{20.0 + 0.5 * k!r}\r\n" for k in range(20000))
    for bad, line, what in (("bogus", 20002, "not a decimal"),
                            ("15.0", 20002, "not increasing")):
        text = "# head\r\n" + body + bad + "\r\n30000.0\r\n"
        with pytest.raises(ZerosParseError) as info:
            import_zeros(text)
        assert info.value.line_number == line and what in str(info.value)


def test_import_memory_is_the_array(zeros_120):
    # 1e5 ordinates: the parse adds the array (0.8 MB) and a block of
    # lines, 1.6 MiB at the peak; Python lists of every line and value
    # first peaked at 10.1 MiB here (tracemalloc traces NumPy's
    # allocations too)
    import tracemalloc
    g = 20.0 + 0.7 * np.arange(100000) + 0.1 * np.sin(np.arange(100000))
    text = export_zeros(ZeroSet(g, float(g[-1])))
    tracemalloc.start()
    try:
        zs = import_zeros(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(zs.ordinates, g)
    assert peak <= g.nbytes + 2 ** 21, peak


def test_export_import_roundtrip(zeros_120):
    again = import_zeros(export_zeros(zeros_120))
    assert np.array_equal(again.ordinates, zeros_120.ordinates)
    # export is byte-stable
    assert export_zeros(zeros_120) == export_zeros(again)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(min_value=1.01, max_value=1e4,
                          allow_nan=False), min_size=1, max_size=40))
def test_roundtrip_random_sets(vals):
    vals = sorted(set(round(v, 6) for v in vals))
    arr = np.array(vals)
    if len(arr) > 1 and (np.any(np.diff(arr) <= 0)
                         or np.any(np.diff(arr) >= 10)):
        return
    zs = ZeroSet(ordinates=arr, t_max=float(arr[-1]), source="imported")
    again = import_zeros(export_zeros(zs))
    assert np.array_equal(again.ordinates, zs.ordinates)


def test_zeroset_invariants():
    with pytest.raises(DomainError):
        ZeroSet(ordinates=np.array([14.0, 13.0]), t_max=20.0)
    with pytest.raises(DomainError):
        ZeroSet(ordinates=np.array([14.0, 25.0]), t_max=30.0)  # gap >= 10
    with pytest.raises(DomainError):
        ZeroSet(ordinates=np.array([0.5]), t_max=20.0)
    with pytest.raises(DomainError):
        ZeroSet(ordinates=np.array([14.0]), t_max=12.0)
    with pytest.raises(DomainError):
        ZeroSet(ordinates=np.array([14.0]), t_max=20.0, source="guessed")
    # NaN fails every comparison, so each test must pass only on numbers
    nan, inf = math.nan, math.inf
    for g, t_max in (([14.0, 21.0, nan], 21.0), ([14.0, nan, 21.0], 21.0),
                     ([nan], 20.0), ([inf], inf), ([14.0, inf], inf),
                     ([-inf, 14.0], 20.0), ([14.0], nan), ([14.0], inf)):
        with pytest.raises(DomainError):
            ZeroSet(ordinates=np.array(g), t_max=t_max)


def test_count_up_to_half_weight(zeros_120):
    g0 = float(zeros_120.ordinates[0])
    assert zeros_120.count_up_to(g0 - 1e-9) == 0
    assert zeros_120.count_up_to(g0) == 0.5
    assert zeros_120.count_up_to(g0 + 1e-9) == 1
    # one search, the ordinate found checked for equality, against the
    # weight from two searches: at, between, below and above the ordinates
    g = zeros_120.ordinates

    def two_searches(t):
        left = np.searchsorted(g, t, "left")
        return left + 0.5 * (np.searchsorted(g, t, "right") - left)

    mids = 0.5 * (g[:-1] + g[1:])
    t = np.concatenate(([1.5, g[0] - 1e-12], g, mids,
                        [g[-1] + 1e-12, zeros_120.t_max, 1e6]))
    np.random.default_rng(0).shuffle(t)
    got = zeros_120.count_up_to(t)
    assert np.array_equal(got, two_searches(t))
    assert got.dtype == np.float64
    for s in (1.5, g[0], mids[3], g[-1], 1e6):
        assert zeros_120.count_up_to(s) == two_searches(s)
    assert zeros_120.count_up_to(g[-1]) == len(g) - 0.5


def test_threads_give_same_result():
    a = find_zeros(80.0, threads=1)
    b = find_zeros(80.0, threads=3)
    assert np.array_equal(a.ordinates, b.ordinates)


@pytest.mark.parametrize("threads, want", [
    (None, 4), (10 ** 6, 4), (3, 3), (0, 1), (-3, 1)])
def test_find_zeros_workers_clamped_to_cores(threads, want, monkeypatch):
    # all cores when unset, else clamped to [1, cores] (4 here); the pool
    # is replaced by a recorder that raises, so no thread starts
    from szeta import zeros as zmod

    class Started(Exception):
        pass

    seen = []

    def pool(max_workers):
        seen.append(max_workers)
        raise Started

    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setattr(zmod, "ThreadPoolExecutor", pool)
    with pytest.raises(Started):
        find_zeros(20.0, threads=threads)
    assert seen == [want]


def test_threads_give_same_result_above_em_range():
    # above RS_MIN_T the scan and the bisection spread Riemann-Siegel
    # evaluations over the threads
    a = find_zeros(1200.0, threads=1)
    b = find_zeros(1200.0, threads=2)
    assert np.array_equal(a.ordinates, b.ordinates)


def test_persistent_deficit_raises_with_gap(monkeypatch):
    from szeta import zeros as zmod
    real = zmod.riemann_siegel_Z
    # Z > 0 on both sides of the zeros at 30.42 and 32.94; taking |Z|
    # between the midpoints of their outer gaps hides both sign changes
    # inside the Rosser block [g_2, g_4) = [27.67, 35.47)
    a, b = 27.72, 35.26

    def hidden(t):
        out = real(t)
        inside = (np.asarray(t) > a) & (np.asarray(t) < b)
        return np.where(inside, np.abs(out), out)

    monkeypatch.setattr(zmod, "riemann_siegel_Z", hidden)
    with pytest.raises(MissedZerosError) as info:
        zmod.find_zeros(40.0)
    lo, hi = info.value.gap
    assert lo == pytest.approx(gram_points(2), abs=1e-9)
    assert hi == pytest.approx(gram_points(4), abs=1e-9)
    assert lo < 30.42 < 32.94 < hi
