"""The block CSV formatter against Python's own '%.17g' and '%d'."""

import subprocess
import sys
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from cauchylab import _csvtext
from cauchylab.errors import DomainError


def _assert_g17(values):
    values = np.asarray(values, dtype=float)
    got = _csvtext.csv_block([values]).split("\n")[:-1]
    want = ["%.17g" % v for v in values.tolist()]
    assert len(got) == len(want)
    bad = [(w, g) for w, g in zip(want, got) if w != g]
    assert not bad, bad[:5]


def _powers_of_ten():
    return np.array([float(f"1e{k}") for k in range(-323, 309)])


def test_pow10_table_matches_fractions():
    hi, hh, hl, lo = _csvtext._POW10
    for j, e in enumerate(range(_csvtext._E_MIN - 1, _csvtext._E_MAX + 2)):
        exact = Fraction(10) ** (16 - e)
        assert hi[j] == float(exact)
        assert lo[j] == float(exact - Fraction(hi[j]))
    # the split of hi that the exact product needs: 26 leading bits and
    # an exact remainder of at most 27
    assert np.array_equal(hh + hl, hi)
    assert np.all(np.frexp(hh)[0] * 2.0 ** 26 % 1 == 0)
    assert np.all(np.frexp(hl)[0] * 2.0 ** 27 % 1 == 0)


def test_formatter_is_not_loaded_at_import():
    # its compile and its tables would add to every process's start
    code = ("import sys, cauchylab, cauchylab.cli; "
            "print('cauchylab._csvtext' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def test_g17_random_bit_patterns():
    rng = np.random.default_rng(20261019)
    bits = rng.integers(0, 2 ** 64, size=10 ** 6, dtype=np.uint64)
    subnormal = rng.integers(1, 2 ** 52, size=1000, dtype=np.uint64)
    special = np.array([np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324,
                        2.2250738585072009e-308, 2.2250738585072014e-308,
                        1.7976931348623157e308])
    _assert_g17(np.concatenate([bits.view(np.float64), subnormal.view(np.float64),
                                -subnormal.view(np.float64), special, -special]))


@pytest.mark.parametrize("scale", [1e-40, 1e-30, 1e-3, 1.0, 1e3, 1e30, 1e40])
def test_g17_normal_values_at_scales(scale):
    rng = np.random.default_rng(int(np.log10(scale)) + 100)
    _assert_g17(rng.standard_normal(20000) * scale)


def test_g17_powers_of_ten_and_neighbours():
    p = _powers_of_ten()
    _assert_g17(np.concatenate([p, np.nextafter(p, 0), np.nextafter(p, np.inf), -p]))


def test_g17_notation_switches_and_decade_carries():
    # fixed notation holds for -4 <= E < 17; a few ulps on each side of
    # both switches
    around = []
    for edge in (1e-4, 1e17):
        lo = hi = edge
        for _ in range(4):
            lo, hi = np.nextafter(lo, 0), np.nextafter(hi, np.inf)
            around += [lo, hi]
    # doubles below a power of ten whose 17 digits round up to it, so
    # their text is that of the next decade
    p = _powers_of_ten()
    carries = [x for k, x in zip(range(-323, 309), p)
               if Fraction(x) < Fraction(10) ** k
               and ("%.17g" % x).split("e")[0] == "1"]
    assert 1e-14 in carries
    values = np.array(around + carries + [9.99999999999999999e-5, 99999999999999999.0])
    _assert_g17(np.concatenate([values, -values]))


def test_exponent_guesses_one_off_are_corrected():
    # log10 gives the first guess of E; from a guess one off either way
    # the range test and the decade carry must land on the same D and E
    p = _powers_of_ten()
    rng = np.random.default_rng(17)
    a = np.concatenate([p, np.nextafter(p, 0), np.nextafter(p, np.inf),
                        np.abs(rng.standard_normal(5000)) * 10.0 ** rng.integers(-40, 40, 5000)])
    a = a[(a >= 10.0 ** _csvtext._E_MIN) & (a < 10.0 ** _csvtext._E_MAX)]
    d, e, undecided = _csvtext._scaled_digits(a, np.floor(np.log10(a)).astype(np.int64))
    a, d, e = a[~undecided], d[~undecided], e[~undecided]  # ties
    assert np.all((d >= 10 ** 16) & (d < 10 ** 17))
    for shift in (-1, 1):
        got = _csvtext._scaled_digits(a, e + shift)
        assert np.array_equal(got[0], d) and np.array_equal(got[1], e)
        assert not got[2].any()


def test_g17_large_integers():
    p = np.ldexp(1.0, np.arange(53, 64))
    rng = np.random.default_rng(53)
    ints = rng.integers(2 ** 53, 2 ** 63, size=5000).astype(float)
    values = np.concatenate([p, np.nextafter(p, 0), np.nextafter(p, np.inf), ints])
    _assert_g17(np.concatenate([values, -values]))


def _exact_ties():
    """Doubles whose exact decimal value has 18 significant digits ending
    in 5: N + j/2^m with N of 18 - m digits and j odd."""
    rng = np.random.default_rng(1311831073385388)
    ties = [1311831073385388.75]
    for m in range(2, 9):
        top = min(10 ** (18 - m), 2 ** (53 - m))
        for n in rng.integers(10 ** (17 - m), top, size=20).tolist():
            j = 2 * int(rng.integers(0, 2 ** (m - 1))) + 1
            ties.append((n * 2 ** m + j) / 2 ** m)
    for t in ties:
        digits = Decimal(t).as_tuple().digits
        assert len(digits) == 18 and digits[-1] == 5
    return np.array(ties + [-t for t in ties])


def test_g17_exact_ties_take_the_fallback():
    ties = _exact_ties()
    _, _, fallback = _csvtext._g17_digits(ties)
    assert fallback.all()
    _assert_g17(ties)


def test_int_columns_match_percent_d():
    n = 10000
    assert _csvtext.csv_block([np.arange(n)]) == "".join("%d\n" % i for i in range(n))
    rng = np.random.default_rng(63)
    big = np.concatenate([[0, 1, -1, 2 ** 63 - 1, -2 ** 63, 10 ** 18, -10 ** 18],
                          rng.integers(-2 ** 63, 2 ** 63 - 1, size=1000)])
    assert _csvtext.csv_block([big]) == "".join("%d\n" % i for i in big.tolist())


def test_rows_mix_literals_ints_and_floats():
    x = np.array([0.5, -0.0, np.nan, 1e300, 1311831073385388.75])
    got = _csvtext.csv_block(["a%s,", np.arange(5), ",", x, ",b"])
    assert got == "".join(f"a%s,{i},{'%.17g' % v},b\n" for i, v in enumerate(x))


@pytest.mark.parametrize("text", ["é,", "a\0b,"])
def test_literal_text_must_be_ascii_without_nul(text):
    with pytest.raises(DomainError):
        _csvtext.csv_block([text, np.arange(3)])
