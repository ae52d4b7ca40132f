"""Gamma-derivative coefficients, numeric transfer, and the exact series
oracle, each checked against an independent route."""

import decimal
import inspect
import math
import time
from fractions import Fraction
from itertools import accumulate

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from momentlab import (
    EULER_GAMMA,
    Model,
    ResourceLimitError,
    check_double_range,
    distribution_table,
    exact_coefficient,
    factorial_moment,
    gamma_recip_derivative,
    harmonic,
    highprec_coefficient,
    singular_expansion,
    transfer_term,
)
from momentlab.transfer import (
    MAX_DERIVATIVE_ORDER,
    ORACLE_MAX_N,
    _BERNOULLI,
    _DIGITS,
    _LOG_DOUBLE_MAX,
    _RANGE_MARGIN,
    _STIRLING_MIN_X,
    _decimal_polygamma,
    _log_gamma,
)
from momentlab import tables, transfer
from momentlab.moments import exact_moment, moment_series
from momentlab.tables import Model, _rising, _rising_rows

# mpmath is the tests' independent reference, at more digits than the
# program's _DIGITS = 82
REFERENCE_DPS = 100
# x = 1..130 around the shift to the Stirling series at _STIRLING_MIN_X, a
# log grid to 10^6, and the largest n the oracle tests probe
POLYGAMMA_GRID = (*range(1, 131), *(round(10 ** (e / 4)) for e in range(9, 25)), 2 * 10**77)

# Euler's constant and zeta(2..17) to 52 digits, as tabulated digit strings
# that share no arithmetic with the program or with mpmath
GAMMA_DIGITS = "0.5772156649015328606065120900824024310421593359399236"
ZETA_DIGITS = {
    2: "1.644934066848226436472415166646025189218949901206798",
    3: "1.202056903159594285399738161511449990764986292340499",
    4: "1.082323233711138191516003696541167902774750951918727",
    5: "1.036927755143369926331365486457034168057080919501913",
    6: "1.017343061984449139714517929790920527901817490032854",
    7: "1.008349277381922826839797549849796759599863560565239",
    8: "1.004077356197944339378685238508652465258960790649850",
    9: "1.002008392826082214417852769232412060485605851394889",
    10: "1.000994575127818085337145958900319017006019531564478",
    11: "1.000494188604119464558702282526469936468606435758209",
    12: "1.000246086553308048298637998047739670960416088458003",
    13: "1.000122713347578489146751836526357395714275105895510",
    14: "1.000061248135058704829258545105135333747481696169155",
    15: "1.000030588236307020493551728510645062587627948706858",
    16: "1.000015282259408651871732571487636722023237388990472",
    17: "1.000007637197637899762273600293563029213088249090263",
}

# The program's one route to psi^(i)(x) at integer x
POLYGAMMA_ROUTES = {"decimal": _decimal_polygamma}


def _mpf(value):
    """A Decimal of the program as an mpf at the reference precision."""
    with mp.workdps(REFERENCE_DPS):
        return mp.mpf(str(value))


def mpmath_recip_gamma_derivatives(alpha, top):
    """C_0..C_top at alpha from g' = -psi*g on ``mp.psi``, as mpf."""
    with mp.workdps(REFERENCE_DPS):
        psi = [mp.psi(i, alpha) for i in range(top)]
        g = [mp.mpf(1)]
        for m in range(top):
            g.append(-mp.fsum(math.comb(m, i) * psi[i] * g[m - i] for i in range(m + 1)))
    return g


def mpmath_oracle(alpha, beta, n):
    """The Newton identities of ``highprec_coefficient`` on ``mp.psi``."""
    with mp.workdps(REFERENCE_DPS):
        p = [None] + [
            (-1) ** (i - 1) * (mp.psi(i - 1, alpha + n) - mp.psi(i - 1, alpha)) / math.factorial(i - 1)
            for i in range(1, beta + 1)
        ]
        e = [mp.mpf(1)]
        for k in range(1, beta + 1):
            e.append(mp.fsum((-1) ** (i - 1) * p[i] * e[k - i] for i in range(1, k + 1)) / k)
        return math.comb(n + alpha - 1, n) * math.factorial(beta) * e[beta]


class TestEmbeddedConstants:
    """Euler's constant and zeta(2..17), as -psi(1) and
    psi^(k-1)(1) = (-1)^k (k-1)! zeta(k) of the decimal route, re-derived by
    direct series summation (Euler-Maclaurin tail corrections), plus an
    independent library check."""

    def test_gamma_by_series_summation(self):
        with mp.workdps(60):
            M = 2000
            h = mp.fsum(mp.mpf(1) / j for j in range(1, M + 1))
            est = h - mp.log(M) - mp.mpf(1) / (2 * M) + mp.mpf(1) / (12 * M**2) \
                - mp.mpf(1) / (120 * M**4)
            assert abs(est + _mpf(_decimal_polygamma(0, 1))) < mp.mpf(10) ** -20

    @pytest.mark.parametrize("k", range(2, MAX_DERIVATIVE_ORDER + 2))
    def test_zeta_by_series_summation(self, k):
        with mp.workdps(60):
            M = 2000
            partial = mp.fsum(mp.mpf(j) ** -k for j in range(1, M + 1))
            tail = (
                mp.mpf(M) ** (1 - k) / (k - 1)
                - mp.mpf(M) ** -k / 2
                + k * mp.mpf(M) ** (-k - 1) / 12
                - k * (k + 1) * (k + 2) * mp.mpf(M) ** (-k - 3) / 720
            )
            zeta = (-1) ** k * _mpf(_decimal_polygamma(k - 1, 1)) / mp.factorial(k - 1)
            assert abs(partial + tail - zeta) < mp.mpf(10) ** -15

    def test_against_mpmath(self):
        # psi(1) = -gamma and psi^(i)(1) = (-1)^(i+1) i! zeta(i+1), for every
        # order the oracle's beta cap reaches and one more
        with mp.workdps(REFERENCE_DPS):
            assert abs(_mpf(_decimal_polygamma(0, 1)) / -mp.euler - 1) < mp.mpf(10) ** -80
            for i in range(1, MAX_DERIVATIVE_ORDER + 1):
                expected = (-1) ** (i + 1) * mp.factorial(i) * mp.zeta(i + 1)
                assert abs(_mpf(_decimal_polygamma(i, 1)) / expected - 1) < mp.mpf(10) ** -80, i

    def test_euler_gamma_float(self):
        assert EULER_GAMMA == pytest.approx(0.5772156649015329, abs=1e-16)
        assert EULER_GAMMA == float(-_decimal_polygamma(0, 1))


class TestGammaRecipDerivative:
    def test_c0_is_one(self):
        for alpha in range(1, 9):
            assert gamma_recip_derivative(alpha, 0) == 1.0

    def test_c1_values(self):
        assert gamma_recip_derivative(1, 1) == pytest.approx(0.5772156649, abs=1e-10)
        assert gamma_recip_derivative(2, 1) == pytest.approx(-0.4227843351, abs=1e-10)

    def test_c1_is_gamma_minus_harmonic(self):
        for alpha in range(1, 12):
            expected = EULER_GAMMA - float(harmonic(alpha - 1))
            assert gamma_recip_derivative(alpha, 1) == pytest.approx(
                expected, rel=1e-13
            )

    @pytest.mark.parametrize("alpha", range(1, 6))
    @pytest.mark.parametrize("k", range(5))
    def test_against_numerical_differentiation(self, alpha, k):
        # high-precision finite differences of a direct 1/Gamma evaluation
        with mp.workdps(60):
            reference = mp.factorial(alpha - 1) * mp.diff(
                lambda x: 1 / mp.gamma(x), alpha, k
            )
        value = gamma_recip_derivative(alpha, k)
        assert value == pytest.approx(float(reference), rel=1e-8)

    @pytest.mark.parametrize("route", sorted(POLYGAMMA_ROUTES))
    def test_polygamma_against_embedded_zeta(self, route):
        # psi(1) = -gamma and psi^(i)(1) = (-1)^(i+1) i! zeta(i+1), from the
        # tabulated digits, for every order C_k up to the cap needs
        psi = POLYGAMMA_ROUTES[route]
        with mp.workdps(60):
            assert abs(_mpf(psi(0, 1)) + mp.mpf(GAMMA_DIGITS)) < mp.mpf(10) ** -50
            for i in range(1, MAX_DERIVATIVE_ORDER):
                expected = (-1) ** (i + 1) * mp.factorial(i) * mp.mpf(ZETA_DIGITS[i + 1])
                assert abs(_mpf(psi(i, 1)) / expected - 1) < mp.mpf(10) ** -50, i

    def test_polygamma_steps_by_reciprocal_powers(self):
        # psi^(i)(a + 1) - psi^(i)(a) = (-1)^i i! / a^(i+1), the terms the
        # shift to the Stirling series adds one at a time; the step costs
        # about log10(a) digits of the 82
        with mp.workdps(REFERENCE_DPS):
            for alpha in (1, 2, 3, 7, 30, _STIRLING_MIN_X - 1, _STIRLING_MIN_X, 1000, 3_000_000):
                for i in range(MAX_DERIVATIVE_ORDER):
                    step = _mpf(_decimal_polygamma(i, alpha + 1)) - _mpf(_decimal_polygamma(i, alpha))
                    expected = (-1) ** i * mp.factorial(i) / mp.mpf(alpha) ** (i + 1)
                    assert abs(step / expected - 1) < mp.mpf(10) ** -70, (i, alpha)

    def test_decimal_polygamma_against_mpmath(self):
        # to all 82 digits on both sides of _STIRLING_MIN_X: the shift's sum
        # has the sign of the series for i >= 1, and costs one digit at i = 0
        with mp.workdps(REFERENCE_DPS):
            for x in POLYGAMMA_GRID:
                for i in range(MAX_DERIVATIVE_ORDER):
                    value = _mpf(_decimal_polygamma(i, x))
                    assert abs(value / mp.psi(i, x) - 1) < mp.mpf(10) ** -80, (i, x)

    def test_log_gamma_against_mpmath(self):
        # ln (x-1)! up to _STIRLING_MIN_X, and the series with the constant
        # it takes from there on
        with mp.workdps(REFERENCE_DPS):
            for x in POLYGAMMA_GRID:
                reference = mp.loggamma(x)
                error = abs(_mpf(_log_gamma(x)) - reference)
                assert error <= mp.mpf(10) ** -80 * max(1, abs(reference)), x

    def test_bernoulli_table(self):
        # sum_(j<=m) C(m+1, j) B_j = 0 for m >= 1, from B_0 = 1
        b = [Fraction(1)]
        for m in range(1, 2 * len(_BERNOULLI) + 1):
            b.append(-sum(math.comb(m + 1, j) * b[j] for j in range(m)) / (m + 1))
        assert [Fraction(*entry) for entry in _BERNOULLI] == b[2::2]

    def test_stirling_series_is_long_enough(self):
        # the first omitted term of the series at the smallest y it is summed
        # at is far below the _DIGITS digits kept, for every polygamma order
        # C_k needs and for ln Gamma (i = -1)
        k, y = len(_BERNOULLI) + 1, _STIRLING_MIN_X
        with mp.workdps(REFERENCE_DPS):
            for i in range(-1, MAX_DERIVATIVE_ORDER):
                omitted = abs(mp.bernoulli(2 * k)) * mp.factorial(2 * k + i - 1) / (
                    mp.factorial(2 * k) * mp.mpf(y) ** (2 * k + i)
                )
                value = mp.loggamma(y) if i < 0 else mp.psi(i, y)
                assert omitted < abs(value) * mp.mpf(10) ** -(_DIGITS + 3), i

    @pytest.mark.parametrize(
        "alphas",
        [
            pytest.param(range(1, 201), id="1-200"),
            pytest.param(
                [m * 10**e for e in range(3, 9) for m in (1, 3)] + [10**9, 123_457, 99_999_989],
                id="1e3-1e9",
            ),
        ],
    )
    def test_decimal_and_mpmath_records_agree(self, alphas):
        # the double record rounds the decimal recurrence; the same recurrence
        # on mp.psi at 100 digits gives each double
        for alpha in alphas:
            reference = mpmath_recip_gamma_derivatives(alpha, MAX_DERIVATIVE_ORDER)
            for k in range(MAX_DERIVATIVE_ORDER + 1):
                assert gamma_recip_derivative(alpha, k) == float(reference[k]), (alpha, k)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            gamma_recip_derivative(0, 1)
        with pytest.raises(ValueError):
            gamma_recip_derivative(2, -1)


class TestTransferTerm:
    def test_geometric_series_is_exact(self):
        assert transfer_term(1, 0, 1000) == 1.0

    def test_beta_zero_is_leading_power_only(self):
        # the estimate is n^(alpha-1)/(alpha-1)!; the exact coefficient
        # C(n+alpha-1, alpha-1) is strictly larger for alpha >= 2
        assert transfer_term(2, 0, 10) == 10.0
        assert exact_coefficient(2, 0, 10) == 11

    def test_double_power_of_n_rounds_once(self):
        # n^(alpha-1) is an exact int that rounds once on the way to a double;
        # float(n) ** 2 would round twice and give 6.6513973236455675e+38
        assert transfer_term(3, 0, 3**41) == 6.651397323645567e+38
        # at alpha = 1 an n past the double range never becomes a double
        assert transfer_term(1, 1, 10**400) == 921.6112528625198

    @pytest.mark.parametrize("alpha, n", [(3_000_000, 10**9), (200, 10**6)])
    def test_double_range_refused_before_any_work(self, alpha, n):
        # n^(alpha-1) and the estimate are past the double range; unrefused,
        # the first case built a 2.7 x 10^7-digit integer for 48 s
        start = time.process_time()
        with pytest.raises(OverflowError, match=f"^alpha={alpha}, beta=0, n={n} does not fit doubles$"):
            transfer_term(alpha, 0, n)
        assert time.process_time() - start < 1

    @pytest.mark.parametrize("alpha, beta, n", [(171, 1, 1000), (170, 0, 67), (200, 1, 2), (200, 0, 2)])
    def test_estimate_that_fits_is_the_rounded_82_digit_one(self, alpha, beta, n):
        # n^(alpha-1) or (alpha-1)! passes the double range, the estimate does
        # not (at alpha = 200 it is subnormal): the 82-digit formula, rounded once
        start = time.process_time()
        value = transfer_term(alpha, beta, n)
        assert time.process_time() - start < 1
        assert value == float(transfer_term(alpha, beta, n, high_precision=True)) != 0

    def test_range_guard_changes_no_outcome(self, monkeypatch):
        # across the edge of the double range, and in its margin band, where
        # 67^169 passes it by less than _RANGE_MARGIN, each estimate gives the
        # same value or the same OverflowError with and without the double
        # record's bound on the integers it forms
        def outcome(alpha, n, beta):
            try:
                return "value", repr(transfer_term(alpha, beta, n))
            except OverflowError as exc:
                return "error", str(exc)

        grid = [
            (alpha, n, beta)
            for alpha in (2, 100, 170, 171, 200)
            for n in (2, 67, 1000, 10**6)
            for beta in (0, 1, 6)
        ]
        assert _LOG_DOUBLE_MAX < 169 * math.log(67) < _LOG_DOUBLE_MAX + _RANGE_MARGIN
        checked = [outcome(*key) for key in grid]
        assert {kind for kind, _ in checked} == {"value", "error"}
        assert checked[grid.index((200, 10**6, 0))] == ("error", "alpha=200, beta=0, n=1000000 does not fit doubles")
        monkeypatch.setattr(transfer, "_LOG_INT_MAX", math.inf)
        assert [outcome(*key) for key in grid] == checked

    def test_oracle_range_check_at_its_edge(self, monkeypatch):
        # the log of the oracle's lower bound C(alpha + n - 1, n) at beta = 0
        # crosses _LOG_DOUBLE_MAX + _RANGE_MARGIN between n = 308 and 309
        def log_bound(n):
            return math.lgamma(1000 + n) - math.lgamma(1000) - math.lgamma(n + 1)

        limit = _LOG_DOUBLE_MAX + _RANGE_MARGIN
        assert log_bound(308) < limit < log_bound(309) < limit + 1
        # below it the upper bound, here the same, asks the 82-digit oracle,
        # which refuses C(1307, 308) too; an oracle that fits lets it through
        with pytest.raises(OverflowError, match="^alpha=1000, beta=0, n=308 does not fit doubles$"):
            check_double_range(1000, 0, 308)
        monkeypatch.setattr(transfer, "highprec_coefficient", lambda *key: decimal.Decimal(1))
        assert check_double_range(1000, 0, 308) is None
        with pytest.raises(OverflowError, match="^alpha=1000, beta=0, n=309 does not fit doubles$"):
            check_double_range(1000, 0, 309)

    def test_oracle_range_check_skips_n_below_beta(self):
        # the oracle is exactly 0 for n < beta, where the bound's
        # lgamma(n - beta + 1) has no value; at beta = 0 this alpha and n are
        # refused
        assert check_double_range(10**400, 6, 5) is None
        with pytest.raises(OverflowError, match=f"^alpha={10**400}, beta=0, n=5 does not fit doubles$"):
            check_double_range(10**400, 0, 5)

    def test_oracle_range_check_between_its_bounds(self):
        # at (89, 6) the lower bound lies about 11.6 below ln of the double
        # range; the upper bound comes within its margin from n = 93543 on,
        # and there the 82-digit oracle decides
        with pytest.raises(OverflowError, match="^alpha=89, beta=6, n=93560 does not fit doubles$"):
            check_double_range(89, 6, 93560)
        assert check_double_range(89, 6, 93543) is None
        assert check_double_range(88, 6, 100000) is None

    def test_oracle_range_check_spares_the_82_digit_rounding(self, monkeypatch):
        # the least value whose double overflows, DBL_MAX + half an ulp: past
        # it by less than the 82-digit oracle's rounding, the exact oracle
        # decides; past it by more, the check refuses
        edge = 2**1024 - 2**970
        monkeypatch.setattr(transfer, "highprec_coefficient", lambda *key: decimal.Decimal(edge + edge // 10**75))
        assert check_double_range(89, 6, 93560) is None
        monkeypatch.setattr(transfer, "highprec_coefficient", lambda *key: decimal.Decimal(edge + edge // 10**65))
        with pytest.raises(OverflowError, match="^alpha=89, beta=6, n=93560 does not fit doubles$"):
            check_double_range(89, 6, 93560)

    @pytest.mark.parametrize(
        "alpha, beta, n, fits",
        [
            (2**133 + 2**80 - 1, 1, 5, True),  # the oracle is about 5.86e158
            (10**400, 1, 1, True),  # the oracle is 1
            (2**133, 1, 30, False),
            (10**400, 1, 2, False),
        ],
        ids=["2^133+2^80-1", "10^400-n1", "2^133-n30", "10^400-n2"],
    )
    def test_oracle_range_check_at_large_alpha(self, alpha, beta, n, fits):
        # from alpha = n on, lgamma(alpha + n) - lgamma(alpha) cancels in
        # doubles or cannot be formed; the check sums n ln alpha and the
        # log1p(j / alpha) instead, and agrees with the exact oracle
        oracle = exact_coefficient(alpha, beta, n)
        if fits:
            assert check_double_range(alpha, beta, n) is None
            assert math.isfinite(float(oracle))
        else:
            with pytest.raises(OverflowError, match=f"^alpha={alpha}, beta={beta}, n={n} does not fit doubles$"):
                check_double_range(alpha, beta, n)
            with pytest.raises(OverflowError):
                float(oracle)

    @pytest.mark.parametrize(
        "alpha, beta, n, message",
        [
            (2, 7, 50, "oracle budget is beta <= 6, got 7"),
            # the range bound refuses alpha = 1000 from n = 309 at beta = 0
            (1000, 7, 400, "oracle budget is beta <= 6, got 7"),
            (2, 1, 100_001, "exact oracle budget is n <= 100000, got 100001"),
        ],
    )
    def test_oracle_range_check_runs_the_budget_first(self, alpha, beta, n, message):
        # the exact oracle's whole cheap pre-check: its budget, then its range
        with pytest.raises(ResourceLimitError, match=f"^{message}$"):
            check_double_range(alpha, beta, n)

    def test_harmonic_estimate(self):
        expected = math.log(1000) + EULER_GAMMA
        assert transfer_term(1, 1, 1000) == pytest.approx(
            expected, rel=1e-15
        )
        assert abs(float(harmonic(1000)) - expected) == pytest.approx(
            1 / 2000, rel=1e-2
        )

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            transfer_term(1, 1, 1)
        with pytest.raises(ValueError, match="^order must be nonnegative, got -1$"):
            transfer_term(1, 1, 10, order=-1)

    def test_bracket_has_beta_plus_one_terms(self):
        full = transfer_term(2, 3, 50)
        assert transfer_term(2, 3, 50, order=3) == full
        assert transfer_term(2, 3, 50, order=17) == full  # (beta)_k kills k > beta
        truncations = [transfer_term(2, 3, 50, order=k) for k in range(4)]
        assert len(set(truncations)) == 4  # each bracket term contributes

    def test_leading_truncation(self):
        expected = 2.5 * 50**2 / 2 * math.log(50) ** 2
        assert 2.5 * transfer_term(3, 2, 50, order=0) == pytest.approx(expected, rel=1e-15)

    def test_high_precision_matches_float(self):
        hp = 3 * transfer_term(2, 2, 500, high_precision=True) / 2
        assert float(hp) == pytest.approx(1.5 * transfer_term(2, 2, 500), rel=1e-13)

    def test_high_precision_leading_factor(self):
        # 3015^5 / 5! lies exactly halfway between two doubles: below
        # _STIRLING_MIN_X the factorial is exact, so the estimate keeps the
        # value and rounds to the even double
        hp = transfer_term(6, 0, 3015, high_precision=True)
        assert Fraction(hp) == Fraction(3015**5, 120)
        assert float(hp) == 2076133787584453.0
        # above it the factorial is exp(ln Gamma), to about 80 digits
        hp = transfer_term(200, 0, 3015, high_precision=True)
        assert abs(Fraction(hp) / Fraction(3015**199, math.factorial(199)) - 1) < Fraction(1, 10**75)

    @pytest.mark.parametrize("alpha", [1, 2, 3, 4])
    def test_beta_zero_ratio_to_exact(self, alpha):
        # relative error <= alpha^2/n for n >= 10*alpha
        for n in (10 * alpha, 40 * alpha, 400):
            estimate = transfer_term(alpha, 0, n)
            exact = math.comb(n + alpha - 1, alpha - 1)
            assert abs(estimate - exact) / exact <= alpha**2 / n

    def test_harmonic_term_at_ten_thousand(self):
        estimate = transfer_term(1, 1, 10**4)
        assert estimate == pytest.approx(math.log(10**4) + EULER_GAMMA, rel=1e-15)
        exact = highprec_coefficient(1, 1, 10**4)
        assert abs(estimate - float(exact)) < 1 / 10**4


class TestOneInterface:
    """The estimate, both oracles and the exact oracle's pre-check take
    (alpha, beta, n), and one check refuses alpha and beta for all of them."""

    FUNCTIONS = [transfer_term, exact_coefficient, highprec_coefficient, check_double_range]

    @pytest.mark.parametrize("function", FUNCTIONS)
    def test_takes_alpha_beta_n(self, function):
        positional = [
            name for name, p in inspect.signature(function).parameters.items()
            if p.kind is p.POSITIONAL_OR_KEYWORD
        ]
        assert positional == ["alpha", "beta", "n"]

    def test_estimate_options_are_keywords(self):
        parameters = inspect.signature(transfer_term).parameters
        assert [(name, p.kind, p.default) for name, p in parameters.items()][3:] == [
            ("order", inspect.Parameter.KEYWORD_ONLY, None),
            ("high_precision", inspect.Parameter.KEYWORD_ONLY, False),
        ]
        assert transfer_term(alpha=1, beta=1, n=1000) == transfer_term(1, 1, 1000)

    @pytest.mark.parametrize("function", FUNCTIONS)
    @pytest.mark.parametrize(
        "alpha, beta, message",
        [(0, 1, "alpha must be a positive integer, got 0"), (1, -1, "beta must be nonnegative, got -1")],
    )
    def test_rejects_alpha_and_beta_alike(self, function, alpha, beta, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            function(alpha, beta, 10)


class TestSingularExpansionInvariants:
    """The leading terms of ``singular_expansion`` are the largest (alpha, beta)
    terms of f_s, in strictly decreasing order, and every other term of f_s
    (the exact remainder) lies strictly below the last of them."""

    CASES = [(model, s) for model in Model for s in range(1, 8)]

    def test_terms_must_decrease(self):
        for model, s in self.CASES:
            keys = list(singular_expansion(model, s)[0])
            assert keys == sorted(set(keys), reverse=True), (model, s)
            assert len(keys) == (1 if model is Model.CYCLES else 2), (model, s)

    def test_terms_must_dominate_remainder(self):
        for model, s in self.CASES:
            series, d = moment_series(model, s)
            terms, d_terms = singular_expansion(model, s)
            rest = set(series) - set(terms)
            assert all(key < min(terms) for key in rest), (model, s)
            # the leading terms are f_s's own, nonzero, over f_s's denominator,
            # and f_s is them plus the rest
            assert d_terms == d
            for key, c in terms.items():
                assert c != 0 and c == series[key]
            assert len(rest) + len(terms) == len(series)


def convolution_series(alpha: int, beta: int, n: int) -> list[Fraction]:
    """Coefficients 0..n of (1-u)^(-alpha) log(1/(1-u))^beta from the series
    themselves: beta exact convolutions with sum_m u^m/m, then alpha running
    prefix sums (the geometric series)."""
    log = [Fraction(0)] + [Fraction(1, m) for m in range(1, n + 1)]
    series = [Fraction(1)] + [Fraction(0)] * n
    for _ in range(beta):
        series = [sum((series[i] * log[m - i] for i in range(m)), Fraction(0)) for m in range(n + 1)]
    for _ in range(alpha):
        series = list(accumulate(series))
    return series


# the most factors a node of the product tree multiplies by the loop at top = 6
_LEAF_6 = max(tables._RISING_LEAF, tables._RISING_LEAF_PER_TOP2 * 6 * 6)


def check_rising(length, tops):
    """``_rising_rows`` and ``_rising`` against (lo + t)...(hi - 1 + t)
    multiplied out term by term, for lo in 0, 1, 2, 7 and each top."""
    for lo in (0, 1, 2, 7):
        hi = lo + length
        prefixes = [[1]]
        for a in range(lo, hi):  # times a + t, truncated at the largest top
            poly = prefixes[-1]
            poly = [x + y for x, y in zip([a * c for c in poly] + [0], [0] + poly)]
            prefixes.append(poly[: max(tops) + 1])
        for top in tops:
            expected = [poly[: top + 1] for poly in prefixes]
            assert list(_rising_rows(lo, hi, top)) == expected, (lo, hi, top)
            assert _rising(lo, hi, top) == expected[-1], (lo, hi, top)


class TestRisingProduct:
    """``tables._rising``, the product tree, and ``tables._rising_rows``, the
    sequential loop, behind cycles rows, cycles moments and ``exact_coefficient``."""

    @pytest.mark.parametrize("length", [0, 1, 5, 31, 32, 33, 64, 65, 150])
    def test_tree_and_sequential_agree(self, length):
        # around the 32-factor leaf at small top, and top at or past the degree
        check_rising(length, sorted({0, 1, 6, 40, max(length - 1, 0), length, length + 1, 200}))

    @pytest.mark.parametrize("length", [_LEAF_6 - 1, _LEAF_6, _LEAF_6 + 1, 2 * _LEAF_6 + 1])
    def test_around_the_top_squared_leaf(self, length):
        check_rising(length, [6])

    @pytest.mark.parametrize(
        "top, length, nodes",
        [
            (1, 32, 1), (1, 33, 3), (1, 65, 5),
            (6, _LEAF_6, 1), (6, _LEAF_6 + 1, 3), (6, 2 * _LEAF_6 + 1, 5),
            (40, 40, 1), (40, 200, 1),
        ],
    )
    def test_split_rule(self, monkeypatch, top, length, nodes):
        # a node splits only while it holds more than max(32, c top^2) factors
        calls = []
        original = tables._rising

        def counted(lo, hi, top):
            calls.append(hi - lo)
            return original(lo, hi, top)

        monkeypatch.setattr(tables, "_rising", counted)
        tables._rising(3, 3 + length, top)
        assert len(calls) == nodes, calls


class TestExactCoefficient:
    @pytest.mark.parametrize("alpha", [1, 2, 3, 4])
    @pytest.mark.parametrize("beta", range(7))
    def test_matches_series_convolution(self, alpha, beta):
        series = convolution_series(alpha, beta, 60)
        assert [exact_coefficient(alpha, beta, n) for n in range(61)] == series

    @pytest.mark.parametrize("m", [1, 2, 5, 6, 7, 31, 32, 33, 64, 65, 150, 401])
    def test_log_power_coefficients_are_stirling_numbers(self, m):
        # [u^m] log(1/(1-u))^beta = beta! |s(m, beta)| / m!, and |s(m, beta)|
        # counts the permutations of m with beta cycles; the factor 1/(1-u)
        # makes exact_coefficient(1, beta, .) the running sum of these
        counts = distribution_table(Model.CYCLES, m).counts
        for beta in range(7):
            stirling = counts[beta] if beta <= m else 0
            expected = Fraction(math.factorial(beta) * stirling, math.factorial(m))
            assert exact_coefficient(1, beta, m) - exact_coefficient(1, beta, m - 1) == expected

    @settings(max_examples=150, deadline=None)
    @given(
        alpha=st.integers(1, 10),
        beta=st.integers(0, 6),
        n=st.one_of(st.integers(0, 8), st.integers(0, 700)),
    )
    @example(alpha=1, beta=0, n=0)
    @example(alpha=10, beta=6, n=0)
    @example(alpha=1, beta=6, n=5)
    @example(alpha=3, beta=4, n=1)
    @example(alpha=1, beta=6, n=6)
    @example(alpha=10, beta=6, n=6)
    @example(alpha=2, beta=3, n=3)
    def test_highprec_matches_exact(self, alpha, beta, n):
        exact = exact_coefficient(alpha, beta, n)
        hp = highprec_coefficient(alpha, beta, n)
        if n < beta:
            assert exact == 0
            assert hp == 0
            return
        assert abs(Fraction(hp) - exact) <= exact / 2**200

    def test_log_times_geometric_gives_harmonic(self):
        assert exact_coefficient(1, 1, 3) == Fraction(11, 6)

    def test_binomial_series(self):
        assert exact_coefficient(2, 0, 7) == 8
        for n in (0, 1, 5, 12):
            assert exact_coefficient(3, 0, n) == math.comb(n + 2, 2)

    def test_log_squared_times_geometric_at_two(self):
        # log^2(1/(1-u)) = u^2 + u^3 + ...; the geometric factor prefix-sums,
        # so [u^2] is exactly 1.  Independently: it equals the second
        # factorial moment of the cycle distribution at n = 2.
        assert exact_coefficient(1, 2, 2) == 1
        assert factorial_moment(distribution_table(Model.CYCLES, 2), 2) == 1

    def test_matches_harmonic_prefix(self):
        for n in (1, 10, 37):
            assert exact_coefficient(1, 1, n) == harmonic(n)

    def test_higher_beta_against_highprec(self):
        for alpha in (1, 2, 3):
            for beta in (0, 1, 2, 3, 4):
                for n in (17, 150):
                    exact = exact_coefficient(alpha, beta, n)
                    hp = highprec_coefficient(alpha, beta, n)
                    assert abs(Fraction(hp) - exact) < max(1, abs(exact)) / 2**180

    def test_argument_guards(self):
        # the budgets are rows of tools/limits.py
        with pytest.raises(ValueError):
            exact_coefficient(0, 1, 10)
        with pytest.raises(ValueError, match="^beta must be nonnegative, got -1$"):
            exact_coefficient(1, -1, 10)
        with pytest.raises(ValueError, match="^n must be nonnegative, got -1$"):
            exact_coefficient(1, 1, -1)
        with pytest.raises(ValueError):
            highprec_coefficient(0, 1, 10)
        assert highprec_coefficient(1, MAX_DERIVATIVE_ORDER, MAX_DERIVATIVE_ORDER - 1) == 0

    @pytest.mark.parametrize("n", [201, 1000, 4000])
    @pytest.mark.parametrize("s", [7, MAX_DERIVATIVE_ORDER])
    def test_polygamma_oracles_past_the_exact_budget(self, n, s):
        # beta past the exact oracle's 6, checked against the cycles moment
        # of the truncated rising product, which is the same coefficient
        exact, _ = exact_moment(Model.CYCLES, n, s)
        hp = highprec_coefficient(1, s, n)
        assert abs(Fraction(hp) - exact) <= exact / 2**240
        assert float(hp) == float(exact)

    def test_double_oracle_is_the_rounded_highprec_oracle(self):
        # the double-precision compare rounds the oracle to a double; the
        # same identities on mp.psi at 100 digits give each double
        grid = [201, 202, 1000, 4567, 65_432, 100_001, 3 * 10**6, 2**40 + 3]
        grid += [10**e + 7 for e in range(15, 78, 8)] + [2 * 10**77]
        for n in grid:
            for s in range(1, MAX_DERIVATIVE_ORDER + 1):
                assert float(highprec_coefficient(1, s, n)) == float(mpmath_oracle(1, s, n)), (n, s)

    def test_highprec_has_no_n_budget(self):
        # its cost does not grow with n, so only the exact oracle caps n
        n = ORACLE_MAX_N + 1
        hp = highprec_coefficient(1, 1, n)
        exact = harmonic(n)
        assert abs(Fraction(hp) - exact) <= exact / 2**200

    @pytest.mark.parametrize("alpha", [1, 2, 3])
    @pytest.mark.parametrize("beta", [0, 1, 2, 3])
    def test_transfer_improves_with_n(self, alpha, beta):
        errs = []
        for n in (100, 400):
            exact = float(exact_coefficient(alpha, beta, n))
            errs.append(abs(transfer_term(alpha, beta, n) - exact) / exact)
        assert errs[1] <= 0.05
        if errs[0] == errs[1] == 0.0:
            assert alpha == 1 and beta == 0  # the one exactly-transferred case
        else:
            assert errs[1] < errs[0]
