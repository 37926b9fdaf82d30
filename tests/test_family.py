"""Frailty family: branch classification, Laplace transform, moments."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from addamsfrailty import (
    AddamsParameters,
    classify_branch,
    conditional_moments,
    laplace,
    laplace_derivative,
    log_laplace,
    rfv,
    support_and_pmf,
    support_value,
)
from addamsfrailty.errors import (
    ContinuousBranch,
    InvalidBinomial,
    InvalidParameters,
    OutOfSupport,
)
from addamsfrailty.family import (
    _NO_ROOT_TAIL,
    BranchKind,
    _count_law,
    _log_laplace_inverse,
    log_laplace_partials,
    log_laplace_second_partials,
)

from conftest import random_triples
from oracles import (
    count_distribution,
    mp_log_laplace,
    mp_log_laplace_partials,
    mp_log_laplace_second_partials,
    naive_laplace_longdouble,
    quad_laplace,
    separate_log_laplace_partials,
    series_laplace,
)

# L(s) values recomputed by series/quadrature oracles and frozen
FROZEN_LAPLACE = [
    (-0.502, 83.447, 1.0, 0.7, 0.9504249619750613),
    (-2.882, 90.996, 0.328, 1.3, 0.954427267960633),
    (1.5, 4.0, 0.9, 0.8, 0.7431158519597385),
    (2.0, 2.0, 1.0, 1.1, 0.6410816693988093),
    (4.5, 4.0, 0.7, 0.6, 0.8202465633679883),
    (0.0, 5.0, 1.2, 0.9, 0.6898648307138834),
]


class TestClassification:
    def test_branch_kinds(self):
        assert classify_branch(AddamsParameters(-1.0, 2.0)).kind \
            is BranchKind.SHIFTED_SCALED_NEG_BINOMIAL
        assert classify_branch(AddamsParameters(0.0, 2.0)).kind is BranchKind.GAMMA_LIMIT
        assert classify_branch(AddamsParameters(1.0, 2.0)).kind \
            is BranchKind.SCALED_NEG_BINOMIAL
        assert classify_branch(AddamsParameters(2.0, 2.0)).kind is BranchKind.SCALED_POISSON
        assert classify_branch(AddamsParameters(2.5, 2.0)).kind is BranchKind.SCALED_BINOMIAL

    @pytest.mark.parametrize("params, shift, n_support", [
        (AddamsParameters(-1.0, 3.0, 2.0), 0.25, math.inf),    # shifted: nu
        (AddamsParameters(0.0, 2.0), 0.0, math.inf),           # gamma limit
        (AddamsParameters(1.0, 2.0), 0.0, math.inf),
        (AddamsParameters(2.0, 2.0), 0.0, math.inf),
        (AddamsParameters(2.5, 2.0), 0.0, 3),                  # binomial: b + 1
        (AddamsParameters(2.25, 2.0), 0.0, 5),
    ])
    def test_support_facts(self, params, shift, n_support):
        branch = classify_branch(params)
        assert (branch.shift, branch.n_support) == (shift, n_support)
        if branch.is_discrete and n_support < math.inf:
            assert support_value(branch, n_support) == branch.psi * (n_support - 1)

    def test_derived_parameters_negative_branch(self):
        branch = classify_branch(AddamsParameters(-1.0, 3.0, 2.0))
        assert branch.psi == pytest.approx(2.0)
        assert branch.nu == pytest.approx(0.25)
        assert branch.pi == pytest.approx(0.25)
        assert not branch.has_cure_fraction

    def test_cure_fraction_iff_alpha_positive(self):
        assert classify_branch(AddamsParameters(0.5, 2.0)).has_cure_fraction
        assert not classify_branch(AddamsParameters(-0.5, 2.0)).has_cure_fraction
        assert not classify_branch(AddamsParameters(0.0, 2.0)).has_cure_fraction
        # gamma / alpha overflows: the gamma limit, whatever the sign
        assert not classify_branch(AddamsParameters(5e-324, 2.0)).has_cure_fraction

    def test_binomial_needs_integer_trials(self):
        classify_branch(AddamsParameters(2.5, 2.0))   # b = 2, fine
        with pytest.raises(InvalidBinomial):
            AddamsParameters(2.7, 2.0)

    def test_invalid_scalars(self):
        with pytest.raises(InvalidParameters):
            AddamsParameters(0.0, -1.0)
        with pytest.raises(InvalidParameters):
            AddamsParameters(0.0, 1.0, mu=0.0)
        with pytest.raises(InvalidParameters):
            AddamsParameters(math.nan, 1.0)


class TestLaplace:
    @pytest.mark.parametrize("alpha,gamma,mu,s,expected", FROZEN_LAPLACE)
    def test_frozen_oracle_values(self, alpha, gamma, mu, s, expected):
        p = AddamsParameters(alpha, gamma, mu)
        assert laplace(p, s) == pytest.approx(expected, rel=1e-10)

    def test_at_zero_is_exactly_one(self, rng):
        for branch in ("negative", "zero", "interior", "poisson", "binomial"):
            for alpha, gamma, mu in random_triples(rng, branch, 20):
                assert laplace(AddamsParameters(alpha, gamma, mu), 0.0) == 1.0

    def test_moment_identities(self, rng):
        # -L'(0) = mu and L''(0) = mu^2 (1 + gamma)
        for branch in ("negative", "zero", "interior", "poisson", "binomial"):
            for alpha, gamma, mu in random_triples(rng, branch, 100):
                p = AddamsParameters(alpha, gamma, mu)
                assert -laplace_derivative(p, 0.0) == pytest.approx(mu, abs=1e-10)
                second = laplace_derivative(p, 0.0, order=2)
                assert (second - mu * mu) / (mu * mu) == pytest.approx(gamma, rel=1e-8)

    def test_series_oracle_negative_branch(self, rng):
        for alpha, gamma, mu in random_triples(rng, "negative", 15):
            for s in (0.1, 1.0, 4.0):
                expected = series_laplace(alpha, gamma, mu, s)
                got = laplace(AddamsParameters(alpha, gamma, mu), s)
                assert got == pytest.approx(expected, rel=1e-9)

    def test_series_oracle_upper_branches(self, rng):
        for branch in ("interior", "poisson", "binomial"):
            for alpha, gamma, mu in random_triples(rng, branch, 8):
                for s in (0.3, 2.0):
                    expected = series_laplace(alpha, gamma, mu, s)
                    got = laplace(AddamsParameters(alpha, gamma, mu), s)
                    assert got == pytest.approx(expected, rel=1e-9)

    def test_quadrature_oracle_gamma_limit(self, rng):
        for _, gamma, mu in random_triples(rng, "zero", 10):
            for s in (0.2, 1.5):
                expected = quad_laplace(gamma, mu, s)
                got = laplace(AddamsParameters(0.0, gamma, mu), s)
                assert got == pytest.approx(expected, rel=1e-8)

    def test_continuity_across_alpha_zero(self):
        for gamma, mu, s in [(2.0, 1.0, 0.8), (7.5, 0.4, 2.0), (0.3, 2.5, 1.1)]:
            at_zero = log_laplace(AddamsParameters(0.0, gamma, mu), s)
            below = log_laplace(AddamsParameters(-1e-7, gamma, mu), s)
            above = log_laplace(AddamsParameters(1e-7, gamma, mu), s)
            assert below == pytest.approx(at_zero, abs=1e-5)
            assert above == pytest.approx(at_zero, abs=1e-5)

    def test_continuity_across_alpha_gamma(self):
        for gamma, mu, s in [(2.0, 1.0, 0.8), (7.5, 0.4, 2.0), (0.3, 2.5, 1.1)]:
            at_gamma = log_laplace(AddamsParameters(gamma, gamma, mu), s)
            below = log_laplace(AddamsParameters(gamma * (1 - 1e-7), gamma, mu), s)
            assert below == pytest.approx(at_gamma, abs=1e-5)

    def test_guard_matches_high_precision_closed_form(self):
        # near both removable singularities the closed form must agree
        # with the naive closed form evaluated in extended precision
        gamma, mu, s = 3.0, 1.0, 1.2
        for alpha in (1e-8, -1e-8, 5e-7, -5e-7):
            guarded = log_laplace(AddamsParameters(alpha, gamma, mu), s)
            expected = naive_laplace_longdouble(alpha, gamma, mu, s)
            assert guarded == pytest.approx(expected, rel=1e-8)
        for eps in (1e-8, 1e-7):
            alpha = gamma * (1.0 - eps)
            guarded = log_laplace(AddamsParameters(alpha, gamma, mu), s)
            expected = naive_laplace_longdouble(alpha, gamma, mu, s)
            assert guarded == pytest.approx(expected, rel=1e-6)

    @pytest.mark.parametrize("alpha", [1e-7, 4e-7, 9e-7, -1e-7, -4e-7, -9e-7])
    def test_alpha_zero_band_at_large_hazards(self, alpha):
        # the closed form serves alpha near 0 at every hazard; an expansion
        # in alpha once served here and gave log L = -1.13 for -3.27 at
        # (4e-7, 5, 0.7) and s = 1e8, and +1.7e42 at (1e-7, 3, 1) and s = 1e50
        for gamma in (0.5, 3.0, 5.0):
            p = AddamsParameters(alpha, gamma, 0.7)
            s = np.logspace(-300, 300, 601)
            expected = [mp_log_laplace(alpha, gamma, 0.7, v) for v in s]
            np.testing.assert_allclose(log_laplace(p, s), expected, rtol=1e-14, atol=0.0)
            values = log_laplace(p, np.logspace(-3, 300, 607))
            assert np.all(values <= 0.0)
            assert np.all(np.diff(values) <= 0.0)

    @pytest.mark.parametrize("alpha", [1e-100, -1e-100, 1e-300, 1e-310, -1e-310,
                                       5e-324, -5e-324])
    def test_tiny_and_subnormal_alpha(self, alpha):
        # where gamma / alpha overflows the gamma limit serves, within
        # |alpha| mu s of the law; an expansion in alpha once served here
        # and gave NaN at alpha = 1e-300 and -inf at 1e-100 for s = 1e77
        s = np.concatenate([[0.0], np.logspace(-300, 300, 601)])
        x = abs(alpha) * 0.7 * s
        for gamma in (0.5, 3.0, 20.0):
            values = log_laplace(AddamsParameters(alpha, gamma, 0.7), s)
            assert np.all(np.isfinite(values)) and np.all(values <= 0.0)
            assert np.all(np.diff(values) <= 0.0)
            expected = np.array([mp_log_laplace(alpha, gamma, 0.7, v) for v in s])
            if math.isinf(gamma / alpha):
                rtol, checked = x + 1e-14, s > 0.0
            else:
                rtol, checked = 1e-14, x >= np.finfo(float).tiny
            error = np.abs(values - expected)[checked]
            assert np.all(error <= (rtol * np.abs(expected))[checked]), (gamma, error.max())

    @pytest.mark.parametrize("gamma", [0.1, 0.5, 3.0, 10.0])
    def test_positive_alpha_matches_50_digit_closed_form(self, gamma):
        # alpha just below gamma, scaled binomial alpha = gamma + 1/b and
        # small alpha / gamma: the closed form loses no digits at either end
        # (a first-order expansion near alpha = gamma once lost 7-8 digits
        # just outside its band)
        alphas = [gamma - d for d in np.logspace(-3, -12, 10)]
        alphas += [gamma + 1.0 / b for b in (1, 2, 7, 100, 10**4, 10**6)]
        alphas += [gamma * f for f in (1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 0.9)]
        s = np.logspace(-6, 6, 25)
        for alpha in alphas:
            expected = [mp_log_laplace(alpha, gamma, 0.7, v) for v in s]
            got = log_laplace(AddamsParameters(alpha, gamma, 0.7), s)
            np.testing.assert_allclose(got, expected, rtol=1e-14, atol=0.0,
                                       err_msg=f"alpha={alpha!r}")

    @pytest.mark.parametrize("alpha,gamma", [
        (-0.125, 0.5), (-1.0, 5.0), (-0.25, 10.0), (-1e-4, 20.0), (-3.0, 0.2), (-10.0, 0.05),
    ])
    def test_negative_alpha_matches_50_digit_closed_form(self, alpha, gamma):
        # a log-space form log(c1) - x + log1p(r e^x) cancels to about
        # eps * (1 - gamma/alpha) in log A at small s: it once gave
        # L(5.6e-285) = 1 + 4e-16 at (-0.125, 0.5, 1) and a 5.6e-7 relative
        # error at (-1e-4, 20, 0.7), s = 1e-6
        s = np.logspace(-300, 3, 304)
        expected = [mp_log_laplace(alpha, gamma, 0.7, v) for v in s]
        got = log_laplace(AddamsParameters(alpha, gamma, 0.7), s)
        np.testing.assert_allclose(got, expected, rtol=1e-14, atol=0.0)
        assert laplace(AddamsParameters(alpha, gamma, 1.0), 5.617851874506707e-285) <= 1.0

    @pytest.mark.parametrize("gamma", [0.5, 3.0, 20.0])
    def test_alpha_just_below_gamma_at_tiny_hazards(self, gamma):
        # the correction ((alpha - gamma)/alpha) expm1(-x) is subnormal at
        # s = 1e-300 and alpha = gamma (1 - 1e-12); divided by alpha - gamma
        # it once gave 6.5e-12 relative at gamma = 0.5
        s = np.logspace(-300, 3, 304)
        for k in range(6, 15):
            alpha = gamma * (1.0 - 10.0 ** -k)
            expected = [mp_log_laplace(alpha, gamma, 0.7, v) for v in s]
            got = log_laplace(AddamsParameters(alpha, gamma, 0.7), s)
            np.testing.assert_allclose(got, expected, rtol=1e-14, atol=0.0,
                                       err_msg=f"alpha={alpha!r}")

    def test_large_argument_no_overflow(self):
        p = AddamsParameters(-3.0, 5.0, 1.0)
        value = log_laplace(p, 1e4)
        assert math.isfinite(value) and value < -100
        assert laplace(p, 1e4) >= 0.0

    def test_array_and_scalar_agree(self):
        p = AddamsParameters(-0.7, 2.0, 1.3)
        s = np.array([0.0, 0.5, 2.0, 10.0])
        vec = log_laplace(p, s)
        assert vec.shape == s.shape
        for i, si in enumerate(s):
            assert vec[i] == log_laplace(p, float(si))

    def test_rejects_negative_argument(self):
        with pytest.raises(InvalidParameters):
            log_laplace(AddamsParameters(-1.0, 2.0), -0.1)

    @settings(max_examples=200, deadline=None)
    @given(
        alpha=st.floats(-10.0, 15.0),
        gamma=st.floats(0.05, 20.0),
        mu=st.floats(0.1, 4.0),
        s=st.floats(0.0, 50.0),
    )
    def test_transform_bounded_and_decreasing(self, alpha, gamma, mu, s):
        try:
            p = AddamsParameters(alpha, gamma, mu)
        except (InvalidBinomial, InvalidParameters):
            return
        value = laplace(p, s)
        assert 0.0 <= value <= 1.0
        assert laplace(p, s + 1.0) <= value + 1e-12


# (alpha, gamma, mu) on every branch: the gamma limit, alpha < 0, the
# interior negative binomial, the Poisson and binomial pins, a tiny alpha
# and alpha 1e-10 relative below gamma
INVERSE_CASES = [
    (0.0, 2.0, 1.3), (-1.0, 5.0, 0.7), (-50.0, 0.01, 3.0), (0.5, 1.0, 1.4), (0.3, 4.0, 0.6),
    (1.0, 1.0, 1.0), (2.0, 2.0, 0.5), (1.5, 1.0, 1.0), (2.0 + 1.0 / 3, 2.0, 0.8),
    (1e-300, 1.0, 1.0), (1.0 - 1e-10, 1.0, 1.0), (3.0 * (1.0 - 1e-10), 3.0, 0.9),
]


def cure_plateau(alpha, gamma):
    """log L(inf): finite on the cure branches (alpha > 0), -inf elsewhere."""
    if alpha <= 0.0:
        return -math.inf
    if alpha == gamma:
        return -1.0 / gamma
    return math.log(gamma / alpha) / (alpha - gamma)


class TestLaplaceInverse:
    """``_log_laplace_inverse`` gives the s at which log L(s) = y."""

    @pytest.mark.parametrize("alpha,gamma,mu", INVERSE_CASES)
    def test_round_trip(self, alpha, gamma, mu):
        p = AddamsParameters(alpha, gamma, mu)
        # the forward transform keeps its digits for alpha mu s above the
        # least normal float, which y down to -1e-8 gives at alpha = 1e-300
        ys = [y for y in -np.logspace(-8, 2, 41) if y > cure_plateau(alpha, gamma)]
        assert len(ys) > 10
        for y in ys:
            s = _log_laplace_inverse(p, y)
            assert log_laplace(p, s) == pytest.approx(y, rel=1e-12, abs=0.0)

    @settings(max_examples=300, deadline=None)
    @given(case=st.sampled_from(INVERSE_CASES), log10_y=st.floats(-8.0, 2.5))
    def test_round_trip_property(self, case, log10_y):
        p = AddamsParameters(*case)
        y = -10.0 ** log10_y
        plateau = cure_plateau(p.alpha, p.gamma)
        assume(abs(y - plateau) > 1e-9 * abs(y))     # the edge, up to rounding
        s = _log_laplace_inverse(p, y)
        if y > plateau:
            assert 0.0 < s < math.inf
            assert log_laplace(p, s) == pytest.approx(y, rel=1e-12, abs=0.0)
        else:
            assert s == -math.log(_NO_ROOT_TAIL) / (p.alpha * p.mu)

    @pytest.mark.parametrize("alpha,gamma,y", [
        (0.5, 1.0, -2.0), (1.0, 1.0, -1.5), (1.5, 1.0, -3.0),
        (0.5, 100.0, -10.0),    # expm1((alpha - gamma) y) overflows
    ])
    def test_no_root_below_the_cure_mass(self, alpha, gamma, y):
        # 1 - p below L(inf): no s gives log L(s) = y; the fallback is
        # finite, and there log L is within about 1e-3 / gamma of its limit
        p = AddamsParameters(alpha, gamma, 0.8)
        assert y < cure_plateau(alpha, gamma)
        s = _log_laplace_inverse(p, y)
        assert s == -math.log(_NO_ROOT_TAIL) / (alpha * 0.8)
        assert 0.0 < log_laplace(p, s) - cure_plateau(alpha, gamma) < 2e-3 / gamma

    def test_far_tails(self):
        # alpha < 0 past expm1's range still has its root; the gamma limit's
        # s beyond the float range is inf
        p = AddamsParameters(-50.0, 0.01, 3.0)
        s = _log_laplace_inverse(p, -20.0)
        assert log_laplace(p, s) == pytest.approx(-20.0, rel=1e-12)
        assert _log_laplace_inverse(AddamsParameters(0.0, 100.0), -8.0) == math.inf


class TestDerivativesAndMoments:
    def test_derivatives_match_finite_differences(self, rng):
        for branch in ("negative", "zero", "interior", "poisson", "binomial"):
            for alpha, gamma, mu in random_triples(rng, branch, 10):
                p = AddamsParameters(alpha, gamma, mu)
                s, h = 0.9, 1e-5
                fd1 = (laplace(p, s + h) - laplace(p, s - h)) / (2 * h)
                assert laplace_derivative(p, s) == pytest.approx(fd1, rel=1e-5, abs=1e-8)
                h2 = 1e-4   # roundoff in the second difference scales as eps/h^2
                fd2 = (laplace(p, s + h2) - 2 * laplace(p, s) + laplace(p, s - h2)) / h2 ** 2
                assert laplace_derivative(p, s, order=2) == pytest.approx(
                    fd2, rel=1e-4, abs=1e-6
                )

    def test_conditional_moments_match_derivative_ratios(self, rng):
        for branch in ("negative", "zero", "interior"):
            for alpha, gamma, mu in random_triples(rng, branch, 10):
                p = AddamsParameters(alpha, gamma, mu)
                s = 1.4
                l0 = laplace(p, s)
                l1 = laplace_derivative(p, s)
                l2 = laplace_derivative(p, s, order=2)
                mean, var, r = conditional_moments(p, s)
                assert mean == pytest.approx(-l1 / l0, rel=1e-9)
                assert var == pytest.approx(l2 / l0 - (l1 / l0) ** 2, rel=1e-7)
                assert r == pytest.approx(var / mean ** 2, rel=1e-9)

    def test_rfv_closed_form(self):
        p = AddamsParameters(-0.6, 3.0, 1.5)
        lam = np.array([0.0, 0.5, 2.0])
        expected = 3.0 * np.exp(-0.6 * 1.5 * lam)
        np.testing.assert_allclose(rfv(p, lam), expected, rtol=1e-12)
        # matches the conditional-moment definition pointwise
        for v in lam:
            _, _, r = conditional_moments(p, float(v))
            assert r == pytest.approx(3.0 * math.exp(-0.9 * v), rel=1e-8)

    @pytest.mark.parametrize("alpha,gamma", [
        (-1.0, 5.0),            # negative branch
        (0.0, 5.0),             # gamma limit
        (2.0, 5.0),             # interior, cure fraction
        (5.0, 5.0),             # Poisson
        (5.5, 5.0),             # binomial
        (-4e-7, 5.0),           # alpha near 0, both signs
        (4e-7, 5.0),
        (5.0 - 2e-6, 5.0),      # alpha near gamma
    ])
    def test_moments_finite_up_to_huge_hazards(self, alpha, gamma):
        p = AddamsParameters(alpha, gamma, 0.7)
        s = np.logspace(-3, 300, 304)
        mean, var, r = conditional_moments(p, s)
        assert np.all(np.isfinite(mean)) and np.all(np.isfinite(var))
        assert np.all(mean > 0) or alpha > 0
        assert np.all(np.diff(mean) <= 0)
        if alpha < 0:
            # survivors sit at the lowest support point psi * nu
            assert mean[-1] == pytest.approx(0.7 * alpha / (alpha - gamma), rel=1e-12)
            assert r[-1] == 0.0
        elif alpha == 0:
            np.testing.assert_allclose(r, gamma, rtol=1e-15)
        else:
            # survivors are the cured: mean 0, RFV +inf
            assert mean[-1] == 0.0 and var[-1] == 0.0
            assert r[-1] == math.inf
        assert np.all(np.isfinite(laplace_derivative(p, s)))
        assert np.all(np.isfinite(laplace_derivative(p, s, order=2)))

    def test_negative_branch_mean_keeps_its_limit(self):
        # mu / (1 - gamma / alpha) = 1/6; cancellation once gave 0.1353 at
        # s = 1e16 and 1.0 from s = 1e17 on
        p = AddamsParameters(-1.0, 5.0, 1.0)
        for s in (1e12, 1e16, 1e17, 1e100, 1e300):
            assert conditional_moments(p, s)[0] == pytest.approx(1.0 / 6.0, rel=1e-14)
            assert -laplace_derivative(p, s) == 0.0

    def test_conditional_mean_limit_is_lowest_support_point(self):
        p = AddamsParameters(-1.0, 3.0, 2.0)
        branch = classify_branch(p)
        mean, _, _ = conditional_moments(p, 400.0)
        assert mean == pytest.approx(branch.psi * branch.nu, rel=1e-6)


def partials(p, s):
    """(d/dalpha, d/dgamma, d/dmu) of log L at ``s`` through the library."""
    _, d_alpha, d_gamma, h = log_laplace_partials(p, s)
    return np.array([d_alpha, d_gamma, -s * h])


def complex_step_partials(alpha, gamma, mu, s, h=1e-30):
    """(d/dalpha, d/dgamma, d/dmu, d/dalpha + d/dgamma) of the closed form and
    its gamma and Poisson limits, each as Im f(x + ih) / h; numpy's log1p
    and expm1 take complex arguments.  The last steps alpha and gamma
    together, which at alpha = gamma stays on the Poisson limit."""
    def log_l(a, g, m):
        if a == 0:
            return -np.log1p(g * m * s) / g
        if a == g:
            return np.expm1(-g * m * s) / g
        return np.log1p((1 - g / a) * np.expm1(-a * m * s)) / (a - g)

    return np.array([
        log_l(alpha + 1j * h, gamma, mu).imag / h,
        log_l(alpha, gamma + 1j * h, mu).imag / h,
        log_l(alpha, gamma, mu + 1j * h).imag / h,
        log_l(alpha + 1j * h, gamma + 1j * h, mu).imag / h,
    ])


# (alpha, gamma, source): every member, and alpha near 0.  source names how
# a model reaches the law, and the case in test ids: "free" an estimated
# alpha, "gamma", "poisson" or "binomial" a pinned one, "auto" given values;
# the law itself depends on alpha and gamma alone
PARTIAL_CASES = [
    (-10.0, 0.5, "auto"), (-1.0, 2.0, "auto"), (-0.25, 10.0, "auto"), (-1e-3, 0.1, "auto"),
    (-4e-7, 3.0, "auto"), (-4e-7, 0.1, "free"),       # alpha near 0
    (0.0, 3.0, "auto"), (0.0, 0.1, "free"), (0.0, 10.0, "gamma"),
    (4e-7, 3.0, "auto"), (4e-7, 0.1, "free"),
    (1e-3, 0.5, "auto"), (0.3, 0.5, "auto"), (1.2, 3.0, "free"), (9.0, 10.0, "free"),
    (2.0, 2.0, "poisson"), (0.1, 0.1, "poisson"),
    (2.5, 2.0, "binomial"), (3.0, 2.0, "binomial"), (1.1, 0.1, "binomial"),
]


class TestLaplacePartials:
    """Partials of log L in alpha, gamma and mu against the 50-digit oracle."""

    @pytest.mark.parametrize("alpha,gamma,source", PARTIAL_CASES)
    def test_match_50_digit_closed_form(self, alpha, gamma, source):
        # mu s from 1e-6 to 1e3
        mu = 0.7
        u = np.logspace(-6, 3, 28)
        u = u[np.abs(alpha) * u < 700.0]
        p = AddamsParameters(alpha, gamma, mu)
        got = partials(p, u / mu)
        expected = np.array([mp_log_laplace_partials(alpha, gamma, mu, v / mu) for v in u]).T
        np.testing.assert_allclose(got, expected, rtol=1e-9, atol=0.0)

    @pytest.mark.parametrize("gamma", [0.1, 2.0, 10.0])
    def test_seam_bound(self, gamma):
        # within 1e-6 relative of alpha = gamma: 1e-9, plus 64 eps gamma /
        # |alpha - gamma| for a form that would divide by alpha - gamma
        mu = 1.3
        u = np.logspace(-6, 3, 19)
        u = u[gamma * u < 700.0]
        for delta in (1e-6, 1e-8, 1e-10, 1e-12):
            alpha = gamma * (1.0 - delta)
            bound = 1e-9 + 64 * np.finfo(float).eps * gamma / (gamma - alpha)
            got = partials(AddamsParameters(alpha, gamma, mu), u / mu)
            expected = np.array([mp_log_laplace_partials(alpha, gamma, mu, v / mu) for v in u]).T
            np.testing.assert_allclose(got, expected, rtol=bound, atol=0.0,
                                       err_msg=f"alpha={alpha!r}")

    @pytest.mark.parametrize("alpha,gamma,source", PARTIAL_CASES)
    def test_match_complex_step(self, alpha, gamma, source):
        # only where gamma mu s >= 0.05 and |alpha| mu s is 0 or >= 1e-5:
        # below, the complex step sums the same O(mu s) terms as the closed
        # form and cancels as it does, by up to eps / (alpha mu s gamma mu s)
        mu = 1.3
        u = np.logspace(-2, 2, 9)
        au = np.abs(alpha) * u
        u = u[(gamma * u >= 0.05) & ((au == 0.0) | (au >= 1e-5)) & (au < 700.0)]
        d_alpha, d_gamma, d_mu = partials(AddamsParameters(alpha, gamma, mu), u / mu)
        got = np.array([d_alpha, d_gamma, d_mu, d_alpha + d_gamma])
        expected = np.array([complex_step_partials(alpha, gamma, mu, v / mu) for v in u]).T
        # a step in alpha or gamma alone off alpha = gamma is a 0/0 that the
        # complex step cannot resolve; the Poisson pin moves both together
        rows = [2, 3] if alpha == gamma else [0, 1, 2, 3]
        np.testing.assert_allclose(got[rows], expected[rows], rtol=1e-9, atol=0.0)

    def test_h_and_zero(self):
        # d log L / ds = -mu h
        p = AddamsParameters(-0.7, 2.0, 1.3)
        s = np.array([0.0, 0.4, 3.0])
        log_l, d_alpha, d_gamma, h = log_laplace_partials(p, s)
        np.testing.assert_allclose(-p.mu * h, laplace_derivative(p, s) / laplace(p, s),
                                   rtol=1e-15)
        assert log_l[0] == d_alpha[0] == d_gamma[0] == 0.0
        scalar = log_laplace_partials(p, 0.4)
        assert [float(v) for v in scalar] == [log_l[1], d_alpha[1], d_gamma[1], h[1]]
        # an s = 0 entry (the empty subset of a cluster whose every unit had
        # the event) leaves the series at the small positive s in place
        s = np.logspace(-6, 1, 15)
        with_zero = partials(p, np.concatenate([[0.0], s]))
        np.testing.assert_array_equal(with_zero[:, 1:], partials(p, s))
        assert np.all(with_zero[:, 0] == 0.0)

    @pytest.mark.parametrize("alpha,gamma", [
        (1e-300, 3.0), (-1e-300, 3.0), (1e-200, 3.0), (-1e-200, 3.0), (1e-160, 3.0),
        (-1e-160, 3.0), (3e-309, 1e-3), (-3e-309, 1e-3),
    ])
    def test_tiny_alpha_with_finite_gamma_over_alpha(self, alpha, gamma):
        # gamma / alpha is finite, so the closed form serves, but alpha^2
        # underflows below 1.5e-154 and 1 / alpha overflows below 5.6e-309:
        # multiplying by them once raised ZeroDivisionError at alpha = 1e-300
        # and gave infinite partials at alpha = 3e-309
        mu = 0.7
        s = np.array([1e-3, 1.0, 1e3])
        got = partials(AddamsParameters(alpha, gamma, mu), s)
        expected = np.array([mp_log_laplace_partials(alpha, gamma, mu, v) for v in s]).T
        np.testing.assert_allclose(got, expected, rtol=1e-9, atol=0.0)

    def test_finite_at_extreme_hazards(self):
        s = np.logspace(-300, 300, 61)
        for alpha, gamma, _ in PARTIAL_CASES:
            p = AddamsParameters(alpha, gamma, 0.7)
            assert np.all(np.isfinite(partials(p, s))), (alpha, gamma)


# (alpha, gamma) of each member: the gamma limit at alpha = 0 and where
# gamma / alpha overflows, alpha < 0, 0 < alpha < gamma, the Poisson member
# alpha = gamma and the binomial alpha = gamma + 1/b, and alpha near the seams
FUSED_CASES = [
    (0.0, 3.0), (1e-310, 3.0), (-1e-310, 3.0), (-10.0, 0.5), (-1.0, 2.0), (-4e-7, 3.0),
    (-1e-300, 3.0), (4e-7, 3.0), (0.3, 0.5), (1.2, 3.0), (2.0 * (1.0 - 1e-10), 2.0),
    (2.0, 2.0), (0.1, 0.1), (2.0 + 1.0 / 2, 2.0), (2.0 + 1.0 / 1, 2.0), (0.1 + 1.0 / 3, 0.1),
]
# s = 0 and 1e-300 to 1e300
FUSED_S = np.concatenate([[0.0], np.logspace(-300, 300, 61), np.logspace(-6, 3, 37)])


class TestFusedKernel:
    """``log_laplace_partials`` takes log L and its partials from one call:
    log L is ``log_laplace``'s bit for bit, and the partials are those
    computed apart from that log L."""

    @pytest.mark.parametrize("alpha,gamma", FUSED_CASES)
    def test_log_l_is_log_laplace_bit_for_bit(self, alpha, gamma):
        p = AddamsParameters(alpha, gamma, 0.7)
        expected = log_laplace(p, FUSED_S)
        assert expected[0] == 0.0
        for with_alpha in (True, False):
            np.testing.assert_array_equal(log_laplace_partials(p, FUSED_S, with_alpha)[0],
                                          expected)
            first, _ = log_laplace_second_partials(p, FUSED_S, with_alpha)
            np.testing.assert_array_equal(first[0], expected)
        assert float(log_laplace_partials(p, 0.4)[0]) == log_laplace(p, 0.4)

    @pytest.mark.parametrize("alpha,gamma", FUSED_CASES)
    def test_partials_are_the_separate_ones_bit_for_bit(self, alpha, gamma):
        p = AddamsParameters(alpha, gamma, 0.7)
        log_l = log_laplace(p, FUSED_S)
        for with_alpha in (True, False):
            got = log_laplace_partials(p, FUSED_S, with_alpha)[1:]
            expected = separate_log_laplace_partials(p, FUSED_S, log_l, with_alpha)
            for name, g, e in zip(("d_alpha", "d_gamma", "h"), got, expected):
                if e is None:
                    assert g is None, name
                else:
                    assert g.tobytes() == e.tobytes(), (name, with_alpha)

    def test_negative_s_raises(self):
        p = AddamsParameters(-1.0, 2.0, 0.7)
        for kernel in (log_laplace, log_laplace_partials, log_laplace_second_partials):
            with pytest.raises(InvalidParameters):
                kernel(p, np.array([0.3, -1e-12]))


# (alpha, gamma): each member, both seams exactly (alpha = 0, alpha = gamma),
# alpha near 0 on either side, and alpha 1e-10 relative below gamma
SECOND_PARTIAL_CASES = [
    (-1.0, 2.0), (-4e-7, 0.1), (0.0, 3.0), (4e-7, 3.0), (1.2, 3.0), (2.0, 2.0),
    (2.0 * (1.0 - 1e-10), 2.0), (2.5, 2.0),
]
# mu s from 1e-300 to 1e300
SECOND_PARTIAL_U = [1e-300, 1e-100, 1e-20, 1e-6, 1e-3, 0.03, 0.3, 3.0, 30.0, 1e4, 1e300]


class TestLaplaceSecondPartials:
    """Second partials of log L in (u = mu s, alpha, gamma) against the
    50-digit oracle."""

    @pytest.mark.parametrize("alpha,gamma", SECOND_PARTIAL_CASES)
    def test_match_50_digit_closed_form(self, alpha, gamma):
        mu = 0.7
        u = np.array(SECOND_PARTIAL_U)
        p = AddamsParameters(alpha, gamma, mu)
        _, second = log_laplace_second_partials(p, u / mu)
        got = np.array(second)
        expected = np.array([mp_log_laplace_second_partials(alpha, gamma, v) for v in u]).T
        # aa sums M - D lead^2, 2 t lead and gg; where it changes sign those
        # cancel without bound, so it is held to 1e-13 of |gg| + |t lead|
        # (t lead = -(ag + gg)) as well as to 1e-10 of itself
        scale = np.zeros_like(expected)
        scale[3] = 1e-13 * (np.abs(expected[5]) + np.abs(expected[4] + expected[5]))
        with np.errstate(invalid="ignore"):
            err = np.abs(got - expected)
        within = (got == expected) | (err <= 1e-10 * np.abs(expected) + scale)
        assert within.all(), [(name, u[~row]) for name, row in
                              zip(("uu", "ua", "ug", "aa", "ag", "gg"), within)]

    @pytest.mark.parametrize("alpha,gamma", [(-1.0, 2.0), (0.0, 3.0), (1.2, 3.0), (2.0, 2.0)])
    def test_first_partials_and_no_alpha(self, alpha, gamma):
        # the first group is log_laplace_partials' bit for bit; without
        # alpha the alpha entries are None and the others do not change
        p = AddamsParameters(alpha, gamma, 0.7)
        s = np.concatenate([[0.0], np.logspace(-6, 3, 40)])
        first, second = log_laplace_second_partials(p, s)
        for got, expected in zip(first, log_laplace_partials(p, s)):
            np.testing.assert_array_equal(got, expected)
        first_g, second_g = log_laplace_second_partials(p, s, alpha=False)
        assert first_g[1] is None and log_laplace_partials(p, s, alpha=False)[1] is None
        assert [second_g[i] for i in (1, 3, 4)] == [None] * 3
        for i in (0, 2, 5):
            np.testing.assert_array_equal(second_g[i], second[i])
        for i in (0, 2, 3):
            np.testing.assert_array_equal(first_g[i], first[i])
        # d2 log L / ds2 = mu^2 uu is the conditional variance
        np.testing.assert_allclose(0.7 ** 2 * second[0], conditional_moments(p, s)[1],
                                   rtol=1e-14)

    def test_finite_at_extreme_hazards(self):
        s = np.logspace(-300, 300, 61)
        for alpha, gamma, _ in PARTIAL_CASES:
            p = AddamsParameters(alpha, gamma, 0.7)
            _, second = log_laplace_second_partials(p, s)
            # aa grows as u^2 in the gamma limit and overflows at u ~ 1e154
            finite = np.isfinite(second)
            assert finite[[0, 1, 2, 4, 5]].all(), (alpha, gamma)
            assert not np.isnan(second[3]).any(), (alpha, gamma)


class TestSupport:
    def test_support_values_negative_branch(self):
        branch = classify_branch(AddamsParameters(-1.0, 3.0, 2.0))
        # z_(k) = psi (nu + k - 1), strictly positive everywhere
        assert support_value(branch, 1) == pytest.approx(2.0 * 0.25)
        assert support_value(branch, 2) == pytest.approx(2.0 * 1.25)

    def test_support_values_cure_branches(self):
        branch = classify_branch(AddamsParameters(1.0, 2.0, 1.0))
        assert support_value(branch, 1) == 0.0
        assert support_value(branch, 2) == pytest.approx(1.0)

    def test_binomial_support_is_finite(self):
        branch = classify_branch(AddamsParameters(2.5, 2.0))   # b = 2
        assert support_value(branch, 3) == pytest.approx(2.5 * 2)
        with pytest.raises(OutOfSupport):
            support_value(branch, 4)

    def test_pmf_table_consistent_with_count_distribution(self):
        branch = classify_branch(AddamsParameters(-0.5, 4.0, 1.0))
        dist = count_distribution(branch)
        points = support_and_pmf(branch, 6)
        assert [pt.k for pt in points] == [1, 2, 3, 4, 5, 6]
        for pt in points:
            assert pt.prob == pytest.approx(float(dist.pmf(pt.k - 1)), rel=1e-12)
            assert pt.cum_prob == pytest.approx(float(dist.cdf(pt.k - 1)), rel=1e-12)
        assert all(b.z < a.z for b, a in zip(points, points[1:]))

    def test_binomial_table_stops_at_b_plus_one(self):
        branch = classify_branch(AddamsParameters(4.5, 4.0, 0.7))   # b = 2
        dist = count_distribution(branch)
        points = support_and_pmf(branch, 6)
        assert [pt.k for pt in points] == [1, 2, 3]
        assert [pt.z for pt in points] == [support_value(branch, k) for k in (1, 2, 3)]
        for pt in points:
            assert pt.prob == pytest.approx(float(dist.pmf(pt.k - 1)), rel=1e-12)
        assert points[-1].cum_prob == 1.0

    @pytest.mark.parametrize("params", [
        AddamsParameters(-0.5, 4.0, 1.0),       # shifted negative binomial
        AddamsParameters(-2.882, 90.996, 0.328),
        AddamsParameters(1.5, 4.0, 0.9),        # negative binomial
        AddamsParameters(2.0, 2.0, 1.0),        # Poisson
        AddamsParameters(4.5, 4.0, 0.7),        # binomial, b = 2
        AddamsParameters(2.25, 2.0, 1.0),       # binomial, b = 4
    ])
    def test_count_law_is_the_frozen_law_bit_for_bit(self, params):
        branch = classify_branch(params)
        (dist, args), frozen = _count_law(branch), count_distribution(branch)
        ks = np.arange(-1, 12)                  # beyond b on the binomial branch
        qs = np.array([0.0, 1e-12, 0.1, 0.5, 0.9, 0.999, 1.0])
        assert np.array_equal(dist.pmf(ks, *args), frozen.pmf(ks))
        assert np.array_equal(dist.cdf(ks, *args), frozen.cdf(ks))
        assert np.array_equal(dist.ppf(qs, *args), frozen.ppf(qs))
        for k in (0, 1, 5, 11):                 # one call per entry gives the same bits
            assert dist.cdf(k, *args) == dist.cdf(ks, *args)[k + 1] == frozen.cdf(k)

    def test_gamma_limit_has_no_discrete_support(self):
        branch = classify_branch(AddamsParameters(0.0, 2.0))
        with pytest.raises(ContinuousBranch):
            support_value(branch, 1)
        with pytest.raises(ContinuousBranch):
            support_and_pmf(branch, 3)
