"""Model-layer tests: Laplace exponent, right inverse, tilts, jump integrals.

Frozen expected numbers come from independent quadrature oracles (adaptive
Gauss-Kronrod on the defining integrals; kink-aware refined trapezoids for the
tabulated family) computed before the closed forms were written.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from levybond import (
    DivergentExponent,
    DomainError,
    ExponentialJumps,
    LevyModel,
    NoJumps,
    SubordinatorError,
    TabulatedDensity,
    bounded_variation_model,
    esscher_tilt,
    exp_growth_rate,
    jump_intensity,
    laplace_exponent,
    meets_discount_condition,
    path_variation,
    phi,
    sample_jump_sizes,
    shifted_jump_integrals,
)
from levybond.model import _jump_exponent_real, _psi_c, jump_passage_means
from levybond.scale import _tilted_transform

# psi(theta) = theta^2; the unit-conversion test process used throughout
CANON = LevyModel(mu=0.0, b2=2.0)
# bounded-variation families X_t = -2t + jumps
BV_RHO1 = bounded_variation_model(2.0, ExponentialJumps(rate=1.0, decay=1.0))
BV_RHO2 = bounded_variation_model(2.0, ExponentialJumps(rate=1.0, decay=2.0))
# mixed family with both Gaussian part and jumps
EXPJ = LevyModel(mu=0.1, b2=0.3, jumps=ExponentialJumps(rate=0.8, decay=1.7))


def tabulated_exp_density(n: int = 401, z_hi: float = 8.0) -> TabulatedDensity:
    """Fine tabulation of the density 2*exp(-2z) with a matched tail."""
    zg = np.linspace(0.004, z_hi, n)
    return TabulatedDensity(zg, 2.0 * np.exp(-2.0 * zg), 2.0)


class TestLaplaceExponent:
    def test_brownian_is_quadratic(self):
        assert laplace_exponent(CANON, 2.0) == pytest.approx(4.0, abs=1e-14)
        assert laplace_exponent(CANON, -1.0) == pytest.approx(1.0, abs=1e-14)
        assert laplace_exponent(CANON, 0.0) == 0.0

    @pytest.mark.parametrize(
        "theta, expected",
        [
            (0.7, 0.07709755586211678),
            (-0.9, 0.7168745710344213),
            (2.3, 1.1119872073564787),
        ],
    )
    def test_exp_jump_frozen_values(self, theta, expected):
        assert laplace_exponent(EXPJ, theta) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("theta", [1e-9, 1e-4, 0.7, -0.9, 2.3])
    def test_exp_jump_closed_form(self, theta):
        # mu theta + b2 theta^2/2 - lam theta/(rho+theta) + theta m1: the
        # tail term must not be formed as lam rho/(rho+theta) - lam, which
        # cancels as theta nears 0
        lam, rho = 0.8, 1.7
        m1 = lam * ((1.0 - math.exp(-rho)) / rho - math.exp(-rho))
        want = 0.1 * theta + 0.15 * theta**2 - lam * theta / (rho + theta) + theta * m1
        assert laplace_exponent(EXPJ, theta) == pytest.approx(want, rel=1e-13)

    def test_bv_family_closed_form(self):
        # d=2, lam=1, rho=1: psi(theta) = 2*theta - theta/(1+theta)
        for th in (0.3, 1.0, 4.0):
            assert laplace_exponent(BV_RHO1, th) == pytest.approx(
                2 * th - th / (1 + th), rel=1e-13
            )

    def test_divergent_tail_raises(self):
        with pytest.raises(DivergentExponent):
            laplace_exponent(BV_RHO1, -1.0)  # decay 1 means E[e^X] = inf
        with pytest.raises(DivergentExponent):
            laplace_exponent(EXPJ, -1.7)

    def test_growth_rate(self):
        assert exp_growth_rate(CANON) == pytest.approx(1.0, abs=1e-14)
        assert exp_growth_rate(BV_RHO2) == pytest.approx(-1.0, abs=1e-13)
        assert exp_growth_rate(BV_RHO1) == math.inf

    def test_discount_condition(self):
        assert meets_discount_condition(CANON, 4.0)
        assert not meets_discount_condition(CANON, 0.75)  # psi(-1) = 1
        assert not meets_discount_condition(CANON, -1.0)
        assert meets_discount_condition(BV_RHO2, 0.5)


class TestPhi:
    def test_canonical_inverse(self):
        assert phi(CANON, 4.0) == pytest.approx(2.0, rel=1e-14)
        assert phi(CANON, 1.0) == pytest.approx(1.0, rel=1e-14)

    def test_bv_value(self):
        # 2*theta - theta/(1+theta) = 1 has largest root 1/sqrt(2)
        assert phi(BV_RHO1, 1.0) == pytest.approx(1 / math.sqrt(2), rel=1e-13)

    def test_zero_level(self):
        assert phi(CANON, 0.0) == 0.0
        assert phi(BV_RHO2, 0.0) == 0.0
        drifted = LevyModel(mu=-3.0, b2=2.0)  # psi = theta^2 - 3 theta
        assert phi(drifted, 0.0) == pytest.approx(3.0, rel=1e-12)

    @pytest.mark.parametrize("model", [CANON, BV_RHO1, BV_RHO2, EXPJ])
    @pytest.mark.parametrize("p", [0.25, 1.0, 4.0, 17.0])
    def test_is_right_inverse(self, model, p):
        root = phi(model, p)
        assert root > 0
        assert laplace_exponent(model, root) == pytest.approx(p, rel=1e-11)

    def test_rejects_negative_level(self):
        with pytest.raises(DomainError):
            phi(CANON, -0.5)


class TestConstruction:
    def test_variance_must_be_nonnegative(self):
        with pytest.raises(DomainError):
            LevyModel(mu=0.0, b2=-1.0)

    def test_jump_parameter_validation(self):
        with pytest.raises(DomainError):
            ExponentialJumps(rate=0.0, decay=1.0)
        with pytest.raises(DomainError):
            ExponentialJumps(rate=1.0, decay=-2.0)

    def test_monotone_paths_rejected(self):
        with pytest.raises(SubordinatorError):
            LevyModel(mu=-1.0, b2=0.0)
        with pytest.raises(SubordinatorError):
            LevyModel(mu=0.0, b2=0.0)
        with pytest.raises(SubordinatorError):
            # exponent drift below the compensator mass: paths only go up
            LevyModel(mu=-1.4, b2=0.0, jumps=ExponentialJumps(5.0, 1.0))
        with pytest.raises(DomainError):
            bounded_variation_model(0.0, ExponentialJumps(1.0, 1.0))

    def test_tabulated_validation(self):
        with pytest.raises(DomainError):
            TabulatedDensity((1.0,), (1.0,), 1.0)
        with pytest.raises(DomainError):
            TabulatedDensity((1.0, 0.5), (1.0, 1.0), 1.0)
        with pytest.raises(DomainError):
            TabulatedDensity((0.5, 1.0), (1.0, -1.0), 1.0)
        with pytest.raises(DomainError):
            TabulatedDensity((0.5, 1.0), (1.0, 1.0), 0.0)
        with pytest.raises(DomainError):
            TabulatedDensity((0.5, 1.0), (1.0,), 1.0)

    def test_dropped_mass_is_logged(self, caplog):
        with caplog.at_level("WARNING", logger="levybond.model"):
            TabulatedDensity((0.25, 1.0, 2.0), (0.8, 0.4, 0.1), 1.5)
        assert any("dropped" in rec.message for rec in caplog.records)

    def test_path_variation(self):
        pv = path_variation(CANON)
        assert not pv.bounded and pv.drift is None
        pv = path_variation(BV_RHO2)
        assert pv.bounded and pv.drift == pytest.approx(2.0, rel=1e-14)
        assert not path_variation(EXPJ).bounded


class TestEsscherTilt:
    def test_exp_jump_mapping(self):
        tilted = esscher_tilt(EXPJ, 0.9)
        assert isinstance(tilted.jumps, ExponentialJumps)
        assert tilted.jumps.decay == pytest.approx(1.7 + 0.9, rel=1e-14)
        assert tilted.jumps.rate == pytest.approx(0.8 * 1.7 / 2.6, rel=1e-14)
        assert tilted.b2 == EXPJ.b2

    @pytest.mark.parametrize("lam", [-0.6, 0.0, 1.4])
    @pytest.mark.parametrize("theta", [0.3, 1.1, 2.8])
    def test_exponent_shift_identity(self, lam, theta):
        tilted = esscher_tilt(EXPJ, lam)
        lhs = laplace_exponent(tilted, theta)
        rhs = laplace_exponent(EXPJ, lam + theta) - laplace_exponent(EXPJ, lam)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-13)

    def test_inverse_shift_under_unit_tilt(self):
        # tilting by -1 turns Phi(q) + 1 into the inverse at q - psi(-1)
        q = 4.0
        tilted = esscher_tilt(CANON, -1.0)
        lvl = q - laplace_exponent(CANON, -1.0)
        assert phi(tilted, lvl) == pytest.approx(phi(CANON, q) + 1.0, rel=1e-12)

    def test_out_of_domain_tilt_raises(self):
        with pytest.raises(DivergentExponent):
            esscher_tilt(EXPJ, -1.7)

    @settings(max_examples=40, deadline=None)
    @given(
        lam=st.floats(-0.8, 2.0),
        theta=st.floats(0.05, 3.0),
    )
    def test_shift_identity_property(self, lam, theta):
        tilted = esscher_tilt(EXPJ, lam)
        lhs = laplace_exponent(tilted, theta)
        rhs = laplace_exponent(EXPJ, lam + theta) - laplace_exponent(EXPJ, lam)
        assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-12)


class TestShiftedJumpIntegrals:
    MODEL = LevyModel(mu=0.3, b2=0.4, jumps=ExponentialJumps(rate=1.0, decay=2.5))

    @pytest.mark.parametrize(
        "s, i1_expected, i2_expected",
        [
            (0.4, 0.12585349303233553, 0.37110645381329704),
            (-0.3, 0.5545678457248917, 1.8043325250182303),
        ],
    )
    def test_frozen_quadrature_values(self, s, i1_expected, i2_expected):
        i1, i2 = shifted_jump_integrals(self.MODEL, s, phi_q=1.3)
        assert i1 == pytest.approx(i1_expected, rel=1e-10)
        assert i2 == pytest.approx(i2_expected, rel=1e-10)

    @pytest.mark.parametrize("s", [0.4, 800.0])
    def test_exponential_closed_form(self, s):
        # at s = 800 exp(phi_q s) overflows; the shift stays in the exponent
        lam, rho, ph = 1.0, 2.5, 1.3
        e = math.exp(-rho * s)
        i1, i2 = shifted_jump_integrals(self.MODEL, s, ph)
        assert i1 == pytest.approx(lam * e * ph / (rho + ph), rel=1e-14, abs=0.0)
        assert i2 == pytest.approx(
            lam * rho * e * (ph + 1.0) / ((rho - 1.0) * (rho + ph)), rel=1e-14, abs=0.0)

    def test_no_jumps_vanish(self):
        assert shifted_jump_integrals(CANON, 0.3, 1.0) == (0.0, 0.0)

    def test_continuous_at_zero_shift(self):
        lo = shifted_jump_integrals(self.MODEL, -1e-9, 1.3)
        hi = shifted_jump_integrals(self.MODEL, 1e-9, 1.3)
        assert lo[0] == pytest.approx(hi[0], abs=1e-7)
        assert lo[1] == pytest.approx(hi[1], abs=1e-7)

    def test_heavy_tail_rejected(self):
        with pytest.raises(DivergentExponent):
            shifted_jump_integrals(BV_RHO1, 0.2, 1.0)  # decay 1 kills I2

    @pytest.mark.parametrize("model", [EXPJ, LevyModel(0.25, 0.1, tabulated_exp_density())],
                             ids=["EXPJ", "TAB"])
    def test_overflow_names_the_shift(self, model):
        # I2 grows like exp(-s): past s ~ -709 it leaves the float range
        with pytest.raises(DomainError, match="s=-800"):
            shifted_jump_integrals(model, -800.0, 1.3)

    @settings(max_examples=40, deadline=None)
    @given(
        s1=st.floats(-2.0, 3.0),
        ds=st.floats(1e-6, 2.0),
        phi_q=st.floats(0.2, 3.0),
    )
    def test_nonincreasing_in_shift(self, s1, ds, phi_q):
        a1, b1 = shifted_jump_integrals(self.MODEL, s1, phi_q)
        a2, b2 = shifted_jump_integrals(self.MODEL, s1 + ds, phi_q)
        assert a2 <= a1 + 1e-12
        assert b2 <= b1 + 1e-12
        assert a1 >= 0.0 and b1 >= 0.0


class TestTabulatedFamily:
    TAB = tabulated_exp_density()
    MODEL = LevyModel(mu=0.25, b2=0.1, jumps=TAB)

    @pytest.mark.parametrize(
        "theta, jump_part",
        [
            (0.7, -0.051368111007875986),
            (-0.5, 0.1848593765013238),
        ],
    )
    def test_frozen_exponent_values(self, theta, jump_part):
        expected = 0.25 * theta + 0.05 * theta**2 + jump_part
        assert laplace_exponent(self.MODEL, theta) == pytest.approx(expected, abs=3e-9)

    def test_intensity_and_mean(self):
        assert jump_intensity(self.MODEL) == pytest.approx(0.9921640499861539, rel=1e-10)

    def test_tracks_exponential_family(self):
        # same nominal density as ExponentialJumps(1, 2); tabulation error only
        exp_model = LevyModel(mu=0.25, b2=0.1, jumps=ExponentialJumps(1.0, 2.0))
        for th in (0.7, 1.5, -0.5):
            assert laplace_exponent(self.MODEL, th) == pytest.approx(
                laplace_exponent(exp_model, th), abs=5e-4
            )
        assert phi(self.MODEL, 1.0) == pytest.approx(phi(exp_model, 1.0), abs=1e-3)

    def test_tail_divergence(self):
        with pytest.raises(DivergentExponent):
            laplace_exponent(self.MODEL, -2.0)

    @pytest.mark.parametrize("theta", [1e-7, 1e-5])
    def test_taylor_branch_matches_moments(self, theta):
        # psi(theta) = theta psi'(0) + theta^2 psi''(0) / 2 + O(theta^3) with
        # psi'(0) = mu - int_{z>=1} z pi and psi''(0) = b2 + int z^2 pi, here by
        # a fine trapezoid rule through the table's knots plus the tail's closed form
        tab = self.TAB
        zN, r, vN = tab.grid[-1], tab.tail_rate, tab.values[-1]

        def body(power, lo):
            zs = np.union1d(np.linspace(lo, zN, 20001), [g for g in tab.grid if g > lo])
            f = zs**power * np.interp(zs, tab.grid, tab.values)
            return float(np.sum((f[1:] + f[:-1]) * np.diff(zs)) / 2.0)

        first = body(1, 1.0) + vN * (zN / r + 1.0 / r**2)
        second = body(2, tab.grid[0]) + vN * (zN**2 / r + 2.0 * zN / r**2 + 2.0 / r**3)
        expected = theta * (0.25 - first) + theta**2 * (0.1 + second) / 2.0
        assert laplace_exponent(self.MODEL, theta) == pytest.approx(expected, rel=1e-6)

    @pytest.mark.parametrize("theta", [1.3e-4, 1e-3, 1e-2, 0.12])
    def test_exp_moment_near_origin_against_mpmath(self, theta):
        # int (e^(-theta u) - 1) pi(du) for the same piecewise-linear density,
        # each cell and the tail in closed form at 40 digits; the Taylor
        # branch covers theta * grid[-1] < 1, where by parts would cancel
        mp = pytest.importorskip("mpmath")
        tab = self.TAB
        a = -mp.mpf(theta)
        with mp.workdps(40):
            z = [mp.mpf(u) for u in tab.grid]
            v = [mp.mpf(y) for y in tab.values]
            want = mp.mpf(0)
            for z0, z1, v0, v1 in zip(z, z[1:], v, v[1:]):
                m = (v1 - v0) / (z1 - z0)

                def primitive(u):
                    return mp.exp(a * u) * ((v0 + m * (u - z0)) / a - m / a**2)

                want += primitive(z1) - primitive(z0) - (v0 + v1) * (z1 - z0) / 2
            r = mp.mpf(tab.tail_rate)
            want += v[-1] * (mp.exp(a * z[-1]) / (r - a) - 1 / r)
        got = _jump_exponent_real(tab, theta) - theta * tab._m1
        assert got == pytest.approx(float(want), rel=1e-11, abs=0.0)

    def test_frozen_shifted_integrals(self):
        i1, i2 = shifted_jump_integrals(self.MODEL, 0.25, phi_q=1.1)
        assert i1 == pytest.approx(0.21524922535332336, rel=1e-6)
        assert i2 == pytest.approx(0.8218609737527196, rel=1e-6)

    def test_shifted_integrals_far_past_the_density(self):
        i1, i2 = shifted_jump_integrals(self.MODEL, 800.0, phi_q=1.1)
        assert math.isfinite(i1) and math.isfinite(i2)
        assert i1 >= 0.0 and i2 >= 0.0

    def test_tilt_retabulates(self):
        tilted = esscher_tilt(self.MODEL, 0.5)
        assert isinstance(tilted.jumps, TabulatedDensity)
        assert tilted.jumps.tail_rate == pytest.approx(2.5)
        # identity holds up to the grid's interpolation error
        lhs = laplace_exponent(tilted, 0.8)
        rhs = laplace_exponent(self.MODEL, 1.3) - laplace_exponent(self.MODEL, 0.5)
        assert lhs == pytest.approx(rhs, abs=2e-4)
        # the tilted density's precomputed constants are its own, not the parent's
        fresh = TabulatedDensity(tilted.jumps.grid, tilted.jumps.values, 2.5)
        assert jump_intensity(tilted) == fresh._mass < jump_intensity(self.MODEL)
        assert _psi_c(tilted, np.array([0.8]))[0].real == pytest.approx(lhs, rel=1e-13)

    def test_equal_tables_compare_and_hash_equal(self):
        # the precomputed per-density constants stay out of eq, hash and repr
        a, b = tabulated_exp_density(), tabulated_exp_density()
        assert a is not b
        assert a == b and hash(a) == hash(b)
        assert LevyModel(0.25, 0.1, a) == LevyModel(0.25, 0.1, b)
        assert a != tabulated_exp_density(n=101)
        assert "_cells" not in repr(a)


class TestComplexExponent:
    """``_psi_c``: the array continuation of psi used on inversion contours."""

    MODEL = LevyModel(mu=0.25, b2=0.1, jumps=tabulated_exp_density())

    @pytest.mark.parametrize("model", [MODEL, EXPJ, CANON])
    def test_agrees_with_real_exponent(self, model):
        # 1e-7 and 1e-5 take the Taylor branch of the tabulated moment; the
        # others its integration by parts, which is well conditioned there
        thetas = np.array([1e-7, 1e-5, 0.3, 1.0, 4.0, -0.5, -1.5])
        got = _psi_c(model, thetas)
        assert got.shape == thetas.shape
        for th, g in zip(thetas.tolist(), got):
            # the jump masses are O(1), so agreement is absolute at a few ulps
            assert g.imag == 0.0
            assert g.real == pytest.approx(laplace_exponent(model, th), rel=1e-13, abs=1e-15)

    def test_exp_jump_closed_form(self):
        lam, rho = 0.8, 1.7
        m1 = lam * ((1.0 - math.exp(-rho)) / rho - math.exp(-rho))
        beta = np.array([1e-9 + 1e-9j, 1e-4 - 2e-4j, 0.7 + 3.0j, -0.9 + 0.1j, 2.3 - 40.0j])
        want = 0.1 * beta + 0.15 * beta**2 - lam * beta / (rho + beta) + beta * m1
        np.testing.assert_allclose(_psi_c(EXPJ, beta), want, rtol=1e-13, atol=0.0)
        # the pole at beta = -rho stays a pole
        assert np.isinf(_psi_c(EXPJ, np.array([-rho + 0j]))[0])

    def test_exp_jump_tail_from_zero_unchanged(self):
        # the tail from 0 skips its expm1(-beta * 0) = 0; the output stays
        # bit-identical to the formula that evaluates it, on an Euler-style
        # contour, the real axis and the pole
        t = np.linspace(0.05, 30.0, 30)[:, None]
        contour = (18.4 + 2j * np.pi * np.arange(34)[None, :]) / (2.0 * t)
        beta = np.concatenate([contour.ravel(), [0.0, 0.3, -0.9, -1.7, 1e-9 - 2e-9j]])
        j = EXPJ.jumps
        knots, _, r = j._pieces
        want = EXPJ.mu * beta + 0.5 * EXPJ.b2 * beta * beta
        with np.errstate(all="ignore"):
            want += j._tail_mass * (r * np.expm1(-beta * knots[-1]) - beta) / (r + beta)
            want += beta * j._m1
        want[~np.isfinite(want)] = np.inf
        np.testing.assert_array_equal(_psi_c(EXPJ, beta), want)

    def test_conjugate_symmetry(self):
        beta = np.array([[0.4 + 2.0j, 3.0 - 50.0j], [1e-5 + 1e-5j, -1.0 + 0.5j]])
        np.testing.assert_array_equal(_psi_c(self.MODEL, beta.conj()),
                                      _psi_c(self.MODEL, beta).conj())

    def test_ladder_matches_pointwise(self):
        # the rung recurrence against one exponential per (point, node)
        def euler_ladders(xs):
            # rows A/(2x) + 0.9 + i k pi/x, k < 34, and their steps pi/x
            xs = np.array(xs)[:, None]
            beta = 21.0 / (2.0 * xs) + 0.9 + 1j * np.arange(34) * math.pi / xs
            return beta, math.pi / xs[:, 0]

        beta, step = euler_ladders([1e-4, 0.06, 1.5, 10.0, 50.0])
        ladder = _psi_c(self.MODEL, beta, step)
        np.testing.assert_allclose(ladder, _psi_c(self.MODEL, beta), rtol=1e-12, atol=0.0)
        np.testing.assert_array_equal(_psi_c(self.MODEL, beta.conj(), -step), ladder.conj())
        # a short reach (0.05) puts the low rungs on the Taylor branch
        zg = np.linspace(0.001, 0.05, 21)
        short = LevyModel(0.25, 0.1, TabulatedDensity(zg, 40.0 * np.exp(-40.0 * zg), 40.0))
        beta, step = euler_ladders([1.5, 0.06])
        taylor = np.abs(beta) * zg[-1] < 1.0
        assert taylor[0].any() and not taylor[0].all() and not taylor[1].any()
        np.testing.assert_allclose(_psi_c(short, beta, step), _psi_c(short, beta),
                                   rtol=1e-12, atol=0.0)
        # Re(-beta) * grid[-1] is 592 on the first ladder and 608, past the
        # guard, on the second: finite and inf rung for rung.  The density
        # ends at 0, so it has no tail: past the tail's abscissa a tail's
        # continuation cancels all but ~1e-4 of the body, and that
        # cancellation, not the recurrence, would set the agreement
        zg = np.linspace(0.004, 8.0, 401)
        hat = 2.0 * np.exp(-2.0 * zg) * (1.0 - zg / 8.0)
        no_tail = LevyModel(0.25, 0.1, TabulatedDensity(zg, hat, 2.0))
        beta = np.array([-74.0, -76.0])[:, None] + 0.5j * np.arange(34)
        got = _psi_c(no_tail, beta, np.full(2, 0.5))
        assert np.isfinite(got[0]).all() and np.isinf(got[1]).all()
        np.testing.assert_allclose(got, _psi_c(no_tail, beta), rtol=1e-12, atol=0.0)

    def test_pole_and_guard_return_inf(self):
        # beta = -tail_rate is the tail pole; Re(-beta) * grid[-1] = 640 passes
        # the overflow guard; both degrade the transform 1/(psi - q) to 0
        beta = np.array([-2.0, -80.0 + 3.0j, 1.0 + 1.0j])
        psi = _psi_c(self.MODEL, beta)
        assert np.isinf(psi[0]) and np.isinf(psi[1]) and np.isfinite(psi[2])
        # a dyadic tilt, so that (beta - ph) + ph is beta exactly; a tilt by
        # Phi(0.8) need not round back onto the pole
        ph = 0.75
        transform = _tilted_transform(self.MODEL, 0.8, ph)
        vals = transform(beta - ph)
        assert vals[0] == 0.0 and vals[1] == 0.0 and vals[2] != 0.0
        assert np.isinf(_psi_c(EXPJ, np.array([-1.7]))[0])


class TestJumpSampling:
    def test_exponential_inverse_cdf(self):
        # the tail quantile of a body-free density is the closed form, bit for bit
        u = np.array([0.0, 0.1, 0.5, 0.93, 1.0 - 2.0**-53])
        out = sample_jump_sizes(EXPJ, u)
        np.testing.assert_array_equal(out, -np.log1p(-u) / 1.7)

    def test_no_jump_model_rejects(self):
        with pytest.raises(DomainError):
            sample_jump_sizes(CANON, np.array([0.5]))

    def test_tabulated_quantile_roundtrip(self):
        tab = tabulated_exp_density()
        model = LevyModel(mu=0.25, b2=0.1, jumps=tab)
        r, zN, vN = tab.tail_rate, tab.grid[-1], tab.values[-1]

        def mass_above(z):
            # the density is linear between grid points, so trapezoids are exact
            zs = np.array([z] + [g for g in tab.grid if g > z])
            fs = np.interp(zs, tab.grid, tab.values)
            body = float(np.sum((fs[1:] + fs[:-1]) * np.diff(zs))) / 2.0
            return body + vN / r * math.exp(-r * max(z - zN, 0.0))

        total = jump_intensity(model)
        u = np.array([0.05, 0.3, 0.62, 0.9, 0.995, 1.0 - 5e-8])
        zs = sample_jump_sizes(model, u)
        assert np.all(np.diff(zs) > 0)
        assert zs[-1] > zN > zs[-2]
        for ui, zi in zip(u[:-1], zs[:-1]):
            # exceedance mass above the quantile must equal (1-u) * intensity
            assert mass_above(zi) == pytest.approx((1 - ui) * total, rel=1e-9)
        # the tail quantile is solved in u, whose spacing near 1 is ~2e-9 of 1 - u
        assert mass_above(zs[-1]) == pytest.approx((1 - u[-1]) * total, rel=1e-7)

    def test_tabulated_mean_jump(self):
        tab = tabulated_exp_density()
        model = LevyModel(mu=0.25, b2=0.1, jumps=tab)
        u = (np.arange(20000) + 0.5) / 20000
        mean = float(np.mean(sample_jump_sizes(model, u)))
        assert mean == pytest.approx(0.5040000061418205, rel=2e-3)


class TestJumpPassageMeans:
    """Means over a crossing jump, against quadrature of the normal form."""

    TAB = LevyModel(0.25, 0.1, tabulated_exp_density(101))

    @staticmethod
    def density(model, z):
        knots, values, r = model.jumps._pieces
        if z >= knots[-1]:
            return values[-1] * math.exp(-r * (z - knots[-1]))
        return float(np.interp(z, knots, values, left=0.0))

    def quadrature(self, model, y, lo, f, kinks=()):
        """``integral_lo^inf f(y + z) pi(z) dz``, split at the knots and at
        the payoff's ``kinks`` (log shares), which a single Gauss-Kronrod
        panel can step over."""
        knots = [*model.jumps._pieces[0], *(k - y for k in kinks)]
        edges = sorted({lo, *(k for k in knots if k > lo)})
        edges.append(edges[-1] + 60.0)   # the tail beyond holds < e^-40 of it
        return sum(integrate.quad(lambda z: f(y + z) * self.density(model, z), a, b,
                                  epsabs=0.0, epsrel=1e-13, limit=200)[0]
                   for a, b in zip(edges, edges[1:]))

    @pytest.mark.parametrize("model", [EXPJ, TAB], ids=["EXPJ", "TAB"])
    @pytest.mark.parametrize("y,tau,sigma", [
        (-0.3, 0.2, 0.5), (0.1, 0.9, 0.4), (-2.0, 0.5, 0.5), (0.5, 0.6, 0.65),
        (-1.0, 3.0, 0.2), (0.198, 0.2, 0.3), (-9.0, 0.5, 0.6)])
    def test_matches_quadrature(self, model, y, tau, sigma):
        # the starts put the level below the body's first knot, inside it and
        # past its last knot (8), and the cap log 2 below, inside and above
        # the called range
        cap, level = 2.0, min(tau, sigma)
        share, pay = jump_passage_means(model, np.array([y]), level, sigma, cap)
        mass = self.quadrature(model, y, level - y, lambda s: 1.0)
        want_share = self.quadrature(model, y, level - y, math.exp) / mass
        want_pay = self.quadrature(
            model, y, level - y,
            lambda s: max(cap, math.exp(s)) if s >= sigma else math.exp(s),
            kinks=(sigma, math.log(cap))) / mass
        assert share[0] == pytest.approx(want_share, rel=1e-11)
        assert pay[0] == pytest.approx(want_pay, rel=1e-11)

    def test_defaults_pay_the_share(self):
        y = np.array([-0.5, 0.1])
        share, pay = jump_passage_means(EXPJ, y, 0.3)
        np.testing.assert_array_equal(pay, share)
        # memoryless exponential sizes: e^level rho / (rho - 1)
        np.testing.assert_allclose(share, math.exp(0.3) * 1.7 / 0.7, rtol=1e-14)
