"""Scale-function tests: closed forms, numeric inversion, transform identities.

Frozen numbers come from an independent partial-fraction oracle whose output
was itself validated against the Laplace-transform identity by quadrature
(residuals ~1e-16) before this module existed.
"""

import math
import time

import numpy as np
import pytest
from scipy.interpolate import PchipInterpolator

from levybond import (
    AccuracyError,
    DomainError,
    ExponentialJumps,
    LevyModel,
    TabulatedDensity,
    bounded_variation_model,
    laplace_exponent,
)
from levybond.scale import (
    _CACHE_HI,
    Method,
    _pchip_at,
    _pchip_table,
    _w_combination,
    laplace_selfcheck,
    scale_evaluator,
    tilted_w,
    w,
    w_integrals,
    w_prime,
    z,
)

CANON = LevyModel(mu=0.0, b2=2.0)
BV_RHO1 = bounded_variation_model(2.0, ExponentialJumps(rate=1.0, decay=1.0))
EXPJ = LevyModel(mu=0.1, b2=0.3, jumps=ExponentialJumps(rate=0.8, decay=1.7))
BV2 = bounded_variation_model(2.0, ExponentialJumps(rate=1.0, decay=2.0))


def tabulated_exp_density(n: int = 401, z_hi: float = 8.0) -> TabulatedDensity:
    zg = np.linspace(0.004, z_hi, n)
    return TabulatedDensity(zg, 2.0 * np.exp(-2.0 * zg), 2.0)


class TestClosedForms:
    def test_canonical_is_scaled_sinh(self):
        ev = scale_evaluator(CANON, 1.0)
        assert ev.method is Method.CLOSED_FORM and len(ev.roots) == 2
        assert w(ev, 1.0) == pytest.approx(1.1752011936438014, rel=1e-12)
        assert w(ev, 2.5) == pytest.approx(6.0502044810397875, rel=1e-12)
        assert w(ev, -0.5) == 0.0
        assert ev.w0 == 0.0
        assert ev.w0_prime == pytest.approx(1.0)

    def test_canonical_z_and_derivative(self):
        ev = scale_evaluator(CANON, 1.0)
        assert z(ev, 1.0) == pytest.approx(1.5430806348152437, rel=1e-11)
        assert z(ev, -2.0) == 1.0
        assert z(ev, 0.0) == 1.0
        assert w_prime(ev, 1.0) == pytest.approx(1.5430806348152437, rel=1e-12)

    def test_canonical_integrals(self):
        ev = scale_evaluator(CANON, 1.0)
        assert w_integrals(ev, 0.0) == (0.0, 0.0)
        i_w, i_ew = w_integrals(ev, 1.0)
        assert i_w == pytest.approx(math.cosh(1.0) - 1.0, rel=1e-12)
        assert i_ew == pytest.approx(1.0972640247326624, rel=1e-12)

    def test_bv_family(self):
        ev = scale_evaluator(BV_RHO1, 1.0)
        assert ev.method is Method.CLOSED_FORM and len(ev.roots) == 2
        assert ev.w0 == pytest.approx(0.5, rel=1e-13)
        # bounded variation, drift 2, unit jump intensity: (q + rate)/d^2
        assert ev.w0_prime == pytest.approx(0.5, rel=1e-13)
        assert w(ev, 1.0) == pytest.approx(1.1730167388969817, rel=1e-12)
        assert w(ev, 2.5) == pytest.approx(3.5177917700407555, rel=1e-12)
        assert w(ev, 0.0) == pytest.approx(0.5)

    def test_three_exp_family(self):
        ev = scale_evaluator(EXPJ, 1.2)
        assert ev.method is Method.CLOSED_FORM and len(ev.roots) == 3
        assert ev.w0 == 0.0
        assert ev.w0_prime == pytest.approx(2.0 / 0.3, rel=1e-13)
        assert w(ev, 1.0) == pytest.approx(11.115153772015244, rel=1e-11)
        assert w(ev, 0.3) == pytest.approx(1.7439391058677234, rel=1e-11)
        assert w_prime(ev, 1.0) == pytest.approx(26.949782463939542, rel=1e-11)
        i_w, i_ew = w_integrals(ev, 2.0)
        assert i_w == pytest.approx(50.46408414747353, rel=1e-10)
        assert i_ew == pytest.approx(266.12525628224665, rel=1e-10)

    def test_zero_discount_rate(self):
        drifted = LevyModel(mu=-3.0, b2=2.0)  # psi = theta^2 - 3 theta
        ev = scale_evaluator(drifted, 0.0)
        assert w(ev, 1.0) == pytest.approx((math.e**3 - 1.0) / 3.0, rel=1e-11)
        assert z(ev, 5.0) == 1.0

    def test_driftless_zero_rate_falls_back_to_inversion(self):
        # psi = theta^2 has a double root at 0; closed form must step aside
        ev = scale_evaluator(CANON, 0.0)
        assert ev.method is Method.NUMERIC_INVERSION
        assert w(ev, 1.0) == pytest.approx(1.0, rel=1e-7)  # W(x) = 2x/b2 = x
        assert w(ev, 3.0) == pytest.approx(3.0, rel=1e-7)


class TestNumericInversion:
    @pytest.mark.parametrize("model, q", [(CANON, 1.0), (BV_RHO1, 1.0), (EXPJ, 1.2)])
    def test_matches_closed_forms(self, model, q):
        closed = scale_evaluator(model, q)
        numeric = scale_evaluator(model, q, Method.NUMERIC_INVERSION)
        assert numeric.method is Method.NUMERIC_INVERSION
        xs = np.geomspace(0.01, 10.0, 60)
        for xv in xs:
            assert w(numeric, float(xv)) == pytest.approx(
                w(closed, float(xv)), rel=1e-6
            )

    def test_cache_shape_and_monotone_grid(self):
        ev = scale_evaluator(CANON, 1.0, Method.NUMERIC_INVERSION)
        assert ev.cache.shape[1] == 2
        assert np.all(np.diff(ev.cache[:, 0]) > 0)
        assert np.all(np.diff(ev.cache[:, 1]) > -1e-12)
        # a closed form sums over its roots and builds neither table
        for model, q in [(CANON, 1.0), (EXPJ, 1.2), (BV_RHO1, 1.0)]:
            closed = scale_evaluator(model, q)
            assert closed.roots is not None
            assert closed.cache is None and closed._tilted is None

    def test_beyond_cache_direct_inversion(self):
        closed = scale_evaluator(CANON, 1.0)
        numeric = scale_evaluator(CANON, 1.0, Method.NUMERIC_INVERSION)
        assert w(numeric, 55.0) == pytest.approx(w(closed, 55.0), rel=1e-6)

    def test_numeric_derivative_certified(self):
        closed = scale_evaluator(EXPJ, 1.2)
        numeric = scale_evaluator(EXPJ, 1.2, Method.NUMERIC_INVERSION)
        assert w_prime(numeric, 1.0) == pytest.approx(w_prime(closed, 1.0), rel=1e-6)

    @pytest.mark.parametrize("model, q", [
        (EXPJ, 1.2), (CANON, 1.0), (BV2, 1.0),
        (LevyModel(mu=0.25, b2=0.1, jumps=ExponentialJumps(1.0, 2.0)), 0.8),
    ], ids=["EXPJ", "CANON", "BV2", "EXP_LOW_VOL"])
    def test_numeric_derivative_matches_closed_form(self, model, q):
        # the transform-inverted derivative, near 0 and far out
        closed = scale_evaluator(model, q)
        numeric = scale_evaluator(model, q, Method.NUMERIC_INVERSION)
        for xv in (0.01, 0.1, 3.0, 10.0):
            assert w_prime(numeric, xv) == pytest.approx(w_prime(closed, xv), rel=1e-9, abs=0.0)

    def test_closed_form_refused_for_tabulated(self):
        model = LevyModel(mu=0.25, b2=0.1, jumps=tabulated_exp_density())
        with pytest.raises(DomainError):
            scale_evaluator(model, 0.8, Method.CLOSED_FORM)


class TestTabulatedInversion:
    def test_tracks_exponential_family(self):
        # tabulation of the same nominal density; only interpolation distance
        tab_model = LevyModel(mu=0.25, b2=0.1, jumps=tabulated_exp_density())
        exp_model = LevyModel(mu=0.25, b2=0.1, jumps=ExponentialJumps(1.0, 2.0))
        ev_t = scale_evaluator(tab_model, 0.8)
        ev_e = scale_evaluator(exp_model, 0.8)
        assert ev_t.method is Method.NUMERIC_INVERSION
        for xv in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0):
            assert w(ev_t, xv) == pytest.approx(w(ev_e, xv), rel=5e-3)

    def test_bounded_variation_boundary(self):
        tab_model = bounded_variation_model(2.0, tabulated_exp_density())
        ev = scale_evaluator(tab_model, 0.5)
        assert ev.w0 == pytest.approx(0.5, rel=1e-12)
        assert w(ev, 0.0) == pytest.approx(0.5)
        # approach from the right stays near the boundary value
        assert w(ev, 1e-4) == pytest.approx(0.5, abs=2e-3)

    def test_cold_build_is_fast(self):
        # the 401-node Euler build, certification included, bypassing the memo
        model = LevyModel(mu=0.25, b2=0.1, jumps=tabulated_exp_density())
        t0 = time.perf_counter()
        ev = scale_evaluator.__wrapped__(model, 0.8)
        assert time.perf_counter() - t0 < 5.0
        assert ev.method is Method.NUMERIC_INVERSION

    def test_cache_matches_40_digit_euler_sum(self):
        # the same Euler sum, with psi of the same piecewise-linear density
        # cell by cell at 40 digits, at five knots from 1e-4 to 50.  Float
        # roundoff, amplified by the rule's e^(A/2)/x, leaves ~3e-12 here
        # (up to 6e-12 over nine knots of the 401-node table at q 1.05,
        # summation order aside); a rung recurrence off by 1e-11 in
        # magnitude per rung reads ~1e-8
        mp = pytest.importorskip("mpmath")
        from levybond.scale import _EULER_A, _EULER_ME, _EULER_N

        tab = tabulated_exp_density(n=101)
        model = LevyModel(mu=0.1, b2=0.3, jumps=tab)
        ev = scale_evaluator(model, 2.6)
        with mp.workdps(40):
            z = [mp.mpf(u) for u in tab.grid]
            v = [mp.mpf(y) for y in tab.values]
            r = mp.mpf(tab.tail_rate)
            cells, m1 = [], mp.mpf(0)
            for z0, z1, v0, v1 in zip(z, z[1:], v, v[1:]):
                m = (v1 - v0) / (z1 - z0)
                cells.append((v0, v1, m, (v0 + v1) * (z1 - z0) / 2))
                lo, hi = min(z0, 1), min(z1, 1)
                m1 += (v0 - m * z0) * (hi**2 - lo**2) / 2 + m * (hi**3 - lo**3) / 3

            def psi(beta):
                ex = [mp.exp(-beta * u) for u in z]
                out = (mp.mpf(0.1) * beta + mp.mpf(0.3) / 2 * beta**2 + beta * m1
                       + v[-1] / r * (r * ex[-1] / (r + beta) - 1))
                for k, (v0, v1, m, mass) in enumerate(cells):
                    out -= ((v1 * ex[k + 1] - v0 * ex[k]) / beta
                            + m * (ex[k + 1] - ex[k]) / beta**2 + mass)
                return out

            A, ph, q = mp.mpf(_EULER_A), mp.mpf(ev.phi_q), mp.mpf(2.6)
            for i in (1, 512, 1024, 1536, 2048):
                xv, wv = ev.cache[i].tolist()
                x = mp.mpf(xv)
                partial, acc = [], mp.mpf(0)
                for k in range(_EULER_N + _EULER_ME + 1):
                    g = (1 / (psi(A / (2 * x) + 1j * k * mp.pi / x + ph) - q)).real
                    acc += g / 2 if k == 0 else (-1) ** k * g
                    partial.append(acc)
                avg = mp.fsum(math.comb(_EULER_ME, j) * partial[_EULER_N + j]
                              for j in range(_EULER_ME + 1))
                want = mp.exp(ph * x + A / 2) / x * avg / 2**_EULER_ME
                assert wv == pytest.approx(float(want), rel=2e-11, abs=0.0), xv

    def test_derivative_matches_family(self):
        tab_model = LevyModel(mu=0.25, b2=0.1, jumps=tabulated_exp_density())
        exp_model = LevyModel(mu=0.25, b2=0.1, jumps=ExponentialJumps(1.0, 2.0))
        d_tab = w_prime(scale_evaluator(tab_model, 0.8), 1.0)
        d_exp = w_prime(scale_evaluator(exp_model, 0.8), 1.0)
        assert d_tab == pytest.approx(d_exp, rel=5e-3)

    def test_derivative_near_zero_matches_family(self):
        tab_model = LevyModel(mu=0.25, b2=0.1, jumps=tabulated_exp_density())
        exp_model = LevyModel(mu=0.25, b2=0.1, jumps=ExponentialJumps(1.0, 2.0))
        d_tab = w_prime(scale_evaluator(tab_model, 0.8), 0.01)
        d_exp = w_prime(scale_evaluator(exp_model, 0.8), 0.01)
        assert d_tab == pytest.approx(d_exp, rel=5e-3)


class TestCacheLookup:
    def test_bitwise_equal_to_pchip(self):
        ev = scale_evaluator(EXPJ, 1.2, Method.NUMERIC_INVERSION)
        grid = ev.cache[:, 0]
        tilted = ev.cache[:, 1] * np.exp(-ev.phi_q * grid)
        pchip = PchipInterpolator(grid, tilted, extrapolate=False)
        table = _pchip_table(grid, tilted)
        xs = np.concatenate([np.random.default_rng(5).uniform(0.0, _CACHE_HI, 20000),
                             grid, [_CACHE_HI]])
        got = np.array([_pchip_at(table, x) for x in xs.tolist()])
        assert got.tobytes() == pchip(xs).tobytes()

    def test_w_reproduces_the_cache_at_knots(self):
        ev = scale_evaluator(CANON, 1.0, Method.NUMERIC_INVERSION)
        for xv, wv in ev.cache[1::97].tolist() + [ev.cache[-1].tolist()]:
            assert w(ev, xv) == pytest.approx(wv, rel=1e-15, abs=0.0)


class TestTransformIdentity:
    @pytest.mark.parametrize("model, q", [(CANON, 1.0), (BV_RHO1, 1.0)])
    def test_closed_forms_tight(self, model, q):
        ev = scale_evaluator(model, q)
        beta = ev.phi_q + 2.0
        assert laplace_selfcheck(ev, beta) <= 1e-8

    @pytest.mark.parametrize("model, q", [(CANON, 1.0), (BV_RHO1, 1.0), (EXPJ, 1.2)])
    @pytest.mark.parametrize("offset", [0.5, 1.0, 3.0])
    def test_all_families_within_tolerance(self, model, q, offset):
        ev = scale_evaluator(model, q)
        assert laplace_selfcheck(ev, ev.phi_q + offset) <= 1e-6

    def test_numeric_route_within_tolerance(self):
        ev = scale_evaluator(CANON, 1.0, Method.NUMERIC_INVERSION)
        for offset in (0.5, 1.0, 3.0):
            assert laplace_selfcheck(ev, ev.phi_q + offset) <= 1e-6

    def test_rejects_beta_at_singularity(self):
        ev = scale_evaluator(CANON, 1.0)
        with pytest.raises(DomainError):
            laplace_selfcheck(ev, ev.phi_q + 0.05)


class TestShapeInvariants:
    @pytest.mark.parametrize("model, q", [(CANON, 1.0), (BV_RHO1, 1.0), (EXPJ, 1.2)])
    def test_w_and_z_nondecreasing(self, model, q):
        ev = scale_evaluator(model, q)
        grid = np.linspace(0.0, 10.0, 200)
        wa = np.array([w(ev, float(xv)) for xv in grid])
        za = np.array([z(ev, float(xv)) for xv in grid])
        assert np.all(np.diff(wa) >= -1e-12 * np.abs(wa[:-1]))
        assert np.all(np.diff(za) >= -1e-12 * np.abs(za[:-1]))

    @pytest.mark.parametrize("model, q", [(CANON, 1.0), (BV_RHO1, 1.0), (EXPJ, 1.2)])
    def test_exit_combination_is_a_probability(self, model, q):
        # Z(y) - (q/Phi) W(y) is a discounted exit functional: in (0, 1]
        ev = scale_evaluator(model, q)
        for y in np.linspace(0.0, 8.0, 30):
            val = z(ev, float(y)) - q / ev.phi_q * w(ev, float(y))
            assert 0.0 < val <= 1.0 + 1e-12

    def test_boundary_derivative_extrapolation(self):
        for model, q, expect in [(CANON, 1.0, 1.0), (BV_RHO1, 1.0, 0.5)]:
            ev = scale_evaluator(model, q)
            h = 1e-6
            slope = (w(ev, h) - ev.w0) / h
            assert slope == pytest.approx(expect, rel=1e-3)

    def test_bv_derivative_finite_difference(self):
        ev = scale_evaluator(BV_RHO1, 1.0)
        for xv in np.linspace(0.1, 5.0, 12):
            h = 1e-5 * max(1.0, xv)
            fd = (w(ev, xv + h) - w(ev, xv - h)) / (2 * h)
            assert w_prime(ev, float(xv)) == pytest.approx(fd, rel=1e-5)


class TestCombination:
    """``_w_combination`` groups the partial-fraction root at Phi(q) on the
    closed route; the numeric route evaluates the same expression from W and
    its integrals, so the two must agree on the solver's coefficient triples."""

    @staticmethod
    def triples(model, q, phi_q):
        alpha, beta, K, c = 1.0, 1.0, 2.0, 0.3
        s = q - laplace_exponent(model, -1.0) - beta
        bc = beta * math.exp(c)
        return {
            "exit": (-1.0, phi_q, 0.0),
            "premium": (0.0, -phi_q, phi_q + 1.0),
            "simultaneous": (alpha / phi_q - K * s / (phi_q + 1.0), -alpha, s * K),
            "early_call": (alpha / phi_q + bc / (phi_q + 1.0) - K * q / phi_q,
                           K * q - alpha, -bc),
        }

    @pytest.mark.parametrize("model, q", [(CANON, 0.5), (CANON, 4.0), (BV2, 0.8),
                                          (BV2, 2.0), (EXPJ, 2.8)])
    def test_closed_route_matches_inversion(self, model, q):
        closed = scale_evaluator(model, q)
        numeric = scale_evaluator(model, q, Method.NUMERIC_INVERSION)
        assert closed.roots is not None and numeric.roots is None
        for v in np.geomspace(0.05, 2.0, 12).tolist():
            wv = w(closed, v)
            i0, i1 = w_integrals(closed, v)
            for name, (a, b, c) in self.triples(model, q, closed.phi_q).items():
                # the numeric route cancels e^(Phi v)-sized terms, so its
                # error scales with the terms, not with their sum
                size = abs(a) * wv + abs(b) * (i0 + 1.0 / q) + abs(c) * math.exp(-v) * i1
                got = _w_combination(closed, v, a, b, c)
                ref = _w_combination(numeric, v, a, b, c)
                assert abs(got - ref) <= 1e-6 * size, (name, v, got, ref)


class TestIntegralTables:
    """``w_integrals`` on the numeric route reads tables built at the cache
    knots; past the cache it adds a panel sum over direct inversions."""

    # adaptive quadrature (epsrel 1e-10) of the same forced-inversion
    # evaluators at x = 60, past the cache edge
    QUAD_AT_60 = {
        "CANON": (5.710036949078599e+25, 3.2604521959840846e+51),
        "EXPJ": (9.03897008048924e+61, 7.279146307319263e+87),
        "BV2": (12721993549432.742, 4.842870215547095e+38),
    }

    @pytest.mark.parametrize("name, model, q", [("CANON", CANON, 1.0), ("EXPJ", EXPJ, 1.2),
                                                ("BV2", BV2, 0.8)])
    def test_tables_match_closed_forms(self, name, model, q):
        closed = scale_evaluator(model, q)
        numeric = scale_evaluator(model, q, Method.NUMERIC_INVERSION)
        assert closed._integrals is None and numeric._integrals is not None
        for x in np.geomspace(0.1, _CACHE_HI, 25).tolist():
            for got, want in zip(w_integrals(numeric, x), w_integrals(closed, x)):
                assert got == pytest.approx(want, rel=1e-10, abs=0.0), x
        for got, want in zip(w_integrals(numeric, 60.0), self.QUAD_AT_60[name]):
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)


class TestTilt:
    def test_zero_tilt_reduces(self):
        ev = scale_evaluator(EXPJ, 1.2)
        assert tilted_w(EXPJ, 0.0, 1.2, 1.3) == pytest.approx(w(ev, 1.3), rel=1e-13)

    @pytest.mark.parametrize("model, lam, p, x", [
        (CANON, -1.0, 3.0, 1.0),
        (CANON, 0.7, 0.9, 2.0),
        (EXPJ, 0.6, 1.0, 1.4),
        (EXPJ, -0.5, 2.0, 0.6),
    ])
    def test_tilt_identity(self, model, lam, p, x):
        # the tilted process's own scale function vs the shifted-level formula
        lhs = tilted_w(model, lam, p, x) * math.exp(lam * x)
        shifted = p + laplace_exponent(model, lam)
        rhs = w(scale_evaluator(model, shifted), x)
        assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_tabulated_tilt_identity(self):
        # the tilted density is re-tabulated on the same grid, so the identity
        # holds to its interpolation error (~5e-5 here), not to rounding
        model = LevyModel(mu=0.25, b2=0.1, jumps=tabulated_exp_density())
        lhs = tilted_w(model, 0.5, 0.8, 1.2) * math.exp(0.5 * 1.2)
        rhs = w(scale_evaluator(model, 0.8 + laplace_exponent(model, 0.5)), 1.2)
        assert lhs == pytest.approx(rhs, rel=5e-4)

    def test_unit_tilt_recovers_conversion_weighting(self):
        # lam=-1, p=q-psi(-1): tilted scale equals e^x W^(q)(x)
        q = 4.0
        p = q - laplace_exponent(CANON, -1.0)
        lhs = tilted_w(CANON, -1.0, p, 1.5)
        rhs = math.exp(1.5) * w(scale_evaluator(CANON, q), 1.5)
        assert lhs == pytest.approx(rhs, rel=1e-9)


class TestValidation:
    def test_negative_rate_rejected(self):
        with pytest.raises(DomainError):
            scale_evaluator(CANON, -1.0)

    def test_integral_domain(self):
        ev = scale_evaluator(CANON, 1.0)
        with pytest.raises(DomainError):
            w_integrals(ev, -0.1)
        with pytest.raises(DomainError):
            w_prime(ev, 0.0)
