"""Model-layer tests: Laplace exponent, right inverse, tilts, jump integrals.

Frozen expected numbers come from independent quadrature oracles (adaptive
Gauss-Kronrod on the defining integrals; kink-aware refined trapezoids for the
tabulated family) computed before the closed forms were written.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, optimize

import levybond.model as model_module
from levybond import (
    BracketError,
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
from levybond.model import (
    _EXP_GUARD,
    _body_expm1,
    _excess_transform,
    _jump_expm1,
    _jump_exponent_real,
    _psi_c,
    _psi_fraction,
    brentq,
    jump_excess,
    jump_passage_means,
)
from levybond.scale import _NODES, _TALBOT_RADIUS, _resolvent_transform, scale_evaluator

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

    def test_unbracketed_root_raises(self, monkeypatch):
        # an exponent that never climbs past p leaves no sign change on [0, 2^79]
        monkeypatch.setattr(model_module, "laplace_exponent", lambda model, theta: -1.0)
        with pytest.raises(DomainError, match="could not bracket the inverse of psi at p=0.5"):
            phi.__wrapped__(CANON, 0.5)

    @pytest.mark.parametrize("model", [CANON, BV_RHO1, EXPJ, "tabulated"])
    def test_memoised_root_is_the_solved_root(self, model):
        if model == "tabulated":
            model = LevyModel(0.1, 0.3, tabulated_exp_density(101))
        # phi is memoised per (model, p): a hit, a miss and an equal model
        # built anew all return the float the root finder returns
        for p in (0.0, 0.3, 1.25, 1.25, 6.0):
            assert phi(model, p) == phi.__wrapped__(model, p)
        rebuilt = LevyModel(model.mu, model.b2, model.jumps)
        assert phi(rebuilt, 1.25) == phi.__wrapped__(rebuilt, 1.25)
        with pytest.raises(DomainError):
            phi(model, math.nan)


class TestBrent:
    """``model.brentq`` against ``scipy.optimize.brentq``: the same root, bit for bit."""

    @staticmethod
    def same_root(f, lo, hi, **tol):
        got = brentq(f, lo, hi, **tol)
        want = optimize.brentq(f, lo, hi, **{"xtol": 1e-300, "rtol": 8.9e-16,
                                             "maxiter": 256, **tol})
        assert type(got) is float
        assert got.hex() == float(want).hex(), (got, want)
        return got

    @pytest.mark.parametrize("model", [CANON, EXPJ, BV_RHO2, "TAB101"],
                             ids=["CANON", "EXPJ", "BV2", "TAB101"])
    @pytest.mark.parametrize("p", [1e-3, 0.25, 1.0, 4.0, 17.0])
    def test_phi_function(self, model, p):
        if model == "TAB101":
            model = LevyModel(0.1, 0.3, tabulated_exp_density(101))

        def f(th):
            return laplace_exponent(model, th) - p

        hi = 1.0
        while f(hi) <= 0.0:
            hi *= 2.0
        assert self.same_root(f, 0.0, hi) == phi(model, p)

    @pytest.mark.parametrize("tol", [{}, {"xtol": 1e-14}, {"xtol": 1e-6}])
    @pytest.mark.parametrize("lo, hi", [(2.0, 3.0), (3.0, 2.0), (-10.0, 10.0)])
    def test_cubic(self, lo, hi, tol):
        root = self.same_root(lambda x: x ** 3 - 2.0 * x - 5.0, lo, hi, **tol)
        assert root == pytest.approx(2.0945514815423265, rel=1e-6)

    @pytest.mark.parametrize("lo, hi", [(1.0, 2.0), (0.0, 1.0), (2.0, 1.0)])
    def test_root_at_an_endpoint(self, lo, hi):
        assert self.same_root(lambda x: x - 1.0, lo, hi) == 1.0

    @pytest.mark.parametrize("tol", [{}, {"xtol": 1e-14}])
    def test_step_function(self, tol):
        root = self.same_root(lambda x: -1.0 if x < 0.3 else 1.0, 0.0, 1.0, **tol)
        assert root == pytest.approx(0.3, abs=1e-13)

    def test_no_sign_change(self):
        with pytest.raises(BracketError, match="no sign change"):
            brentq(lambda x: x * x + 1.0, -1.0, 2.0)

    def test_maxiter(self, monkeypatch):
        # scipy raises RuntimeError there, and BracketError is one
        monkeypatch.setattr(model_module, "_BRENT_MAXITER", 3)
        with pytest.raises(BracketError, match="no convergence in 3 steps"):
            brentq(lambda x: x ** 3 - 2.0 * x - 5.0, -10.0, 10.0)
        assert issubclass(BracketError, RuntimeError)

    def test_nan(self):
        with pytest.raises(BracketError, match="nan at an end"):
            brentq(lambda x: math.nan if x > 0.5 else -1.0, 0.0, 1.0)
        with pytest.raises(BracketError, match="nan at 0.5"):
            brentq(lambda x: math.nan if 0.4 < x < 0.6 else x - 0.5, 0.0, 1.0)


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


class TestJumpIntegral:
    """``_jump_expm1``: ``integral_(u >= lo) pi(u) expm1(a (u - s)) du``, the
    one jump integral behind psi, its continuation, I1/I2, G and G's transform."""

    _zg = np.linspace(0.004, 8.0, 401)
    # a body that ends at 0 at the last knot, so the density has no tail
    NO_TAIL = TabulatedDensity(_zg, 2.0 * np.exp(-2.0 * _zg) * (1.0 - _zg / 8.0), 2.0)
    JUMPS = {"EXPJ": EXPJ.jumps, "TAB": tabulated_exp_density(), "NO_TAIL": NO_TAIL}

    @staticmethod
    def quadrature(jumps, lo, s, a):
        """The defining integral: one adaptive quad per linear cell above
        ``lo`` and one over the tail out to where it holds < e^-40 of it."""
        knots, values, r = jumps._pieces
        pieces = [(max(z0, lo), z1,
                   lambda u, z0=z0, v0=v0, k=(v1 - v0) / (z1 - z0): v0 + k * (u - z0))
                  for z0, z1, v0, v1 in zip(knots, knots[1:], values, values[1:]) if z1 > lo]
        if jumps._tail_mass > 0.0:
            start = max(lo, knots[-1])
            pieces.append((start, start + 40.0 / (r - max(a.real, 0.0)),
                           lambda u: values[-1] * math.exp(-r * (u - knots[-1]))))

        def expm1(u):  # of a (u - s), its real part without cancellation
            x, y = a.real * (u - s), a.imag * (u - s)
            return complex(math.expm1(x) * math.cos(y) - 2.0 * math.sin(y / 2.0) ** 2,
                           math.exp(x) * math.sin(y))

        total = 0j
        for u0, u1, f in pieces:
            total += integrate.quad(lambda u: f(u) * expm1(u).real, u0, u1, epsabs=0.0,
                                    epsrel=1e-13, limit=200)[0]
            if a.imag:
                total += 1j * integrate.quad(lambda u: f(u) * expm1(u).imag, u0, u1,
                                             epsabs=0.0, epsrel=1e-13, limit=200)[0]
        return total

    @pytest.mark.parametrize("name", list(JUMPS))
    @pytest.mark.parametrize("lo, s", [(0.0, 0.0), (0.002, -0.3), (2.5, 1.0), (9.0, 8.5)],
                             ids=["from-0", "below-first-knot", "in-body", "past-last-knot"])
    def test_matches_quadrature(self, name, lo, s):
        jumps = self.JUMPS[name]
        ph = phi(LevyModel(0.25, 0.1, jumps), 1.05)
        for a in (-ph, 0.3, 1.0, -1.5 - 2.0j):
            got = complex(_jump_expm1(jumps, lo, s, a))
            want = self.quadrature(jumps, lo, s, complex(a))
            assert abs(got - want) <= 1e-12 * abs(want) + 1e-15, (a, got, want)

    def test_real_scalar_gives_a_float(self):
        # a tail-only density stays in math; past exp's range its tail is
        # inf, not an OverflowError
        jumps = EXPJ.jumps
        for lo, s, a in [(0.0, 0.0, -1.3), (0.4, 0.4, 1.0), (0.0, -800.0, 1.0)]:
            assert type(_jump_expm1(jumps, lo, s, a)) is float
        assert _jump_expm1(jumps, 0.0, -800.0, 1.0) == math.inf
        assert type(_jump_expm1(self.JUMPS["TAB"], 0.3, 0.3, 1.0)) is float

    @pytest.mark.parametrize("name", ["TAB401", "TAB101", "NO_TAIL"])
    @pytest.mark.parametrize("lo, s", [(0.0, 0.0), (2.5, 1.0), (9.0, 8.5)],
                             ids=["from-0", "in-body", "past-last-knot"])
    def test_real_scalar_is_the_one_point_array(self, name, lo, s):
        # the root finders' real scalar takes its own branch through the
        # body; its bits are those of the complex one-point array's
        jumps = {"TAB401": tabulated_exp_density(401), "TAB101": tabulated_exp_density(101),
                 "NO_TAIL": self.NO_TAIL}[name]
        knots, _, r = jumps._pieces
        zN = knots[-1]
        reach = zN - s if lo < zN else 1.0  # past the last knot only the tail reads a
        taylor, by_parts, guarded = 0.5 / reach, (-1.3, 0.7, 3.0), 1.01 * _EXP_GUARD / reach
        for a in (taylor, -taylor, *by_parts, guarded):
            want = 0.0
            if lo < zN:
                want = float(_body_expm1(jumps._body.cut(lo, s), np.array([a + 0j]))[0].real)
            if jumps._tail_mass > 0.0:
                start = max(lo, zN)
                x = a * (start - s)
                mass = jumps._tail_mass * (math.exp(-r * (start - zN)) if start > zN else 1.0)
                grow = math.expm1(x) if x <= 709.0 else math.inf
                want = want + mass * (r * grow + a) / (r - a)
            got = _jump_expm1(jumps, lo, s, a)
            assert type(got) is float
            assert got == want, (a, got, want)
            if a == guarded and lo < zN:
                assert got == math.inf

    @pytest.mark.parametrize("n", [401, 101])
    @pytest.mark.parametrize("lo, s", [(0.0, 0.0), (2.5, 1.0), (0.0, -3.0)],
                             ids=["from-0", "in-body", "below-first-knot"])
    def test_taylor_scalar_is_the_one_point_array(self, n, lo, s):
        # a real scalar with |a| w < 1 takes a float Taylor sum; each of its
        # products and sums is the real part of the complex array's, so the
        # bits agree at every point, the ends of the range and 0 included
        body = tabulated_exp_density(n)._body.cut(lo, s)
        reach = float(body.nodes[-1])
        edge = math.nextafter(1.0 / reach, 0.0)
        points = np.random.default_rng(n).uniform(-1.0, 1.0, 200) / reach
        for a in (0.0, -0.0, 5e-324, 1e-9, -1e-9, edge, -edge, *points.tolist()):
            want = float(_body_expm1(body, np.array([a + 0j]))[0].real)
            for got in (_body_expm1(body, a), _body_expm1(body, np.float64(a))):
                assert type(got) is float
                assert got.hex() == want.hex(), (a, got, want)

    @staticmethod
    def by_parts(body, a, step=None):
        """``_body_expm1``'s by-parts ladder formed on every row, none
        skipped: the rung-0 node exponentials, then one turn per rung."""
        rungs = a.shape[-1] if step is not None else 1
        lad = a.reshape(-1, rungs)
        terms = np.exp(np.multiply.outer(lad[:, 0], body.nodes)) * body.weights
        if rungs > 1:
            turn = np.exp(1j * np.multiply.outer(np.ravel(step), body.nodes))
        out = np.empty(lad.shape, dtype=complex)
        for k in range(rungs):
            if k:
                terms = terms * turn
            ak = lad[:, k]
            out[:, k] = (terms[:, 0] + terms[:, -1] - terms[:, 1:-1].sum(axis=1) / ak) / ak
        return (out - body.mass).reshape(a.shape)

    @pytest.mark.parametrize("n", [401, 101])
    @pytest.mark.parametrize("ladder", [True, False], ids=["step", "no-step"])
    @pytest.mark.parametrize("lo, s", [(0.0, 0.0), (2.5, 2.5)], ids=["from-0", "first-node-0"])
    def test_underflowed_rows_skip_bit_for_bit(self, n, ladder, lo, s):
        # Euler ladders A/(2x) + i k pi/x, negated as psi's body reads them,
        # whose real part times the first node straddles -746: past it every
        # node exponential is exactly 0 and the row is -mass without being
        # formed.  A body whose first node is 0 has no dead row.  The formed
        # sum's imaginary zero on a dead rung may carry either sign; the skip
        # writes +0, which compares equal
        body = tabulated_exp_density(n)._body.cut(lo, s)
        u0 = float(body.nodes[0])
        edge = -746.0 / (u0 if u0 else 0.004)
        re = edge * np.array([0.5, 0.99, 1.0 - 1e-12, 1.0, 1.0 + 1e-12, 1.01, 2.0, 1e3, 1e7])
        re = np.concatenate([re, [math.nextafter(edge, 0.0), math.nextafter(edge, -math.inf)]])
        step = np.pi * -re / 10.5  # pi/x at A/(2x) = -re
        a = re[:, None] - 1j * np.arange(34) * step[:, None]
        got = _body_expm1(body, a, -step) if ladder else _body_expm1(body, a)
        want = self.by_parts(body, a, -step if ladder else None)
        assert got.real.tobytes() == want.real.tobytes()
        assert (got.imag == want.imag).all()
        dead = re * u0 < -746.0
        assert dead.any() == (u0 > 0.0) and not dead.all()
        assert (got[dead] == -body.mass).all()

    @staticmethod
    def all_nodes(jumps, lo, s, a, step=None):
        """``_jump_expm1`` formed with nothing skipped: the body by parts on
        every row and node, each rung's quotient taken in the rung, and the
        tail's ``np.expm1`` on every point."""
        knots, _, r = jumps._pieces
        zN = knots[-1]
        total = 0.0
        if lo < zN:
            total = TestJumpIntegral.by_parts(jumps._body.cut(lo, s), a, step)
        start = max(lo, zN)
        mass = jumps._tail_mass * (math.exp(-r * (start - zN)) if start > zN else 1.0)
        return total + mass * (r * np.expm1(a * (start - s)) + a) / (r - a)

    _zb, _zl = np.linspace(0.0, 8.0, 201), np.geomspace(0.004, 8.0, 401)
    # on the log grid a live row's terms stay above an ulp of its sum past the
    # first 48 nodes, so a prefix sum that regrouped them would move its bits
    LADDER_JUMPS = {"TAB401": tabulated_exp_density(401), "TAB101": tabulated_exp_density(101),
                    "BV-TAB101": tabulated_exp_density(101),
                    "FIRST-NODE-0": TabulatedDensity(_zb, 2.0 * np.exp(-2.0 * _zb), 2.0),
                    "LOG-GRID": TabulatedDensity(_zl, 2.0 * np.exp(-2.0 * _zl), 2.0)}

    @staticmethod
    def straddling_rows(jumps, lo, s):
        """First-rung real parts of Euler ladders, ``-A/(2x)``, that straddle
        both thresholds: ``Re(a) u_j = -746`` at nodes across the body (the
        dead rows and the live prefixes) and ``Re(a) d = -746`` for the tail's
        ``d = max(lo, zN) - s``, each edge also one ulp and 1e-12 either side."""
        knots = jumps._pieces[0]
        nodes = jumps._body.cut(lo, s).nodes[1:-1] if lo < knots[-1] else np.array([])
        edges = [-746.0 / (max(lo, knots[-1]) - s)]
        edges += [-746.0 / u for u in nodes[nodes > 0.0][::len(nodes) // 9 or 1]]
        re = [e * f for e in edges for f in (1.0 - 1e-12, 1.0, 1.0 + 1e-12)]
        re += [math.nextafter(e, d) for e in edges for d in (0.0, -math.inf)]
        return np.array(sorted(re) + [-5.0, -0.3])

    @pytest.mark.parametrize("name", list(LADDER_JUMPS))
    @pytest.mark.parametrize("lo, s", [(0.0, 0.0), (2.5, 1.0), (9.0, 8.5)],
                             ids=["from-0", "in-body", "past-last-knot"])
    def test_skips_keep_the_bits(self, name, lo, s):
        # dead tail points (expm1 written as -1), dead trailing nodes and the
        # one quotient per ladder against all_nodes: real parts bit for bit,
        # and each point within 1e-15 of its modulus (an imaginary part
        # cancels to ~1e-9 of it, and a live prefix sums in its own order).
        # Each row alone has its own live prefix; all rows together share the
        # widest, and with rows where Re(a) >= 0 every node is formed
        jumps = self.LADDER_JUMPS[name]
        re = self.straddling_rows(jumps, lo, s)
        step = np.pi * -re / 9.2  # pi/x at A/(2x) = -re
        a = re[:, None] - 1j * np.arange(34) * step[:, None]
        calls = [(a[i:i + 1], -step[i:i + 1]) for i in range(len(re))]
        calls += [(a, -step), (np.concatenate([a, -a[-2:].conj()]),
                                np.concatenate([-step, -step[-2:]]))]
        for lad, st_ in calls:
            for got, want in ((_jump_expm1(jumps, lo, s, lad, st_),
                               self.all_nodes(jumps, lo, s, lad, st_)),
                              (_jump_expm1(jumps, lo, s, lad), self.all_nodes(jumps, lo, s, lad))):
                assert got.shape == lad.shape
                assert got.real.tobytes() == want.real.tobytes(), lad[:, 0]
                assert (abs(got - want) <= 1e-15 * abs(want)).all()
        for a0 in (complex(re[0], 3e9), complex(re[len(re) // 2], -7.0), 0.4 - 2j):
            got, want = _jump_expm1(jumps, lo, s, a0), self.all_nodes(jumps, lo, s, np.array([a0]))
            assert np.shape(got) == ()
            assert complex(got).real.hex() == want[0].real.hex(), a0

    @pytest.mark.parametrize("name", list(LADDER_JUMPS))
    def test_psi_c_keeps_the_bits(self, name):
        # the Euler lattice of laplace_selfcheck at Phi + 0.5, its contour
        # beta = -a, on psi's continuation: real parts bit for bit
        jumps = self.LADDER_JUMPS[name]
        model = (bounded_variation_model(2.0, jumps) if name.startswith("BV")
                 else LevyModel(0.1, 0.3, jumps))
        x = np.exp(np.arange(-73, 15) / 3.0)
        step = np.pi / x
        beta = (18.4 / (2.0 * x) + phi(model, 1.05) + 0.5)[:, None] + 1j * step[:, None] * np.arange(34)
        for got, b, st_ in [(_psi_c(model, beta, step), beta, step),
                            (_psi_c(model, beta), beta, None),
                            (_psi_c(model, beta[40:41], step[40:41]), beta[40:41], step[40:41])]:
            want = model.mu * b + 0.5 * model.b2 * b * b
            with np.errstate(all="ignore"):
                want += self.all_nodes(jumps, 0.0, 0.0, -b, None if st_ is None else -st_)
                want += b * jumps._m1
            want[~np.isfinite(want)] = np.inf
            assert got.real.tobytes() == want.real.tobytes()

    @staticmethod
    def rebuilt(cells, lo, s):
        """The body on ``[lo, knots[-1]]`` about ``s`` built from the cells by
        masks and concatenations, the oracle for a cut: its nodes, weights
        and the moments of orders 1 to 15, each a sum over its cells."""
        z0, z1, p, m = cells
        keep = z1 > lo
        cp, cm = p[keep], m[keep]
        c0 = np.maximum(z0[keep], lo)
        c1 = z1[keep]
        ends = (cp[0] + cm[0] * c0[0], cp[-1] + cm[-1] * c1[-1])
        cp = cp + cm * s
        c0, c1 = c0 - s, c1 - s
        slopes = np.concatenate([[0.0], cm, [0.0]])
        nodes = np.concatenate([c0[:1], c0[:1], c1, c1[-1:]])
        weights = np.concatenate([[-ends[0]], slopes[:-1] - slopes[1:], [ends[1]]])
        moments = [float(np.sum(cp * ((c1 ** (k + 1) - c0 ** (k + 1)) / (k + 1))
                                + cm * ((c1 ** (k + 2) - c0 ** (k + 2)) / (k + 2))))
                   for k in range(1, model_module._TAYLOR_TERMS)]
        return nodes, weights, moments

    @pytest.mark.parametrize("name", [*LADDER_JUMPS, "NO_TAIL"])
    def test_cut_is_the_rebuilt_body(self, name):
        # below the first knot, on a knot, inside a cell and in the last
        # cell, about 0, lo and lo - 1: nodes and weights bit for bit, the
        # moments to 1e-13, and the mass to 1e-13 of a 50-digit sum
        mp = pytest.importorskip("mpmath")
        jumps = {**self.LADDER_JUMPS, "NO_TAIL": self.NO_TAIL}[name]
        knots, values, _ = jumps._pieces
        for lo in (knots[0] / 2, knots[40], (knots[7] + knots[8]) / 2, (knots[-2] + knots[-1]) / 2):
            with mp.workdps(50):
                mass = 0
                for z0, z1, v0, v1 in zip(knots, knots[1:], values, values[1:]):
                    if z1 > lo:
                        z0, z1, v0, v1, u = map(mp.mpf, (z0, z1, v0, v1, max(z0, lo)))
                        mass += (z1 - u) * (v0 + (v1 - v0) * (u - z0) / (z1 - z0) + v1) / 2
                mass = float(mass)
            for s in (0.0, lo, lo - 1.0):
                body = jumps._body.cut(lo, s)
                nodes, weights, moments = self.rebuilt(jumps._cells, lo, s)
                assert body.nodes.tobytes() == nodes.tobytes(), (lo, s)
                assert body.weights.tobytes() == weights.tobytes(), (lo, s)
                assert np.allclose(body.moments[1:], moments, rtol=1e-13, atol=0.0), (lo, s)
                assert abs(body.mass - mass) <= 1e-13 * mass, (lo, s, body.mass, mass)


class TestRealAxisOnce:
    """What the root finders already know is not computed again: psi(0),
    psi(-1) and the hash of a tabulated density."""

    @pytest.mark.parametrize("lo, s", [(0.0, 0.0), (2.5, 1.0)], ids=["from-0", "in-body"])
    def test_zero_forms_no_moment(self, lo, s):
        jumps = tabulated_exp_density(101)
        for a in (0.0, -0.0):
            body = jumps._body.cut(lo, s)
            got = _body_expm1(body, a)
            assert type(got) is float and got.hex() == (0.0).hex()
            assert "moments" not in body.__dict__
        # the Taylor sum's own +0.0 at +-0 is test_taylor_scalar_is_the_one_point_array's

    @staticmethod
    def counted_psi(monkeypatch):
        """The thetas of every ``laplace_exponent`` call from here on, with
        the ``phi`` and ``psi(-1)`` memos cleared; the solver reads ``psi``
        through ``model._psi_known``."""
        calls = []

        def counted(model, theta):
            calls.append(float(theta))
            return laplace_exponent(model, theta)

        monkeypatch.setattr(model_module, "laplace_exponent", counted)
        phi.cache_clear()
        exp_growth_rate.cache_clear()
        return calls

    def test_cold_classify_reads_psi_minus_one_once(self, monkeypatch):
        from levybond import GameParams, Regime, classify

        calls = self.counted_psi(monkeypatch)
        model = LevyModel(0.1, 0.3, tabulated_exp_density(401))
        sol = classify(model, GameParams(1.0, 1.0, 1.05, 2.0))
        assert sol.regime is Regime.R4
        # each theta once: 38 when phi's and q0's doublings both formed
        # theta = 1, 2 and 4 and the rates re-read Phi(q0) and Phi(q1), 41
        # with psi evaluated at the three searches' lower ends theta = 0 too
        assert calls.count(-1.0) == 1 and calls.count(0.0) == 0 and len(calls) == 32
        assert len(set(calls)) == len(calls)
        calls.clear()
        classify(LevyModel(0.1, 0.3, tabulated_exp_density(401)), GameParams(1.0, 1.0, 1.1, 2.0))
        assert calls.count(-1.0) == 0  # an equal model rebuilt hits the memo

    @pytest.mark.parametrize("model, q, calls_with_lower_ends", [
        (CANON, 3.0, 32), (LevyModel(0.0, 0.5), 0.4, 36), (EXPJ, 3.0, 32), (BV_RHO2, 1.0, 19),
    ], ids=["brownian-R2", "brownian-R1", "exp_jumps", "bv_exp"])
    def test_root_searches_start_from_known_ends(self, monkeypatch, model, q,
                                                 calls_with_lower_ends):
        # psi(0) - p = -p, and the critical-rate conditions are exactly alpha
        # at theta = 0: phi's, q0's and, with a Gaussian part, q1's searches
        # take those ends as known, so a cold phi + classify evaluates psi 3
        # (or 2) times fewer than with the ends evaluated
        from levybond import GameParams, classify

        calls = self.counted_psi(monkeypatch)
        phi(model, q)
        classify(model, GameParams(1.0, 1.0, q, 2.0))
        assert 0.0 not in calls
        assert len(calls) == calls_with_lower_ends - (3 if model.b2 > 0.0 else 2)

    def test_growth_rate_memo_keeps_divergence(self):
        exp_growth_rate.cache_clear()
        for _ in range(2):
            assert exp_growth_rate(BV_RHO1) == math.inf
            assert exp_growth_rate(EXPJ) == laplace_exponent(EXPJ, -1.0)

    def test_equal_densities_hash_equal(self):
        grid = np.linspace(0.004, 8.0, 401)
        values = 2.0 * np.exp(-2.0 * grid)
        built = [TabulatedDensity(grid, values, 2.0),
                 TabulatedDensity(tuple(grid.tolist()), list(values), 2),
                 model_module.esscher_tilt(LevyModel(0.1, 0.3, TabulatedDensity(grid, values, 2.0)),
                                           0.0).jumps]
        for other in built[1:]:
            assert other is not built[0]
            assert other == built[0] and hash(other) == hash(built[0])
            assert hash(other) == hash((other.grid, other.values, other.tail_rate))
            assert LevyModel(0.1, 0.3, other) == LevyModel(0.1, 0.3, built[0])
            assert hash(LevyModel(0.1, 0.3, other)) == hash(LevyModel(0.1, 0.3, built[0]))
        moved = TabulatedDensity(grid, values * (1.0 + 1e-15), 2.0)
        assert moved != built[0] and hash(moved) != hash(built[0])


class TestExcessTransform:
    """``_excess_transform``: the Laplace transform of ``jump_excess(m + .)``."""

    MODELS = [EXPJ, LevyModel(0.25, 0.1, tabulated_exp_density())]

    @pytest.mark.parametrize("model", MODELS, ids=["EXPJ", "TAB"])
    @pytest.mark.parametrize("m", [0.0, 0.3, 2.0, 9.0])
    def test_real_point_is_the_shifted_integrals(self, model, m):
        for ph in (0.4, 1.3, 4.0):
            i1, i2 = shifted_jump_integrals(model, m, ph)
            got = _excess_transform(model, m, np.array([ph]))[0]
            assert got.real == pytest.approx(i2 / (ph + 1.0) - i1 / ph, rel=1e-12, abs=0.0)
            assert got.imag == 0.0

    def test_complex_points_against_quadrature(self):
        # the defining integral of jump_excess, by adaptive quadrature
        m = 0.3
        for s in (1.5 + 2.0j, 0.2 - 7.0j):
            def part(y, f):
                return f(np.exp(-s * y) * float(jump_excess(EXPJ, m + y)))

            want = complex(*(integrate.quad(part, 0.0, 60.0, args=(f,), limit=400,
                                            epsabs=0.0, epsrel=1e-12)[0]
                             for f in (np.real, np.imag)))
            got = _excess_transform(EXPJ, m, np.array([s]))[0]
            assert abs(got - want) <= 1e-12 * abs(want), s

    def test_tabulated_against_40_digit_cells(self):
        # (E(1) + E(-s)/s)/(s + 1) with E(a) = integral pi(m + u) expm1(a u)
        # du, each linear cell and the tail integrated in closed form
        mp = pytest.importorskip("mpmath")
        tab, m = self.MODELS[1].jumps, 0.3
        with mp.workdps(40):
            zs = [mp.mpf(z) for z in tab.grid]
            vs = [mp.mpf(v) for v in tab.values]
            rate = mp.mpf(tab.tail_rate)

            def big_e(a):
                a, acc = mp.mpc(a), mp.mpf(0)
                for z0, z1, v0, v1 in zip(zs, zs[1:], vs, vs[1:]):
                    if z1 <= m:
                        continue
                    k, lo = (v1 - v0) / (z1 - z0), max(z0, mp.mpf(m))
                    f_lo = v0 + k * (lo - z0)
                    prim = [mp.exp(a * (z - m)) * (f / a - k / a**2) for z, f in ((z1, v1), (lo, f_lo))]
                    acc += prim[0] - prim[1] - (f_lo + v1) * (z1 - lo) / 2
                return acc + vs[-1] * (mp.exp(a * (zs[-1] - m)) / (rate - a) - 1 / rate)

            for s in (1.5 + 2.0j, 0.2 - 7.0j):
                want = complex((big_e(1) + big_e(-s) / s) / (s + 1))
                got = _excess_transform(self.MODELS[1], m, np.array([s]))[0]
                assert abs(got - want) <= 1e-13 * abs(want), s

    def test_ladder_matches_pointwise(self):
        model = self.MODELS[1]
        s = np.array([[0.5, 3.0]]).T + 0.25j * np.arange(34)
        np.testing.assert_allclose(_excess_transform(model, 0.3, s, np.full(2, 0.25)),
                                   _excess_transform(model, 0.3, s), rtol=1e-12, atol=0.0)


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
        transform = _resolvent_transform(scale_evaluator(self.MODEL, 0.8), ph)
        vals = transform(beta - ph)
        assert vals[0] == 0.0 and vals[1] == 0.0 and vals[2] != 0.0
        assert np.isinf(_psi_c(EXPJ, np.array([-1.7]))[0])


class TestPsiFraction:
    """The Talbot route evaluates ``1/(psi - q)`` from ``_psi_fraction`` by
    Horner; the fraction must be ``_psi_c`` on every point an inversion
    reads, so the forced route stays an independent check of the closed
    forms."""

    @pytest.mark.parametrize("model", [CANON, LevyModel(1.5, 0.0), EXPJ, BV_RHO2],
                             ids=["gaussian", "drift", "exp_jumps", "exp_jumps-bv"])
    def test_fraction_is_psi_at_contour_points(self, model):
        num, den = _psi_fraction(model)
        ph = phi(model, 1.0)
        xs = np.geomspace(1e-3, 40.0, 10)[:, None]
        rho = model.jumps._pieces[2] if model.jumps._mass else 1.7
        ring = np.exp(2j * math.pi * np.arange(8) / 8.0)
        points = {
            # Talbot contours tilted by Phi, from x = 1e-3 to 40
            "talbot": ph + _TALBOT_RADIUS / xs * _NODES,
            # Euler ladders A/(2x) + Phi + i k pi/x
            "euler": 21.0 / (2.0 * xs) + ph + 1j * math.pi * np.arange(34) / xs,
            # around the tail's pole -rho, where psi is large
            "pole": -rho + np.array([[1e-3], [1e-6]]) * ring,
        }
        for where, beta in points.items():
            want = _psi_c(model, beta)
            got = np.polyval(num, beta) / np.polyval(den, beta)
            assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want)), where


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

    @pytest.mark.parametrize("model", [EXPJ, TAB], ids=["EXPJ", "TAB"])
    def test_jump_excess_matches_quadrature(self, model):
        # G(t) = integral_t^inf pi(z) (e^(z - t) - 1) dz, with t below the
        # body's first knot, inside it and past its last knot (8)
        ts = np.array([-0.5, 0.001, 0.3, 2.0, 7.99, 9.0])
        want = [self.quadrature(model, 0.0, t, lambda z, t=t: math.expm1(z - t)) for t in ts]
        np.testing.assert_allclose(jump_excess(model, ts), want, rtol=1e-12)
        assert not jump_excess(LevyModel(0.1, 0.5), ts).any()

    def test_defaults_pay_the_share(self):
        y = np.array([-0.5, 0.1])
        share, pay = jump_passage_means(EXPJ, y, 0.3)
        np.testing.assert_array_equal(pay, share)
        # memoryless exponential sizes: e^level rho / (rho - 1)
        np.testing.assert_allclose(share, math.exp(0.3) * 1.7 / 0.7, rtol=1e-14)
