"""Simulation layer: exact checks where paths are deterministic, frozen-seed
three-sigma gates against the closed-form layer everywhere else.

The one engine is exact (jump epochs are simulated, the pieces between them
are linear or Brownian with an exact bridge maximum and passage times), so
its comparisons carry no discretisation slack; only two_sided_exit stops an
image series, and it returns a bound on the rest.
"""

import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import integrate

from levybond import (
    ConfigError,
    DomainError,
    ExponentialJumps,
    LevyModel,
    MomentConditionError,
    NoJumps,
    TabulatedDensity,
    TruncationWarning,
    bounded_variation_model,
    exp_growth_rate,
    jump_intensity,
    laplace_exponent,
    sample_jump_sizes,
)
from levybond import mc
from levybond.mc import (
    _TAG_UPCROSS,
    _TAG_VALUE,
    PayoffEstimate,
    SimConfig,
    _estimate_variants,
    _event_tableau,
    _passages,
    _payoffs,
    _piece_end,
    _piece_start,
    _run_chunks,
    estimate_game_value,
    estimate_game_values,
    mc_eligible,
    saddle_check,
    sup_exponential_moment,
    two_sided_exit,
    upcrossing_discount_profile,
    wiener_hopf_check,
)
from levybond.scale import scale_evaluator, w
from levybond.solver import GameParams, Regime, classify, exit_expectation, value

CANON = LevyModel(0.0, 2.0)
B05 = LevyModel(0.0, 0.5)
BV2 = bounded_variation_model(2.0, ExponentialJumps(1.0, 2.0))
EXPJM = LevyModel(0.1, 0.3, ExponentialJumps(1.0, 2.0))
DRIFT = bounded_variation_model(0.2, NoJumps())   # X_t = -0.2 t exactly

with warnings.catch_warnings():
    warnings.simplefilter("ignore")  # deliberate sub-grid mass drop
    _g = np.linspace(0.004, 8.0, 401)
    TAB = LevyModel(0.1, 0.3, TabulatedDensity(tuple(_g), tuple(2.0 * np.exp(-2.0 * _g)), 2.0))
TAB_BV = bounded_variation_model(2.0, TAB.jumps)


def gp(q, alpha=1.0, beta=1.0, K=2.0):
    return GameParams(alpha, beta, q, K)


def zscore(est: PayoffEstimate, target: float) -> float:
    return (est.mean - target) / est.stderr


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            SimConfig(n_paths=0, horizon=1.0, dt=1e-3, seed=1)
        with pytest.raises(ConfigError):
            SimConfig(n_paths=10, horizon=-1.0, dt=1e-3, seed=1)
        with pytest.raises(ConfigError):
            SimConfig(n_paths=10, horizon=1.0, dt=0.0, seed=1)
        with pytest.raises(ConfigError):
            SimConfig(n_paths=10, horizon=0.5, dt=1.0, seed=1)  # dt > T

    @pytest.mark.parametrize("field", ["n_paths", "horizon", "dt", "seed"])
    def test_bool_rejected(self, field):
        # bool subclasses int: n_paths=True would run one path, seed=False seed 0
        fields = dict(n_paths=10, horizon=1.0, dt=1e-3, seed=1)
        for flag in (True, False):
            with pytest.raises(ConfigError, match=field):
                SimConfig(**{**fields, field: flag})

    def test_eligibility(self):
        assert mc_eligible(CANON)
        assert mc_eligible(BV2)
        # a driftless-Gaussian-free model with enormous jump activity cannot
        # be simulated event by event in reasonable time
        grid = np.linspace(1e-3, 1.0, 200)
        dense = TabulatedDensity(tuple(grid), tuple(np.full(200, 3e6)), 5.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            heavy = bounded_variation_model(8e6, dense)
        assert not mc_eligible(heavy)


class TestSamplePath:
    """A sampler's configuration is checked when it is built, before any path is drawn."""

    def test_invalid_config_rejected_before_sampling(self):
        with pytest.raises(ConfigError):
            SimConfig(n_paths=1, horizon=0.0, dt=1e-3, seed=1)


class TestPassages:
    """The joint first passages that every estimator reads."""

    LEVELS = [0.0, 0.1, 0.2, 0.5, 1.0, 1.5]

    @pytest.mark.parametrize("model", [CANON, EXPJM], ids=["CANON", "EXPJM"])
    def test_levels_passed_in_order(self, model):
        # a higher level is never passed before a lower one on any path, and
        # a path that never passes a level passes none above it
        cfg = SimConfig(n_paths=4000, horizon=3.0, dt=1e-3, seed=15)
        c = _event_tableau(model, cfg, _TAG_UPCROSS, 0)
        times = np.array([p.t for p in _passages(model, c, self.LEVELS)])
        assert np.all(times[1:] >= times[:-1])
        assert np.all(np.isfinite(times[0]))
        # many paths pass every level; without jumps each does so inside its
        # one piece, through the rest-of-piece draws
        assert np.isfinite(times[-1]).sum() > 1000

    @pytest.mark.parametrize("model", [CANON, EXPJM], ids=["CANON", "EXPJM"])
    def test_continuous_passage_lands_on_its_level(self, model):
        cfg = SimConfig(n_paths=4000, horizon=3.0, dt=1e-3, seed=16)
        c = _event_tableau(model, cfg, _TAG_UPCROSS, 0)
        for lvl, p in zip(self.LEVELS, _passages(model, c, self.LEVELS)):
            cont = np.isfinite(p.t) & np.isnan(p.pre)
            jump = ~np.isnan(p.pre)
            assert cont.sum() > 100
            assert np.all(p.pos[cont] == lvl)
            # a jump passage starts below the level and lands above it
            assert np.all(p.pre[jump] < lvl) and np.all(p.pos[jump] > lvl)
            assert (jump.sum() > 100) == (model is EXPJM and lvl > 0.0)


def _jump_sizes(model, c) -> np.ndarray:
    """Each closing jump's size, as the path moves across it."""
    closes = np.flatnonzero(np.isfinite(c.post))
    return c.post[closes] - _piece_end(model, c, closes)


class TestEventTableau:
    @pytest.mark.parametrize("model", [CANON, EXPJM, TAB, BV2],
                             ids=["CANON", "EXPJM", "TAB", "BV2"])
    def test_poisson_counts_and_positive_sizes(self, model):
        # rate ~1 over ten units of time: about ten jumps a path, none for CANON
        cfg = SimConfig(n_paths=400, horizon=10.0, dt=1e-2, seed=21)
        c = _event_tableau(model, cfg, _TAG_VALUE, 0)
        mean = jump_intensity(model) * cfg.horizon
        counts = c.end - c.start - 1
        assert abs(counts.mean() - mean) <= 3.0 * math.sqrt(mean / cfg.n_paths)
        sizes = _jump_sizes(model, c)
        assert len(sizes) == counts.sum() and np.all(sizes > 0.0)

    @pytest.mark.parametrize("model", [CANON, EXPJM, TAB, BV2],
                             ids=["CANON", "EXPJM", "TAB", "BV2"])
    def test_flat_invariants(self, model):
        # three chunks, the last partial: rows tile the pieces, epochs ascend
        # within a row, each row's last piece ends at T with no jump, and
        # every stored piece starts before T (no padding)
        cfg = SimConfig(n_paths=9000, horizon=10.0, dt=1e-2, seed=24)
        T = cfg.horizon

        def work(c):
            return (c, *_piece_start(c, np.arange(len(c.t1))))

        for c, t0, y0 in _run_chunks(model, cfg, _TAG_VALUE, work):
            assert c.start[0] == 0 and c.end[-1] == len(t0)
            assert np.array_equal(c.start[1:], c.end[:-1]) and np.all(c.end > c.start)
            later = np.ones(len(t0), dtype=bool)
            later[c.start] = False
            assert np.all(t0[c.start] == 0.0) and np.all(y0[c.start] == 0.0)
            assert np.array_equal(t0[later], c.t1[np.flatnonzero(later) - 1])
            assert np.array_equal(y0[later], c.post[np.flatnonzero(later) - 1])
            assert np.all(c.t1 >= t0) and np.all(t0 < T)
            assert np.all(c.t1[c.end - 1] == T) and np.all(c.post[c.end - 1] == -np.inf)
            closes = np.ones(len(t0), dtype=bool)
            closes[c.end - 1] = False
            assert np.all(c.t1[closes] < T) and np.all(np.isfinite(c.post[closes]))

    @pytest.mark.parametrize("model", [CANON, EXPJM, TAB, BV2],
                             ids=["CANON", "EXPJM", "TAB", "BV2"])
    def test_piece_start_matches_the_shifted_arrays(self, model):
        # a piece starts where the one before it closed: the helper equals
        # t1 and post shifted by one piece with each row's first set to
        # (0, 0), on every piece and on a scattered subset read out of order;
        # without a Gaussian part the tableau keeps no pre, and a piece ends
        # at its start plus its drift
        cfg = SimConfig(n_paths=9000, horizon=10.0, dt=1e-2, seed=25)

        def work(c):
            t0, y0 = np.roll(c.t1, 1), np.roll(c.post, 1)
            t0[c.start] = 0.0
            y0[c.start] = 0.0
            k = np.arange(len(c.t1))
            perm = np.random.default_rng(c.rows.start).permutation(len(k))
            sub = np.append(0, perm[:len(k) // 3])    # piece 0 reads index -1
            return (t0, y0, _piece_start(c, k), sub, _piece_start(c, sub),
                    _piece_end(model, c, k), _piece_end(model, c, sub), c)

        chunks = _run_chunks(model, cfg, _TAG_VALUE, work)
        assert len(chunks) == 3
        for t0, y0, (t0_all, y0_all), sub, (t0_sub, y0_sub), x_all, x_sub, c in chunks:
            assert np.array_equal(t0_all, t0) and np.array_equal(y0_all, y0)
            assert np.array_equal(t0_sub, t0[sub]) and np.array_equal(y0_sub, y0[sub])
            assert (c.smax is None) == (c.pre is None) == (model.b2 == 0.0)
            x = c.pre if c.pre is not None else (c.t1 - t0) * mc._sim_drift(model) + y0
            assert np.array_equal(x_all, x) and np.array_equal(x_sub, x[sub])

    @pytest.mark.parametrize("model", [CANON, EXPJM, TAB], ids=["CANON", "EXPJM", "TAB"])
    def test_one_step_laplace_transform(self, model):
        # E[e^(-X_1)] = e^(psi(1)): the tableau is exact in law at the
        # horizon, every jump of the density drawn (TAB included)
        cfg = SimConfig(n_paths=6000, horizon=1.0, dt=2e-3, seed=13)
        ends = np.concatenate(_run_chunks(model, cfg, _TAG_VALUE, lambda c: c.pre[c.end - 1]))
        sample = np.exp(-ends)
        target = math.exp(laplace_exponent(model, 1.0))
        stderr = sample.std(ddof=1) / math.sqrt(len(sample))
        assert abs(sample.mean() - target) <= 3.0 * stderr

    def test_small_jumps_drawn_at_their_share(self):
        # the density is 2000 on [0, 1e-4], so 0.2 of the jump intensity lies
        # below 1e-4, and that share of the drawn sizes must land there too
        dens = TabulatedDensity((0.0, 1e-4, 2e-4, 3.0), (2000.0, 2000.0, 1.0, 1.0), 2.0)
        model = LevyModel(0.1, 0.3, dens)
        cfg = SimConfig(n_paths=400, horizon=10.0, dt=1e-2, seed=22)
        sizes = _jump_sizes(model, _event_tableau(model, cfg, _TAG_VALUE, 0))
        share = 0.2 / jump_intensity(model)
        n = len(sizes)
        assert n > 10_000
        small = int(np.count_nonzero(sizes < 1e-4))
        assert abs(small - n * share) <= 3.0 * math.sqrt(n * share * (1.0 - share))

    @pytest.mark.parametrize("model", [CANON, EXPJM, TAB, BV2, TAB_BV],
                             ids=["CANON", "EXPJM", "TAB", "BV2", "TAB_BV"])
    def test_slab_size_does_not_enter(self, model, monkeypatch):
        # the draws fill the real slots in tableau order and each row's
        # running sums are its own: every field and the generator state after
        # the build are the same bits for any slab size, one row to the whole
        # chunk
        cfg = SimConfig(n_paths=600, horizon=10.0, dt=1e-2, seed=26)
        builds = []
        for slab in (1, 7, 1024, mc._CHUNK):
            monkeypatch.setattr(mc, "_SLAB", slab)
            c = _event_tableau(model, cfg, _TAG_VALUE, 0)
            builds.append(([f if f is None else f.tobytes()
                            for f in (c.start, c.end, c.t1, c.post, c.pre, c.smax)],
                           c.rng.random()))
        assert all(b == builds[0] for b in builds[1:])
        assert (builds[0][0][4] is None) == (model.b2 == 0.0)

    @pytest.mark.parametrize("model", [CANON, EXPJM, BV2], ids=["CANON", "EXPJM", "BV2"])
    def test_epochs_increase_inside_the_horizon(self, model):
        # a row's epochs are its normalised running sums of Exp(1) spacings:
        # strictly increasing and inside (0, T)
        cfg = SimConfig(n_paths=9000, horizon=10.0, dt=1e-2, seed=27)

        def work(c):
            t0, _ = _piece_start(c, np.arange(len(c.t1)))
            return c, t0

        for c, t0 in _run_chunks(model, cfg, _TAG_VALUE, work):
            assert np.all(c.t1 > t0)
            closes = np.isfinite(c.post)
            assert np.all(c.t1[closes] > 0.0) and np.all(c.t1[closes] < cfg.horizon)

    def test_epochs_are_uniform_order_statistics(self):
        # given n jumps on [0, T], the k-th epoch has mean k T / (n + 1); at a
        # fixed seed every (n, k) mean of the rows with n jumps lies within 4
        # standard errors of it (Var = k (n + 1 - k) T^2 / ((n + 1)^2 (n + 2)))
        T = 5.0
        cfg = SimConfig(n_paths=3 * mc._CHUNK, horizon=T, dt=1e-2, seed=28)
        model = LevyModel(0.1, 0.3, ExponentialJumps(0.6, 2.0))
        chunks = _run_chunks(model, cfg, _TAG_VALUE, lambda c: (c.start, c.end, c.t1))
        checked = 0
        for n in range(1, 6):
            rows = np.concatenate([t1[np.add.outer(start[end - start == n + 1], np.arange(n))]
                                   for start, end, t1 in chunks])
            assert len(rows) > 300
            for k in range(1, n + 1):
                mean = k * T / (n + 1)
                sd = math.sqrt(k * (n + 1 - k) / (n + 2)) * T / (n + 1)
                assert abs(rows[:, k - 1].mean() - mean) <= 4.0 * sd / math.sqrt(len(rows)), (n, k)
                checked += 1
        assert checked == 15

    @pytest.mark.parametrize("model", [BV2, EXPJM, TAB], ids=["BV2", "EXPJM", "TAB"])
    def test_one_size_uniform_per_real_jump(self, model):
        # the chunk's stream is its jump counts, one Exp(1) spacing per piece,
        # with a Gaussian part one normal and one bridge uniform per piece,
        # then one uniform per real jump, mapped to the sizes in tableau
        # order: a generator that draws exactly these reaches the tableau's
        # state, and its uniforms are the sizes the path moves across
        cfg = SimConfig(n_paths=600, horizon=10.0, dt=1e-2, seed=29)
        c = _event_tableau(model, cfg, _TAG_VALUE, 0)
        pieces, rows = len(c.t1), len(c.start)
        rng = mc._rng(cfg.seed, _TAG_VALUE, 0)
        counts = rng.poisson(jump_intensity(model) * cfg.horizon, rows)
        assert np.array_equal(counts, c.end - c.start - 1)
        rng.standard_exponential(pieces)
        if model.b2 > 0.0:
            rng.standard_normal(pieces)
            rng.random(pieces)
        sizes = sample_jump_sizes(model, rng.random(pieces - rows))
        assert rng.random() == c.rng.random()
        np.testing.assert_allclose(_jump_sizes(model, c), sizes, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("op", [np.add, np.multiply], ids=["sum", "product"])
    def test_row_scan_is_each_rows_own(self, op):
        # the running sums (products) along each row, taken column by column
        # over the rows sorted by length, are bit for bit those of the row
        # alone, empty rows included
        rng = np.random.default_rng(5)
        length = rng.poisson(6.0, 300)
        length[[3, 50]] = 0
        first = np.cumsum(length) - length
        x = rng.standard_exponential(length.sum()) if op is np.add else rng.random(length.sum())
        want = np.concatenate([op.accumulate(x[a:a + n]) for a, n in zip(first, length)])
        mc._row_scan(first, length)(x, op)
        assert x.tobytes() == want.tobytes()

    @pytest.mark.parametrize("b2", [0.0, 0.3], ids=["bounded", "gaussian"])
    def test_refuses_more_jumps_than_it_can_hold(self, b2):
        # rate x horizon = 2e18 expected jumps per path: without the guard the
        # tableau's first per-piece array would take over an exbibyte, which
        # numpy refuses at once, so nothing is allocated either way
        model = LevyModel(0.5 + b2, b2, ExponentialJumps(1e6, 2.0))
        assert mc_eligible(model)
        cfg = SimConfig(n_paths=10, horizon=2e12, dt=1.0, seed=1)
        with pytest.raises(DomainError, match="expected jumps per path"):
            upcrossing_discount_profile(model, 1.0, [1.0], cfg)

    def test_unstopped_drift_path_recovers_perpetual_coupons(self):
        # X_t = -0.2t never reaches an upper level; coupons integrate in
        # closed form and the tail completion makes the total exact:
        # alpha/q + beta e^(x0)/(q - psi(-1))
        cfg = SimConfig(n_paths=50, horizon=30.0, dt=1e-2, seed=4)
        est = estimate_game_value(DRIFT, gp(0.5), 0.0, 1.0, 2.0, cfg)
        expected = 1.0 / 0.5 + math.exp(0.0) / (0.5 - exp_growth_rate(DRIFT))
        assert est.mean == pytest.approx(expected, abs=1e-10)


class TestTies:
    @pytest.mark.parametrize("model,q", [(EXPJM, 2.0), (BV2, 0.8)], ids=["grid", "event"])
    def test_simultaneous_threshold_settles_at_cap_branch(self, model, q):
        # equal thresholds pay max(K, share) like an issuer-only stop, path by
        # path on the shared noise; a holder-only stop pays the share alone.
        # Every chunk's payoffs are checked as the estimators reduce them
        cfg = SimConfig(n_paths=3000, horizon=8.0, dt=2e-3, seed=14)
        variants = [(0.0, 0.3, 0.3), (0.0, 50.0, 0.3), (0.0, 0.3, 50.0)]
        chunks = _run_chunks(model, cfg, _TAG_VALUE,
                             lambda c: _payoffs(model, gp(q), variants, c))
        for tie, issuer, holder in chunks:
            assert np.array_equal(tie, issuer)
            assert np.all(holder <= tie) and np.any(holder < tie)


class TestEstimates:
    def test_immediate_call_regime_is_exact(self):
        sol = classify(B05, gp(0.3))
        assert sol.regime is Regime.R1
        cfg = SimConfig(n_paths=3000, horizon=5.0, dt=1e-2, seed=30)
        est = estimate_game_value(B05, gp(0.3), 0.0, sol.tau_level,
                                  sol.sigma_level, cfg)
        assert est.mean == 2.0 and est.stderr == 0.0 and est.n == 3000

    def test_start_beyond_holder_threshold_is_exact(self):
        sol = classify(B05, gp(2.5))
        assert sol.regime is Regime.R2
        x = sol.tau_level + 0.4
        cfg = SimConfig(n_paths=1000, horizon=5.0, dt=1e-2, seed=31)
        est = estimate_game_value(B05, gp(2.5), x, sol.tau_level,
                                  sol.sigma_level, cfg)
        assert est.mean == pytest.approx(math.exp(x), rel=1e-15)
        assert est.stderr == 0.0

    def test_bitwise_reproducibility(self):
        cfg = SimConfig(n_paths=4000, horizon=6.0, dt=2e-3, seed=99)
        sol = classify(CANON, gp(3.0))
        a = estimate_game_value(CANON, gp(3.0), -0.5, sol.tau_level,
                                sol.sigma_level, cfg)
        b = estimate_game_value(CANON, gp(3.0), -0.5, sol.tau_level,
                                sol.sigma_level, cfg)
        assert a.mean == b.mean and a.stderr == b.stderr
        other = SimConfig(n_paths=4000, horizon=6.0, dt=2e-3, seed=100)
        c = estimate_game_value(CANON, gp(3.0), -0.5, sol.tau_level,
                                sol.sigma_level, other)
        assert c.mean != a.mean

    def test_negative_and_wide_seeds_key_a_stream(self):
        # a seed keys its streams mod 2^64: -1 keys that of 2^64 - 1 and a
        # seed past 64 bits that of its low bits, and -1 differs from 1
        def run(seed):
            cfg = SimConfig(n_paths=2000, horizon=3.0, dt=1e-2, seed=seed)
            return upcrossing_discount_profile(CANON, 2.0, [0.5], cfg)[0].mean

        assert run(-1) == run((1 << 64) - 1)
        assert run(-1) != run(1)
        assert run((1 << 70) | 1) == run(1)

    def test_grid_step_does_not_enter(self):
        # every estimator runs on the exact tableau: dt is validated, not read
        fine = SimConfig(n_paths=3000, horizon=4.0, dt=1e-3, seed=32)
        coarse = SimConfig(n_paths=3000, horizon=4.0, dt=4.0, seed=32)

        def run(cfg):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", TruncationWarning)
                ests = [*estimate_game_values(EXPJM, gp(2.0), [-0.5, 0.1], 0.6, 0.4, cfg),
                        two_sided_exit(EXPJM, 1.0, 0.6, 0.8, cfg),
                        wiener_hopf_check(EXPJM, 3.0, cfg)]
            return [(e.mean, e.stderr) for e in ests]

        assert run(fine) == run(coarse)

    def test_discount_condition_gate(self):
        cfg = SimConfig(n_paths=100, horizon=2.0, dt=1e-2, seed=1)
        with pytest.raises(MomentConditionError):
            estimate_game_value(CANON, gp(0.9), 0.0, 0.5, 0.7, cfg)

    def test_ineligible_model_rejected(self):
        grid = np.linspace(1e-3, 1.0, 200)
        dense = TabulatedDensity(tuple(grid), tuple(np.full(200, 3e6)), 5.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            heavy = bounded_variation_model(8e6, dense)
        q = exp_growth_rate(heavy) + 1.0
        cfg = SimConfig(n_paths=100, horizon=2.0, dt=1e-2, seed=1)
        with pytest.raises(DomainError):
            estimate_game_value(heavy, gp(q), 0.0, 0.5, 0.7, cfg)

    def test_short_horizon_warns_about_truncation(self):
        # q barely above the share's growth rate: the coupon tail decays so
        # slowly that a short run cannot represent the perpetual stream
        cfg = SimConfig(n_paths=500, horizon=6.0, dt=1e-2, seed=7)
        with pytest.warns(TruncationWarning):
            estimate_game_value(CANON, gp(1.1), -0.5, 0.7, 0.7, cfg)


class TestValueAgreement:
    """Each regime of the small-volatility Gaussian family against its
    analytic value at three interior starts (shared-path sweeps)."""

    def test_immediate_call_regime(self):
        sol = classify(B05, gp(0.3))
        cfg = SimConfig(n_paths=2000, horizon=5.0, dt=1e-2, seed=40)
        for x in (-0.5, 0.0, 1.0):
            est = estimate_game_value(B05, gp(0.3), x, sol.tau_level,
                                      sol.sigma_level, cfg)
            # averaging n identical payoffs only rounds at the last ulp
            assert est.mean == pytest.approx(max(2.0, math.exp(x)), rel=1e-15)
            assert est.stderr <= 1e-15

    def test_conversion_regime(self):
        p = gp(2.5)
        sol = classify(B05, p)
        assert sol.regime is Regime.R2
        xs = [sol.tau_level - 1.0, sol.tau_level - 0.5, sol.tau_level - 0.1]
        cfg = SimConfig(n_paths=20_000, horizon=8.0, dt=2e-3, seed=41)
        ests = estimate_game_values(B05, p, xs, sol.tau_level,
                                    sol.sigma_level, cfg)
        for x, est in zip(xs, ests):
            assert abs(zscore(est, value(B05, p, sol, x))) <= 3.0, x

    def test_simultaneous_regime(self):
        p = gp(1.5)
        sol = classify(B05, p)
        assert sol.regime is Regime.R3
        log_k = math.log(2.0)
        xs = [log_k - 1.2, log_k - 0.5, log_k - 0.1]
        cfg = SimConfig(n_paths=20_000, horizon=12.0, dt=2e-3, seed=42)
        ests = estimate_game_values(B05, p, xs, sol.tau_level,
                                    sol.sigma_level, cfg)
        for x, est in zip(xs, ests):
            assert abs(zscore(est, value(B05, p, sol, x))) <= 3.0, x

    def test_call_boundary_regime(self):
        p = gp(0.75)
        sol = classify(B05, p)
        assert sol.regime is Regime.R4
        xs = [sol.c_star - 1.0, sol.c_star - 0.5, sol.c_star - 0.1]
        cfg = SimConfig(n_paths=20_000, horizon=20.0, dt=2e-3, seed=43)
        ests = estimate_game_values(B05, p, xs, sol.tau_level,
                                    sol.sigma_level, cfg)
        for x, est in zip(xs, ests):
            assert abs(zscore(est, value(B05, p, sol, x))) <= 3.0, x

    def test_call_boundary_regime_with_jumps_exact_engine(self):
        # bounded variation: the event engine has no discretisation error,
        # making this the sharpest independent check of the jump-model value
        p = gp(0.8)
        sol = classify(BV2, p)
        assert sol.regime is Regime.R4
        xs = [sol.c_star - 1.0, sol.c_star - 0.3]
        cfg = SimConfig(n_paths=30_000, horizon=40.0, dt=1e-3, seed=44)
        ests = estimate_game_values(BV2, p, xs, sol.tau_level,
                                    sol.sigma_level, cfg)
        for x, est in zip(xs, ests):
            assert abs(zscore(est, value(BV2, p, sol, x))) <= 3.0, x


class TestUpcrossingProfile:
    def test_gaussian_exit_identity(self):
        # E[e^(-q tau(y))] = e^(-y) for the canonical Gaussian model at q=1
        cfg = SimConfig(n_paths=20_000, horizon=10.0, dt=2e-3, seed=50)
        levels = [0.5, 1.0, 2.0]
        ests = upcrossing_discount_profile(CANON, 1.0, levels, cfg)
        for y, est in zip(levels, ests):
            assert abs(zscore(est, exit_expectation(CANON, 1.0, y))) <= 3.0, y

    def test_jump_diffusion_exit_identity_including_start(self):
        # a Gaussian part passes above its start at once, so level 0 reads
        # exactly 1; above it both continuous and jump passages occur
        cfg = SimConfig(n_paths=200_000, horizon=8.0, dt=1e-3, seed=57)
        levels = [0.0, 0.5, 1.0]
        ests = upcrossing_discount_profile(EXPJM, 2.0, levels, cfg)
        assert ests[0].mean == 1.0 and ests[0].stderr == 0.0
        for y, est in zip(levels[1:], ests[1:]):
            assert abs(zscore(est, exit_expectation(EXPJM, 2.0, y))) <= 3.0, y

    @pytest.mark.parametrize("model", [CANON, EXPJM], ids=["CANON", "EXPJM"])
    def test_grid_step_does_not_enter(self, model):
        fine = SimConfig(n_paths=5000, horizon=4.0, dt=1e-3, seed=58)
        coarse = SimConfig(n_paths=5000, horizon=4.0, dt=4.0, seed=58)
        levels = [0.0, 0.4, 1.2]
        a = upcrossing_discount_profile(model, 2.0, levels, fine)
        b = upcrossing_discount_profile(model, 2.0, levels, coarse)
        assert [(e.mean, e.stderr) for e in a] == [(e.mean, e.stderr) for e in b]

    @pytest.mark.parametrize("q", [0.5, 2.0, 8.0])
    def test_passage_time_law_within_one_piece(self, q):
        # without jumps the path is one piece on [0, T], so the estimate rests
        # on the in-piece passage time alone: E[e^(-q tau) 1{tau <= T}] is the
        # inverse-Gaussian passage density of X = sqrt(2) W integrated to T
        y, T = 1.0, 1.0
        cfg = SimConfig(n_paths=20_000, horizon=T, dt=1e-3, seed=59)
        est, = upcrossing_discount_profile(CANON, q, [y], cfg)

        def density(t):
            return y / math.sqrt(2.0 * math.pi * CANON.b2 * t ** 3) * \
                math.exp(-y * y / (2.0 * CANON.b2 * t))

        target, _ = integrate.quad(lambda t: math.exp(-q * t) * density(t), 0.0, T,
                                   epsabs=1e-13, epsrel=1e-12)
        assert abs(zscore(est, target)) <= 3.0

    def test_bounded_variation_exit_identity_including_start(self):
        # at level zero the crossing waits for the first clearing jump and
        # the transform drops to 1 - q/(Phi d); the event engine is exact
        cfg = SimConfig(n_paths=40_000, horizon=25.0, dt=1e-3, seed=51)
        levels = [0.0, 0.7, 1.5]
        ests = upcrossing_discount_profile(BV2, 0.8, levels, cfg)
        for y, est in zip(levels, ests):
            assert abs(zscore(est, exit_expectation(BV2, 0.8, y))) <= 3.0, y

    def test_start_at_level_with_gaussian_part_is_immediate(self):
        # Brownian motion passes above its start at once: every path's first
        # piece starts on the level, so every passage time is exactly 0
        cfg = SimConfig(n_paths=5000, horizon=1.0, dt=1e-3, seed=6)
        est, = upcrossing_discount_profile(CANON, 2.0, [0.0], cfg)
        assert est.mean == 1.0
        assert est.stderr == 0.0

    @pytest.mark.parametrize("model", [CANON, BV2], ids=["gaussian", "bounded"])
    def test_level_never_reached_contributes_zero(self, model):
        cfg = SimConfig(n_paths=2000, horizon=0.5, dt=1e-3, seed=2)
        est, = upcrossing_discount_profile(model, 1.0, [50.0], cfg)
        assert est.mean == 0.0 and est.stderr == 0.0


class TestTwoSidedExit:
    @pytest.mark.parametrize("model", [CANON, EXPJM, BV2], ids=["CANON", "EXPJM", "BV2"])
    def test_neglected_mass_is_bounded(self, model):
        # each bridge's image series stops once its terms are below 1e-17,
        # and the rests are returned; without a Gaussian part a piece's exit
        # is certain or impossible, so nothing is neglected
        cfg = SimConfig(n_paths=5000, horizon=6.0, dt=1e-3, seed=56)
        est = two_sided_exit(model, 1.0, 0.6, 0.8, cfg)
        if model.b2 > 0.0:
            assert 0.0 < est.bias_bound <= 1e-13
        else:
            assert est.bias_bound == 0.0

    def test_exit_chances_match_the_images(self):
        # inside the band, the lower-first chance, the upper-first one (its
        # mirror) and the two-barrier stay chance (the image sum of the
        # killed density, an independent series) add up to 1; below it, the
        # lower-first chance is 1 less the reflection principle's chance to
        # reach the upper barrier first.  Each within its returned rest
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(8)
        w = rng.uniform(0.5, 3.0, 60)
        a = rng.uniform(0.0, 1.0, 60) * w
        b = np.where(np.arange(60) < 40, rng.uniform(0.0, 1.0, 60) * w, -rng.uniform(0.0, 2.0, 60))
        s = 10.0 ** rng.uniform(-2.0, 1.0, 60)
        for wi in np.unique(w):
            i = w == wi
            lo, rest = mc._lower_first(a[i], b[i], wi, s[i])
            hi, rest_hi = mc._lower_first(wi - a[i], np.minimum(wi - b[i], wi), wi, s[i])
            for x, y, ss, p_lo, p_hi, r in zip(a[i], b[i], s[i], lo, hi, rest + rest_hi):
                with mp.workdps(30):
                    x, y, ww, ss = map(mp.mpf, (x, y, wi, ss))
                    if y > 0:
                        want = 1 - sum(mp.exp(-2 * n * ww * (n * ww + y - x) / ss)
                                       - mp.exp(-2 * (x + n * ww) * (y + n * ww) / ss)
                                       for n in range(-60, 61))
                        got = p_lo + p_hi
                    else:
                        want = 1 - sum(mp.exp(-((y - 2 * n * ww + sign * x) ** 2 - (y - x) ** 2)
                                              / (2 * ss)) * sign
                                       for n in range(1, 61) for sign in (-1, 1))
                        got = p_lo
                assert abs(got - float(want)) <= r + 1e-14, (float(x), float(y), got, float(want))
        # the series at a = 0.6, b = 0.3, w = 1.4, s = 1.4
        assert mc._lower_first(np.array([0.6]), np.array([0.3]), 1.4, np.array([1.4]))[0][0] == \
            pytest.approx(0.670182, abs=1e-6)

    @pytest.mark.parametrize("model", [CANON, EXPJM, BV2], ids=["CANON", "EXPJM", "BV2"])
    def test_each_path_is_its_own_sum(self, model):
        # one chunk, path by path in Python: with a Gaussian part the clock
        # and the Gaussian point at it, then sum_k S_(<k) P_k over the pieces
        # up to the clock's from the image series; without one, e^(-p tau)
        # at the first exit if it is through the lower barrier, no draw made
        p, down, up = 1.0, 0.6, 0.8
        cfg = SimConfig(n_paths=700, horizon=6.0, dt=1e-3, seed=55)
        c = _event_tableau(model, cfg, mc._TAG_TWOSIDED, 0)
        w, rows = down + up, len(c.start)
        if model.b2 > 0.0:
            clk = c.rng.standard_exponential(rows) / p
            z = c.rng.standard_normal(rows)
        y = np.zeros(rows)
        for i in range(rows):
            alive = 1.0
            for k in range(c.start[i], c.end[i]):
                (t0,), (x0,) = _piece_start(c, np.array([k]))
                x1 = float(_piece_end(model, c, np.array([k]))[0])
                t1 = c.t1[k]
                if model.b2 == 0.0:
                    if x1 <= -down:
                        y[i] = math.exp(-p * (t0 + (t1 - t0) * (x0 + down) / (x0 - x1)))
                        break
                    if c.post[k] >= up:
                        break
                    continue
                cut = min(clk[i], t1) < t1 or k == c.end[i] - 1
                if cut:
                    f = min((clk[i] - t0) / (t1 - t0), 1.0)
                    x1 = x0 + (x1 - x0) * f + math.sqrt(model.b2 * (t1 - t0) * f * (1 - f)) * z[i]
                    t1 = t0 + (t1 - t0) * f
                aa, bb = np.array([min(max(x0 + down, 0.0), w)]), np.array([x1 + down])
                ss = np.array([model.b2 * (t1 - t0)])
                lo = mc._lower_first(aa, np.minimum(bb, w), w, ss)[0][0]
                hi = mc._lower_first(w - aa, np.minimum(w - bb, w), w, ss)[0][0]
                y[i] += alive * (lo if bb[0] < w else 1.0 - hi)
                if cut:
                    break
                alive *= max(1.0 - lo - hi, 0.0) if 0.0 < bb[0] < w else 0.0
                alive *= c.post[k] < up
        est = two_sided_exit(model, p, down, up, cfg)
        assert est.mean == pytest.approx(y.mean(), rel=1e-12)
        assert est.stderr == pytest.approx(y.std(ddof=1) / math.sqrt(rows), rel=1e-9)

    @pytest.mark.parametrize("model,p,down,up,n,dt,T", [
        (CANON, 1.0, 0.6, 0.8, 20_000, 2e-3, 6.0),
        (BV2, 0.9, 0.8, 0.7, 40_000, 1e-3, 25.0),
    ])
    def test_scale_ratio_identity(self, model, p, down, up, n, dt, T):
        cfg = SimConfig(n_paths=n, horizon=T, dt=dt, seed=52)
        est = two_sided_exit(model, p, down, up, cfg)
        ev = scale_evaluator(model, p)
        target = w(ev, up) / w(ev, down + up)
        assert abs(zscore(est, target)) <= 3.0


class TestWienerHopf:
    def test_closed_form_canonical_value(self):
        # psi(theta) = theta^2 makes the factor sqrt(q) / (sqrt(q) + 1): 2/3 at q = 4
        assert sup_exponential_moment(CANON, 4.0) == pytest.approx(2.0 / 3.0, rel=1e-12)

    @pytest.mark.parametrize("model", [BV2, LevyModel(1.0, 0.3, ExponentialJumps(1.0, 2.0))],
                             ids=["BV2", "gaussian"])
    @pytest.mark.parametrize("h", [0.0, 1e-7, -1e-7, 1e-3, -1e-3])
    def test_removable_point_at_phi_one(self, model, h):
        # (q/Phi)(Phi - 1)/(q - psi(1)) is 0/0 at Phi = 1 (BV2: q = psi(1) =
        # 5/3, limit q/psi'(1) = 15/16) and cancels near it; held to a
        # 50-digit value at the float q whose Phi is 1 + h.  Both models
        # meet the discount condition there
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp.clone()
        mp.dps = 50
        lam, rho = model.jumps.rate, model.jumps.decay

        def psi(theta):
            return (mp.mpf(model.mu) * theta + mp.mpf(model.b2) / 2 * theta ** 2
                    + lam * (rho / (rho + theta) - 1) + theta * mp.mpf(model.jumps._m1))

        q = float(psi(1 + mp.mpf(h)))
        ph = mp.findroot(lambda t: psi(t) - q, mp.mpf(1))
        want = q / mp.diff(psi, 1) if ph == 1 else (q / ph) * (ph - 1) / (q - psi(mp.mpf(1)))
        got = sup_exponential_moment(model, q)
        assert abs(got - want) <= 1e-10 * want, (got, want)
        if model is BV2 and h == 0.0:
            assert got == pytest.approx(15.0 / 16.0, rel=1e-15)

    def test_limit_of_instant_killing(self):
        assert sup_exponential_moment(CANON, 1e8) == pytest.approx(1.0, abs=2e-4)

    def test_requires_discount_above_growth(self):
        with pytest.raises(MomentConditionError):
            sup_exponential_moment(CANON, 1.0)

    def test_gaussian_estimate(self):
        cfg = SimConfig(n_paths=15_000, horizon=4.0, dt=1e-3, seed=53)
        est = wiener_hopf_check(CANON, 4.0, cfg)
        assert abs(zscore(est, 2.0 / 3.0)) <= 3.0

    def test_no_seed_strays_past_three_stderr(self):
        # at q = 2 E[e^(2 sup)] is infinite, and 8 of these 40 seeds read
        # the estimate of E[e^sup] beyond 3 stderr; e^(-sup) is bounded
        target = sup_exponential_moment(CANON, 2.0)
        z = [zscore(wiener_hopf_check(CANON, 2.0, SimConfig(2000, 10.0, 1e-3, seed)), target)
             for seed in range(500, 540)]
        assert max(map(abs, z)) <= 3.0, z

    def test_jump_model_estimate(self):
        cfg = SimConfig(n_paths=15_000, horizon=6.0, dt=1e-3, seed=54)
        est = wiener_hopf_check(EXPJM, 3.0, cfg)
        assert abs(zscore(est, sup_exponential_moment(EXPJM, 3.0))) <= 3.0


def _frozen_estimates(kind, model):
    """Seeded estimates over 2 chunks (the second partial), so the chunk keys
    and a chunk of fewer paths enter the pinned numbers."""
    cfg = SimConfig(n_paths=4500, horizon=3.0, dt=5e-3, seed=2024)
    q = {CANON: 3.0, EXPJM: 2.0, BV2: 0.8}[model]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        if kind == "values":
            return estimate_game_values(model, gp(q), [-0.5, 0.1], 0.6, 0.4, cfg)
        if kind == "upcross":
            return upcrossing_discount_profile(model, q, [0.0, 0.5, 1.0], cfg)
        if kind == "two_sided":
            return [two_sided_exit(model, 1.0, 0.6, 0.8, cfg)]
        return [wiener_hopf_check(model, q + 1.0, cfg)]


# (mean, stderr) per estimate, recorded when the stream layout was fixed; the
# Gaussian two_sided entries were recorded again when two_sided_exit began to
# run its midpoint rounds group by group of _SLAB rows, and the sup entries
# when wiener_hopf_check began to estimate E[e^(-sup)] from clocks drawn
# after the tableau.  All were recorded again when the streams moved from
# Philox to keyed SFC64 and the tableau began to draw for its real slots
# alone, and two_sided_exit to sum one exit probability per piece
_FROZEN = {
    ("values", "CANON"): [
        (0.8303430064784917, 0.0035143838028111564),
        (1.4348354508601182, 0.004850146322807538),
    ],
    ("values", "EXPJM"): [
        (1.0139682934146188, 0.000762763769347651),
        (1.4830553825150123, 0.0013720538433246868),
    ],
    ("values", "BV2"): [
        (1.5965639967464, 0.0005714964020333023),
        (1.8900012492805023, 0.0009171028739288087),
    ],
    ("upcross", "CANON"): [
        (1.0, 0.0),
        (0.4177296772709888, 0.0051160954005554544),
        (0.17728093003013082, 0.0034551633520294744),
    ],
    ("upcross", "EXPJM"): [
        (1.0, 0.0),
        (0.22086901237489048, 0.004128856982250852),
        (0.10014625515762457, 0.002950408987175217),
    ],
    ("upcross", "BV2"): [
        (0.20815003568978013, 0.005415331264738513),
        (0.09250023939773551, 0.00385639308023927),
        (0.039577220592961274, 0.00256321820626599),
    ],
    ("two_sided", "CANON"): [
        (0.46458359556473217, 0.004706741805966067),
    ],
    ("two_sided", "EXPJM"): [
        (0.2630310997586902, 0.005869313561597922),
    ],
    ("two_sided", "BV2"): [
        (0.6784105794367988, 0.002421235768583117),
    ],
    ("sup", "CANON"): [
        (0.665388648579279, 0.003545486880327081),
    ],
    ("sup", "EXPJM"): [
        (0.7858331402173285, 0.003201228924806756),
    ],
    ("sup", "BV2"): [
        (0.9444079602479521, 0.002454005363455727),
    ],
}


class TestFrozenStreams:
    """Seeded outputs are pinned across versions of the code: a change to the
    generator, the stream layout, the draw order or the per-path arithmetic
    moves them.  The tolerance leaves room only for last-bit libm
    differences."""

    @pytest.mark.parametrize("kind,name", sorted(_FROZEN))
    def test_seeded_estimates_unchanged(self, kind, name):
        model = {"CANON": CANON, "EXPJM": EXPJM, "BV2": BV2}[name]
        got = [(e.mean, e.stderr) for e in _frozen_estimates(kind, model)]
        want = _FROZEN[kind, name]
        assert len(got) == len(want)
        for (m, s), (m0, s0) in zip(got, want):
            assert m == pytest.approx(m0, rel=1e-12)
            # identical payoffs (a start at the level) give a stderr of 0 or
            # of rounding noise (~1e-18): hold that one to an absolute floor
            assert s == pytest.approx(s0, rel=1e-12, abs=1e-15)


class TestWorkerCount:
    """Chunks run concurrently, yet every output is the serial one: chunks
    share no generator, write disjoint rows, and cross-chunk sums are added
    in chunk order."""

    @pytest.mark.parametrize("name", ["CANON", "EXPJM", "BV2"])
    def test_outputs_do_not_depend_on_the_pool_size(self, name, monkeypatch):
        model = {"CANON": CANON, "EXPJM": EXPJM, "BV2": BV2}[name]
        q = {"CANON": 3.0, "EXPJM": 2.0, "BV2": 0.8}[name]
        cfg = SimConfig(n_paths=17_000, horizon=3.0, dt=5e-3, seed=2025)   # five chunks
        runs = []
        # one worker, two, and five: more threads than most hosts have cores,
        # with a short switch interval so that they interleave often inside
        # each chunk's writes
        interval = sys.getswitchinterval()
        for workers in (1, 2, 5):
            monkeypatch.setattr(mc, "_pool_size", lambda chunks, jumps: workers)
            sys.setswitchinterval(1e-6 if workers == 5 else interval)
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", TruncationWarning)
                    ests = [*estimate_game_values(model, gp(q), [-0.5, 0.1], 0.6, 0.4, cfg),
                            *upcrossing_discount_profile(model, q, [0.0, 0.5, 1.0], cfg),
                            two_sided_exit(model, 1.0, 0.6, 0.8, cfg),
                            wiener_hopf_check(model, q + 1.0, cfg)]
            finally:
                sys.setswitchinterval(interval)
            runs.append([(e.mean, e.stderr, e.bias_bound) for e in ests])
        assert runs[0] == runs[1] == runs[2]

    def test_workers_keep_the_callers_numpy_error_state(self, monkeypatch):
        # np.errstate is context-local: each worker runs in a copy of the
        # caller's context, so the caller's setting holds in every chunk
        monkeypatch.setattr(mc, "_pool_size", lambda chunks, jumps: 2)
        cfg = SimConfig(n_paths=9000, horizon=1.0, dt=1e-2, seed=3)   # three chunks
        with np.errstate(over="raise"):
            modes = _run_chunks(CANON, cfg, _TAG_VALUE, lambda c: np.geterr()["over"])
        assert modes == ["raise"] * 3

    def test_pool_size_is_bounded(self):
        assert mc._pool_size(1, 40.0) == 1
        assert 1 <= mc._pool_size(123, 40.0) <= 123
        # a chunk at the jump limit holds ~16M slots: one at a time
        assert mc._pool_size(123, float(mc._MAX_JUMPS)) == 1


class TestChunkMoments:
    """Each chunk is reduced to its count, mean and sum of squared deviations
    before the next is built; the moments are merged in chunk order, and no
    per-path array outlives its chunk."""

    def test_merged_moments_match_the_concatenated_payoffs(self):
        cfg = SimConfig(n_paths=2 * mc._CHUNK + 1500, horizon=3.0, dt=5e-3, seed=31)
        variants = [(-0.5, 0.6, 0.4), (0.1, 0.6, 0.4), (-0.5, 0.8, 0.4)]
        live = [(x, lt - x, ls - x) for x, lt, ls in variants]
        chunks = _run_chunks(EXPJM, cfg, _TAG_VALUE,
                             lambda c: _payoffs(EXPJM, gp(2.0), live, c))
        assert len(chunks) == 3
        pv = [np.concatenate(rows) for rows in zip(*chunks)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            values, diffs = _estimate_variants(EXPJM, gp(2.0), variants, cfg)
        for got, want in [*zip(values, pv), *zip(diffs, [y - pv[0] for y in pv])]:
            assert got.n == len(want) == cfg.n_paths
            assert got.mean == pytest.approx(np.mean(want), rel=1e-14, abs=0.0)
            assert math.sqrt(got.m2 / (got.n - 1)) == \
                pytest.approx(np.std(want, ddof=1), rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("name", ["upcross", "values", "two_sided", "sup"])
    def test_peak_memory_does_not_grow_with_the_path_count(self, name, monkeypatch):
        # the traced peak of 64 chunks stays near that of 16: a worker holds
        # one chunk at a time, whatever the number of chunks.  One worker, so
        # that no two lanes' peaks interleave differently in the two runs
        monkeypatch.setattr(mc, "_pool_size", lambda chunks, jumps: 1)
        call = {
            "upcross": lambda cfg: upcrossing_discount_profile(BV2, 0.8, [0.0, 0.5, 1.0], cfg),
            "values": lambda cfg: estimate_game_values(BV2, gp(0.8), [-0.5, 0.1], 0.6, 0.4, cfg),
            "two_sided": lambda cfg: two_sided_exit(CANON, 1.0, 0.6, 0.8, cfg),
            "sup": lambda cfg: wiener_hopf_check(CANON, 4.0, cfg),
        }[name]

        def peak(chunks: int) -> int:
            cfg = SimConfig(n_paths=chunks * mc._CHUNK, horizon=0.5, dt=0.01, seed=3)
            tracemalloc.start()
            try:
                call(cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            call(SimConfig(n_paths=100, horizon=0.5, dt=0.01, seed=3))   # first-call caches
            small, large = peak(16), peak(64)
        assert large <= 1.25 * small, (small, large)

    @staticmethod
    def _traced_peak(call) -> int:
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @staticmethod
    def _slots(model, horizon: float) -> float:
        """Expected slots of one chunk: paths x (expected jumps + 1)."""
        return mc._CHUNK * (jump_intensity(model) * horizon + 1.0)

    def test_saddle_lane_holds_one_tableau_at_a_time(self, monkeypatch):
        # one worker runs the bounded-variation saddle's chunks in turn: it
        # frees a chunk's tableau (t1 and post) before it builds the next,
        # drawing into the tableau itself, at ~22 traced bytes per expected
        # slot (~48 holding the last tableau beside a whole-chunk draw block)
        monkeypatch.setattr(mc, "_pool_size", lambda chunks, jumps: 1)
        params = gp(0.8)
        sol = classify(BV2, params)
        horizon = 40.0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            saddle_check(BV2, params, sol, 0.1, SimConfig(100, horizon, 1e-3, 7))  # first-call caches
            peak = self._traced_peak(lambda: saddle_check(
                BV2, params, sol, 0.1, SimConfig(3 * mc._CHUNK, horizon, 1e-3, 7)))
        assert peak / self._slots(BV2, horizon) <= 36.0, peak / self._slots(BV2, horizon)

    def test_wiener_hopf_lane_peaks_near_its_build(self, monkeypatch):
        # the bounded-variation check at horizon 40 over 3 chunks on one
        # worker: ~26 traced bytes per expected slot, near the build's ~25
        # (~64 averaging each jump past a running maximum over two (paths x
        # most jumps) blocks)
        monkeypatch.setattr(mc, "_pool_size", lambda chunks, jumps: 1)
        horizon = 40.0
        wiener_hopf_check(BV2, 1.0, SimConfig(100, horizon, 1e-3, 7))   # first-call caches
        peak = self._traced_peak(lambda: wiener_hopf_check(
            BV2, 1.0, SimConfig(3 * mc._CHUNK, horizon, 1e-3, 7)))
        assert peak / self._slots(BV2, horizon) <= 36.0, peak / self._slots(BV2, horizon)

    def test_upcross_lane_builds_without_whole_tableau_temporaries(self, monkeypatch):
        # the bounded-variation upcross at horizon 25 over 3 chunks on one
        # worker: one tableau at a time, its running sums taken slab by slab,
        # ~2.4 MiB (~5.1 MiB holding the last tableau beside a whole-chunk
        # draw block)
        monkeypatch.setattr(mc, "_pool_size", lambda chunks, jumps: 1)
        levels = [0.0, 0.5, 1.0]
        # first-call caches
        upcrossing_discount_profile(BV2, 0.8, levels, SimConfig(100, 25.0, 1e-3, 7))
        peak = self._traced_peak(lambda: upcrossing_discount_profile(
            BV2, 0.8, levels, SimConfig(3 * mc._CHUNK, 25.0, 1e-3, 7)))
        assert peak <= 4.0 * 2**20, peak / 2**20

    def test_two_sided_exit_frees_each_round(self, monkeypatch):
        # one exit probability per piece up to each row's clock: one chunk in
        # flight peaks near 1.1 MiB on CANON at horizon 4 (2.1 MiB when the
        # pieces were cut at bridge midpoints round by round, ~7.2 MiB with
        # every row of the chunk in one round)
        monkeypatch.setattr(mc, "_pool_size", lambda chunks, jumps: 1)
        two_sided_exit(CANON, 1.0, 0.6, 0.8, SimConfig(100, 4.0, 1e-3, 7))   # first-call caches
        peak = self._traced_peak(lambda: two_sided_exit(
            CANON, 1.0, 0.6, 0.8, SimConfig(2 * mc._CHUNK, 4.0, 1e-3, 7)))
        assert peak <= 3.0 * 2**20, peak / 2**20

    def test_gaussian_build_forms_no_whole_tableau_temporaries(self):
        # a build with a Gaussian part holds t1, post, pre and smax (~32
        # bytes per expected slot), draws into them and forms the piece
        # lengths slab by slab: it peaks near 44 traced bytes per slot (~61
        # with whole-chunk blocks, lengths, moves and y0)
        horizon = 40.0
        cfg = SimConfig(3 * mc._CHUNK, horizon, 1e-3, 7)
        _event_tableau(EXPJM, SimConfig(100, horizon, 1e-3, 7), _TAG_VALUE, 0)   # first-call caches
        peak = self._traced_peak(lambda: _event_tableau(EXPJM, cfg, _TAG_VALUE, 0))
        assert peak / self._slots(EXPJM, horizon) <= 52.0, peak / self._slots(EXPJM, horizon)

    def test_gaussian_upcross_lane_holds_one_tableau_at_a_time(self, monkeypatch):
        # the upcross on EXPJM at horizon 40 over 3 chunks on one worker:
        # ~61 traced bytes per expected slot (~94 holding the last tableau
        # while the next is built)
        monkeypatch.setattr(mc, "_pool_size", lambda chunks, jumps: 1)
        levels = [0.0, 0.5, 1.0]
        horizon = 40.0
        upcrossing_discount_profile(EXPJM, 2.0, levels, SimConfig(100, horizon, 1e-3, 7))
        peak = self._traced_peak(lambda: upcrossing_discount_profile(
            EXPJM, 2.0, levels, SimConfig(3 * mc._CHUNK, horizon, 1e-3, 7)))
        assert peak / self._slots(EXPJM, horizon) <= 70.0, peak / self._slots(EXPJM, horizon)


class TestSaddle:
    def test_zero_delta_is_an_identity(self):
        sol = classify(B05, gp(2.5))
        cfg = SimConfig(n_paths=2000, horizon=6.0, dt=5e-3, seed=60)
        report = saddle_check(B05, gp(2.5), sol, delta=0.0, config=cfg)
        assert report.all_pass()
        for comp in report.comparisons:
            assert comp.gap == 0.0 and comp.gap_stderr == 0.0

    def test_conversion_regime_equilibrium(self):
        sol = classify(B05, gp(2.5))
        cfg = SimConfig(n_paths=10_000, horizon=8.0, dt=2e-3, seed=61)
        report = saddle_check(B05, gp(2.5), sol, delta=0.1, config=cfg)
        assert report.all_pass(), [(c.label, c.verdict, c.gap)
                                   for c in report.comparisons]

    def test_call_boundary_equilibrium_exact_engine(self):
        sol = classify(BV2, gp(0.8))
        cfg = SimConfig(n_paths=40_000, horizon=40.0, dt=1e-3, seed=62)
        report = saddle_check(BV2, gp(0.8), sol, delta=0.1, config=cfg)
        assert report.all_pass(), [(c.label, c.verdict, c.gap)
                                   for c in report.comparisons]

    def test_immediate_call_degenerates_to_identity(self):
        sol = classify(B05, gp(0.3))
        cfg = SimConfig(n_paths=500, horizon=4.0, dt=1e-2, seed=63)
        report = saddle_check(B05, gp(0.3), sol, delta=0.1, config=cfg)
        assert report.all_pass()
        assert all(c.gap == 0.0 for c in report.comparisons)

    def test_argument_validation(self):
        sol = classify(B05, gp(2.5))
        cfg = SimConfig(n_paths=100, horizon=4.0, dt=1e-2, seed=1)
        with pytest.raises(DomainError):
            saddle_check(B05, gp(2.5), sol, delta=-0.1, config=cfg)
        with pytest.raises(ConfigError):
            saddle_check(B05, gp(2.5), sol, delta=0.1, config=None)
