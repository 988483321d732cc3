import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uwbloc.pulses import (
    DEFAULT_DT,
    MAX_DESIGN_VALUES,
    MAX_GENERATIONS,
    MAX_SPLINE_ORDER,
    _SCORE_BLOCK_ROWS,
    BSplineBasis,
    DesignConfig,
    InfeasibleDesignError,
    _Evaluator,
    _offspring,
    _orthogonalize_rows,
    _project_zero_sum,
    _unit_energy_lags,
    bspline_eval,
    design_pulses,
    load_pulse_set,
    orthogonality_matrix,
    pulse_set_to_json,
    synthesize_pulse,
)
from uwbloc.spectrum import (
    SpectralMask,
    effectiveness,
    fcc_like_mask,
    mask_violation,
    psd,
)
from uwbloc.waveform import Waveform

from oracles import energy, fft_shape_metrics, full_grid_peak, masked_swap_offspring


def cox_de_boor(m: int, x: float) -> float:
    """Independent oracle: cardinal B-spline by the Cox-de Boor recursion."""
    if m == 1:
        return 1.0 if 0.0 <= x < 1.0 else 0.0
    return (x * cox_de_boor(m - 1, x) + (m - x) * cox_de_boor(m - 1, x - 1.0)) / (m - 1)


class TestBsplineEval:
    def test_box(self):
        assert bspline_eval(1, 1.0, 0.5) == 1.0
        assert bspline_eval(1, 1.0, 0.0) == 1.0
        assert bspline_eval(1, 1.0, 1.0) == 0.0

    def test_triangle_peak(self):
        assert bspline_eval(2, 1.0, 1.0) == pytest.approx(1.0)

    def test_cubic_center(self):
        assert bspline_eval(4, 1.0, 2.0) == pytest.approx(2.0 / 3.0)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
    def test_matches_cox_de_boor(self, m):
        xs = np.linspace(-0.5, m + 0.5, 173)
        ours = bspline_eval(m, 1.0, xs)
        oracle = np.array([cox_de_boor(m, float(x)) for x in xs])
        assert np.allclose(ours, oracle, atol=1e-12)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
    def test_partition_of_unity(self, m):
        # generic points: the order-1 box is half-open, so exact knot points
        # are a measure-zero boundary convention, not part of the identity
        t_spacing = 0.3e-9
        pts = np.random.default_rng(m).uniform((m - 1) * t_spacing, 10 * t_spacing, 200)
        total = sum(bspline_eval(m, t_spacing, pts - k * t_spacing) for k in range(-m, 14))
        assert np.max(np.abs(total - 1.0)) < 1e-9

    def test_closed_form_holds_up_to_the_order_cap(self):
        # the alternating sum cancels terms up to C(m, j) (m - j)^(m - 1), most where
        # all m shifts overlap: the partition of unity is 6e-7 off there at order 20,
        # the cap, and 0.18 at order 30
        m = MAX_SPLINE_ORDER
        xs = np.linspace(m - 1, m, 101)
        total = sum(bspline_eval(m, 1.0, xs - k) for k in range(m))
        assert np.max(np.abs(total - 1.0)) < 1e-6
        with pytest.raises(ValueError, match="order_m"):
            BSplineBasis(m + 1, 1e-10, 30)

    def test_support(self):
        m, t_spacing = 4, 1.0
        assert bspline_eval(m, t_spacing, -0.01) == 0.0
        assert bspline_eval(m, t_spacing, m + 0.01) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            bspline_eval(0, 1.0, 0.5)
        with pytest.raises(ValueError):
            bspline_eval(2, -1.0, 0.5)


class TestSynthesize:
    BASIS = BSplineBasis(order_m=4, knot_spacing=0.1e-9, count_ns=8)

    def test_zero_coeffs(self):
        w = synthesize_pulse(np.zeros(8), self.BASIS, 50e-12)
        assert np.all(w.samples == 0.0)

    def test_single_coefficient_reproduces_basis(self):
        c = np.zeros(8)
        c[0] = 1.0
        w = synthesize_pulse(c, self.BASIS, 50e-12)
        expect = bspline_eval(4, 0.1e-9, w.times)
        assert np.allclose(w.samples, expect, atol=1e-12)

    def test_box_difference_is_square_wave(self):
        basis = BSplineBasis(order_m=1, knot_spacing=10 * 50e-12, count_ns=2)
        w = synthesize_pulse(np.array([1.0, -1.0]), basis, 50e-12)
        t = w.times
        expect = np.where(t < basis.knot_spacing, 1.0, -1.0)
        expect[t >= 2 * basis.knot_spacing] = 0.0
        assert np.allclose(w.samples, expect)

    def test_linearity(self, rng):
        c1 = rng.normal(size=8)
        c2 = rng.normal(size=8)
        a, b = 2.5, -1.25
        lhs = synthesize_pulse(a * c1 + b * c2, self.BASIS, 50e-12)
        rhs = a * synthesize_pulse(c1, self.BASIS, 50e-12).samples \
            + b * synthesize_pulse(c2, self.BASIS, 50e-12).samples
        assert np.allclose(lhs.samples, rhs, rtol=1e-12, atol=1e-12)

    def test_zero_sum_rows_integrate_to_zero(self, rng):
        c = rng.normal(size=8)
        c -= c.mean()
        w = synthesize_pulse(c, self.BASIS, 5e-12)
        integral = float(np.sum(w.samples) * w.dt)
        scale = float(np.sum(np.abs(w.samples)) * w.dt)
        assert abs(integral) < 1e-6 * scale + 1e-15

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            synthesize_pulse(np.zeros(5), self.BASIS, 50e-12)


def small_config(**kw):
    base = dict(
        pulse_count=2, basis_count=10, spline_order=3, population=60,
        generations=60, seed=11,
    )
    base.update(kw)
    return DesignConfig(**base)


class TestDesign:
    def test_single_pulse_generous_mask(self):
        cfg = small_config(pulse_count=1, seed=3)
        ps = design_pulses(cfg)
        assert abs(ps.coeffs.sum()) < 1e-9
        assert ps.effectiveness[0] > 0.0
        freq, dens = psd(ps.pulses[0], cfg.nfft)
        assert mask_violation(freq, dens, cfg.mask) <= cfg.tol_mask_db

    def test_constraints_and_reporting(self):
        cfg = small_config()
        ps = design_pulses(cfg)
        gram = orthogonality_matrix(ps)
        off = gram - np.diag(np.diag(gram))
        assert np.max(np.abs(off)) <= cfg.tol_orthogonality
        assert np.allclose(np.diag(gram), 1.0, atol=1e-9)
        assert np.max(np.abs(ps.coeffs.sum(axis=1))) < 1e-9
        assert ps.objective == float(ps.effectiveness.sum())
        for p in ps.pulses:
            assert energy(p) == pytest.approx(ps.energy_es, rel=1e-9)
        # the loader audits a stored set exactly as the designer audited it
        back = load_pulse_set(pulse_set_to_json(ps), mask=cfg.mask)
        assert np.array_equal(back.effectiveness, ps.effectiveness)

    def test_deterministic_given_seed(self):
        a = design_pulses(small_config())
        b = design_pulses(small_config())
        assert np.array_equal(a.coeffs, b.coeffs)
        assert np.array_equal(a.objective_history, b.objective_history)

    def test_history_monotone(self):
        ps = design_pulses(small_config())
        assert np.all(np.diff(ps.objective_history) >= -1e-12)

    def test_infeasible_mask(self):
        dead = SpectralMask(((0.0, 10e9, -math.inf),))
        with pytest.raises(InfeasibleDesignError):
            design_pulses(small_config(mask=dead))

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            DesignConfig(basis_count=2, spline_order=4)
        with pytest.raises(ValueError):
            DesignConfig(pulse_count=0)
        with pytest.raises(ValueError, match="pulse_count must be < basis_count"):
            DesignConfig(pulse_count=4, basis_count=4)
        DesignConfig(pulse_count=3, basis_count=4)

    def test_caps_bound_the_design_work(self):
        side = math.isqrt(MAX_DESIGN_VALUES)
        # at each cap: a 4,096-function basis, 2**20 generations, and 2**24 values of
        # padded lags (one 4,096-sample pulse, twice its length, 2,048 candidates)
        DesignConfig(basis_count=side)
        DesignConfig(generations=MAX_GENERATIONS)
        long_pulse = (DesignConfig.nfft - 1) * DEFAULT_DT
        DesignConfig(pulse_count=1, pulse_duration=long_pulse,
                     population=MAX_DESIGN_VALUES // (2 * DesignConfig.nfft))
        for kwargs, key in (
                ({"basis_count": side + 1}, "basis_count"),
                ({"generations": MAX_GENERATIONS + 1}, "generations"),
                ({"pulse_count": 1, "pulse_duration": long_pulse,
                  "population": MAX_DESIGN_VALUES // (2 * DesignConfig.nfft) + 1}, "population"),
                ({"spline_order": MAX_SPLINE_ORDER + 1, "basis_count": 30}, "spline_order"),
                ({"spline_order": 0}, "spline_order")):
            with pytest.raises(ValueError, match=key):
                DesignConfig(**kwargs)

    def test_mask_forbidding_part_of_the_band_leaves_no_energy(self):
        # every candidate has power above 5 GHz, where the mask allows none
        half = SpectralMask(((0.0, 5e9, -41.3), (5e9, 10e9, -math.inf)))
        with pytest.raises(InfeasibleDesignError, match="no positive mask-compliant energy"):
            design_pulses(small_config(mask=half, population=4, generations=2))

    def test_collapsed_row_restarts_from_a_random_zero_sum_row(self):
        cfg = small_config()
        phi = cfg.basis.sample_matrix(cfg.dt)
        metric = phi @ phi.T * cfg.dt
        row = _project_zero_sum(np.random.default_rng(1).normal(size=cfg.basis_count))
        out = _orthogonalize_rows(np.vstack([row, row]), metric, np.random.default_rng(2))
        # the copy loses all of itself to the first row, so it is drawn anew
        assert not np.allclose(out[1], out[0])
        assert np.all(np.abs(out.sum(axis=1)) < 1e-12 * np.abs(out).sum(axis=1))
        assert np.allclose(np.einsum("ij,jk,ik->i", out, metric, out), 1.0)

    def test_fields_are_the_problem_and_budget(self):
        # the search's operators and weights are constants, like the audit grid
        assert {f.name for f in dataclasses.fields(DesignConfig)} == {
            "pulse_count", "basis_count", "spline_order", "pulse_duration", "mask", "dt",
            "population", "generations", "seed"}

    def test_nfft_shorter_than_pulse_rejected(self):
        n = DesignConfig().basis.sample_count(DEFAULT_DT)
        assert n == DesignConfig().basis.sample_matrix(DEFAULT_DT).shape[1] == 26
        fits = DesignConfig(pulse_duration=(DesignConfig.nfft - 1) * DEFAULT_DT)
        assert fits.basis.sample_count(DEFAULT_DT) == DesignConfig.nfft
        with pytest.raises(ValueError, match="nfft"):
            DesignConfig(pulse_duration=DesignConfig.nfft * DEFAULT_DT)

    def test_default_design_reproduces_packaged_set(self, default_pulses):
        # the packaged set is the default design at this seed, to rounding
        ps = design_pulses(DesignConfig(seed=20260808))
        scale = np.max(np.abs(default_pulses.coeffs))
        assert np.max(np.abs(ps.coeffs - default_pulses.coeffs)) <= 1e-12 * scale
        assert ps.energy_es == pytest.approx(default_pulses.energy_es, rel=1e-12, abs=0.0)


MASKS = {
    "default": fcc_like_mask(),
    "notched": SpectralMask(((0.0, 0.5e9, -51.3), (0.5e9, 1.0e9, -41.3), (1.0e9, 1.3e9, -65.0),
                             (1.3e9, 2.5e9, -41.3), (2.5e9, 10e9, -51.3))),
    "forbidden_notch": SpectralMask(((0.0, 0.5e9, -51.3), (0.5e9, 1.0e9, -41.3),
                                     (1.0e9, 1.3e9, -math.inf), (1.3e9, 2.5e9, -41.3),
                                     (2.5e9, 10e9, -51.3))),
    "forbidden_stopband": SpectralMask(((0.0, 0.5e9, -math.inf), (0.5e9, 2.5e9, -41.3),
                                        (2.5e9, 10e9, -math.inf))),
    # the rFFT band runs to 10 GHz, past this mask's coverage
    "partial_band": SpectralMask(((0.0, 0.5e9, -51.3), (0.5e9, 2.5e9, -41.3), (2.5e9, 6e9, -51.3))),
}


def edge_peaked_rows(ev, offsets):
    """Coefficient rows of cosine pulses at ``offsets`` bins from each mask-segment edge.

    The edges are each segment's first bin and the bin past the mask's last
    segment.
    """
    cfg = ev.cfg
    freq = np.fft.rfftfreq(cfg.nfft, d=cfg.dt)
    edges = np.searchsorted(freq, [lo for lo, _, _ in cfg.mask.segments[1:]] + [cfg.mask.f_hi])
    bins = np.clip(np.add.outer(edges, offsets).ravel(), 0, cfg.nfft // 2)
    pulses = np.cos(2.0 * math.pi * np.outer(bins, np.arange(ev.phi.shape[1])) / cfg.nfft)
    coeffs, *_ = np.linalg.lstsq(ev.phi.T, pulses.T, rcond=None)  # the nearest spline pulse
    return coeffs.T


def full_grid_budgets(ev, pop):
    """``shape_metrics``' candidate budgets from the full-grid peak of every pulse."""
    ok, r_n = _unit_energy_lags((pop @ ev.phi).reshape(-1, ev.phi.shape[1]), ev.cfg.dt)
    peak = full_grid_peak(ev, r_n)
    budget_l = np.divide(1.0, peak, out=np.full_like(peak, np.inf), where=peak > 0.0)
    return np.min(np.where(ok, budget_l, 0.0).reshape(pop.shape[:2]), axis=-1)


class TestLagDomainScorer:
    @settings(max_examples=60, deadline=None)
    @given(
        order=st.integers(1, 6), extra_basis=st.integers(0, 16), pulse_count=st.integers(1, 4),
        population=st.integers(1, 6),
        mask=st.sampled_from(sorted(MASKS)), zero=st.sampled_from(["none", "pulse", "candidate"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_fft_reference(self, order, extra_basis, pulse_count, population,
                                   mask, zero, seed):
        # zero-sum rows hold fewer pulses than basis functions; ``zero`` draws silent ones
        cfg = DesignConfig(pulse_count=pulse_count,
                           basis_count=max(order, pulse_count + 1) + extra_basis,
                           spline_order=order, mask=MASKS[mask])
        ev = _Evaluator(cfg)
        pop = np.random.default_rng(seed).normal(size=(population, pulse_count, cfg.basis_count))
        pop -= pop.mean(axis=-1, keepdims=True)
        if zero == "pulse":
            pop[0, -1] = 0.0
        elif zero == "candidate":
            pop[-1] = 0.0
        budget, xi, gram = ev.shape_metrics(pop)
        ref_budget, ref_xi, ref_gram = fft_shape_metrics(ev, pop)
        assert np.allclose(budget, ref_budget, rtol=1e-12, atol=0.0)
        assert np.allclose(xi, ref_xi, rtol=1e-12, atol=0.0)
        assert np.allclose(gram, ref_gram, rtol=1e-12, atol=0.0)
        if zero != "none":
            assert budget[0 if zero == "pulse" else -1] == 0.0

    @pytest.mark.parametrize("mask", sorted(MASKS))
    @pytest.mark.parametrize("population", [37, 80])
    def test_rows_over_several_blocks_match_fft_reference(self, mask, population, rng):
        ev = _Evaluator(DesignConfig(mask=MASKS[mask]))
        pop = rng.normal(size=(population, 4, 30))
        pop -= pop.mean(axis=-1, keepdims=True)
        pop[-1, 0] = 0.0  # a silent pulse in the last, partial block
        rows = pop.shape[0] * pop.shape[1]
        assert rows > _SCORE_BLOCK_ROWS and rows % _SCORE_BLOCK_ROWS  # ends in a partial block
        budget, xi, gram = ev.shape_metrics(pop)
        ref_budget, ref_xi, ref_gram = fft_shape_metrics(ev, pop)
        assert np.allclose(budget, ref_budget, rtol=1e-12, atol=0.0)
        assert np.allclose(xi, ref_xi, rtol=1e-12, atol=0.0)
        assert np.allclose(gram, ref_gram, rtol=1e-12, atol=0.0)
        assert budget[-1] == 0.0

    def test_fitness_scratch_grows_by_each_rows_arrays_not_a_product_row(self, rng):
        # an added pulse row adds its own pulse, padded pulse and lags, about 1.1 KB;
        # forming the whole (rows x bins) lag-by-bin product would add bins x 8 = 16 KB
        ev = _Evaluator(DesignConfig())
        peaks = []
        for population in (1000, 2000):
            pop = rng.normal(size=(population, 4, 30))
            pop -= pop.mean(axis=-1, keepdims=True)
            tracemalloc.start()
            try:
                ev.fitness(pop)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        per_row = (peaks[1] - peaks[0]) / (1000 * pop.shape[1])
        assert per_row < 2048 < ev.dens_over_limit.shape[1] * 8 / 4

    @pytest.mark.parametrize("mask", ["forbidden_notch", "forbidden_stopband"])
    def test_power_in_a_minus_inf_segment_leaves_no_budget(self, mask, rng):
        ev = _Evaluator(DesignConfig(mask=MASKS[mask]))
        pop = rng.normal(size=(3, 4, 30))
        pop -= pop.mean(axis=-1, keepdims=True)
        budget, xi, _ = ev.shape_metrics(pop)
        assert np.all(budget == 0.0) and np.all(xi == 0.0)

    @settings(max_examples=60, deadline=None)
    @given(
        mask=st.sampled_from(sorted(MASKS)), pulse_count=st.integers(1, 4),
        population=st.integers(1, 80), silent=st.booleans(),
        offsets=st.lists(st.integers(-7, 7), min_size=1, max_size=3),
        length=st.sampled_from([26, 60, 130, 400]), seed=st.integers(0, 2**32 - 1),
    )
    def test_certified_search_keeps_the_full_grid_budgets(self, mask, pulse_count, population,
                                                         silent, offsets, length, seed):
        # pulses of 26 and 60 samples get a coarse bin every 8, of 130 every 5, of 400 every bin
        cfg = DesignConfig(pulse_count=pulse_count, mask=MASKS[mask],
                           pulse_duration=(length - 1) * DEFAULT_DT)
        ev = _Evaluator(cfg)
        pop = np.random.default_rng(seed).normal(size=(population, pulse_count, cfg.basis_count))
        pop -= pop.mean(axis=-1, keepdims=True)
        built = edge_peaked_rows(ev, offsets)
        pop.reshape(-1, cfg.basis_count)[:len(built)] = built[:pop.shape[0] * pulse_count]
        if silent:
            pop[-1, -1] = 0.0
        budget, _, _ = ev.shape_metrics(pop)
        assert np.allclose(budget, full_grid_budgets(ev, pop), rtol=1e-14, atol=0.0)
        if silent:
            assert budget[-1] == 0.0

    @pytest.mark.parametrize("mask", sorted(MASKS))
    def test_rows_peaking_beside_a_segment_edge_keep_their_peak(self, mask):
        ev = _Evaluator(DesignConfig(mask=MASKS[mask]))
        coeffs = edge_peaked_rows(ev, [-7, -5, -3, -2, -1, 1, 2, 3, 5, 7])
        _, r_n = _unit_energy_lags(coeffs @ ev.phi, ev.cfg.dt)
        assert np.allclose(ev.row_peaks(r_n), full_grid_peak(ev, r_n), rtol=1e-14, atol=0.0)
        if mask in ("default", "notched", "partial_band"):  # no -inf segment: finite peaks
            # the full-grid peak of some row is a skipped bin at most 7 bins from an edge
            freq = np.fft.rfftfreq(ev.cfg.nfft, d=ev.cfg.dt)
            objective_bins = np.flatnonzero(ev.cfg.mask.limit_at(freq) > -math.inf)
            peak_bins = objective_bins[np.argmax(r_n @ ev.dens_over_limit, axis=1)]
            edges = np.searchsorted(freq, [lo for lo, _, _ in ev.cfg.mask.segments[1:]])
            beside = np.min(np.abs(peak_bins[:, None] - edges), axis=1) <= 7
            assert np.any(beside & ~np.isin(peak_bins, ev.coarse_bins))

    def test_a_peak_outside_the_coarse_peak_chunk_is_found(self):
        # two tones of the default 26-sample pulse near equal height: where the 1,500-bin
        # tone's coarse bins top the 700-bin tone's, its true peak can still be lower
        ev = _Evaluator(DesignConfig())
        t = np.arange(ev.phi.shape[1])
        ratios = np.linspace(1.0, 1.015, 1501)
        pulses = np.cos(2.0 * math.pi * 700 * t / ev.cfg.nfft) \
            + ratios[:, None] * np.cos(2.0 * math.pi * 1500 * t / ev.cfg.nfft)
        _, r_n = _unit_energy_lags(pulses, ev.cfg.dt)
        full = r_n @ ev.dens_over_limit  # one column per bin: the default mask covers them all
        objective = len(ev.objective_scale)
        coarse_peak_chunk = np.argmax(np.max(full[:, ev.coarse_bins[:, :objective]], axis=1), axis=1)
        peak_bin = np.argmax(full, axis=1)
        outside = (peak_bin < ev.coarse_bins[0, coarse_peak_chunk]) \
            | (peak_bin > ev.coarse_bins[-1, coarse_peak_chunk])
        assert np.any(outside)
        r_n = r_n[outside]  # scored alone, so no other row's refinement covers their peaks
        assert np.allclose(ev.row_peaks(r_n), full_grid_peak(ev, r_n), rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("mask", sorted(MASKS))
    def test_a_rows_peak_does_not_depend_on_the_rows_scored_with_it(self, mask, rng):
        # bit for bit, which a relative tolerance cannot see: a lone row and a 3-row set
        # are repeated to a product's fewest rows, and 200 rows span two coarse blocks
        ev = _Evaluator(DesignConfig(mask=MASKS[mask]))
        _, r_n = _unit_energy_lags(rng.normal(size=(200, ev.phi.shape[0])) @ ev.phi, ev.cfg.dt)
        together = ev.row_peaks(r_n)
        alone = [ev.row_peaks(r_n[i:i + 1])[0] for i in range(len(r_n))]
        threes = np.concatenate([ev.row_peaks(r_n[i:i + 3]) for i in range(0, len(r_n), 3)])
        assert np.array_equal(alone, together) and np.array_equal(threes, together)

    @settings(max_examples=40, deadline=None)
    @given(
        length=st.integers(2, 300), mask=st.sampled_from(sorted(MASKS)),
        narrowband=st.booleans(), seed=st.integers(0, 2**32 - 1),
    )
    def test_bernstein_bound_covers_every_skipped_bin(self, length, mask, narrowband, seed):
        # a pulse of ``length`` samples: its density is a cosine polynomial of degree length - 1
        cfg = DesignConfig(pulse_duration=(length - 1) * DEFAULT_DT, mask=MASKS[mask])
        ev = _Evaluator(cfg)
        rng = np.random.default_rng(seed)
        pulses = rng.normal(size=(16, length))
        if narrowband:  # a tone over the whole pulse: the sharpest peak of its degree
            pulses = np.cos(np.outer(rng.uniform(0.0, math.pi, 16), np.arange(length))
                            + rng.uniform(0.0, math.pi, (16, 1)))
        assert ev.phi.shape[1] == length
        _, r_n = _unit_energy_lags(pulses, cfg.dt)
        # unit-energy density at every rFFT bin, from each pulse's own rFFT
        dens = np.abs(np.fft.rfft(pulses, n=cfg.nfft)) ** 2 * cfg.dt / np.sum(pulses**2, axis=1,
                                                                              keepdims=True)
        coarse = dens[:, ev.coarse_bins]  # (rows, 9, chunks)
        m_bound = ev.peak_bound(np.max(coarse, axis=1).T / ev.chunk_inv_scale)
        assert np.all(m_bound >= np.max(dens, axis=1) * (1.0 - 1e-12))
        slack = (ev.delta + 1e-12) * m_bound[:, None]
        for a, b in zip(ev.coarse_bins[:-1].ravel(), ev.coarse_bins[1:].ravel()):
            if b > a + 1:  # a window with skipped bins
                bound = np.maximum(dens[:, a], dens[:, b])[:, None] + slack
                assert np.all(dens[:, a + 1:b] <= bound)


class FixedCoins:
    """A generator whose uniform draws all equal ``value``, so every crossover
    and mutation coin falls one way; its integer and normal draws are ``rng``'s."""

    def __init__(self, rng: np.random.Generator, value: float):
        self.rng, self.value = rng, value

    def integers(self, *args, **kwargs):
        return self.rng.integers(*args, **kwargs)

    def normal(self, *args, **kwargs):
        return self.rng.normal(*args, **kwargs)

    def random(self, size):
        return np.full(size, self.value)


class TestGeneticStep:
    @pytest.mark.parametrize("population", [1, 2, 3, 8, 9, 200])
    @pytest.mark.parametrize("coins", ["random", "every pair swaps every gene", "none swaps"])
    def test_matches_masked_swap_reference(self, population, coins):
        # a uniform draw of 0.0 is below the crossover rate, 1/2 and the mutation rate,
        # so every pair crosses, swaps every gene and mutates; 0.99 is above all three
        source = np.random.default_rng(population)
        pop = _project_zero_sum(source.normal(size=(population, 4, 30)))
        fit = source.normal(size=population)
        before = pop.copy()
        gens = [np.random.default_rng(11), np.random.default_rng(11)]
        draws = [gen if coins == "random" else FixedCoins(gen, 0.0 if coins.startswith("every")
                                                          else 0.99) for gen in gens]
        children = _offspring(pop, fit, draws[0], 0.05)
        expected = masked_swap_offspring(pop, fit, draws[1], 0.05)
        assert children.shape == pop.shape
        assert children.tobytes() == expected.tobytes()
        assert gens[0].bit_generator.state == gens[1].bit_generator.state
        assert np.array_equal(pop, before)


class TestOrthogonalityMatrix:
    def test_single_pulse(self, default_pulses):
        gram = orthogonality_matrix(default_pulses)
        assert gram.shape == (4, 4)
        assert np.allclose(np.diag(gram), 1.0, atol=1e-9)

    def test_duplicated_rows_give_unit_off_diagonal(self, default_pulses):
        from dataclasses import replace

        p = default_pulses.pulses[0]
        dup = replace(
            default_pulses,
            coeffs=np.vstack([default_pulses.coeffs[0], default_pulses.coeffs[0]]),
            pulses=(p, p),
            effectiveness=default_pulses.effectiveness[:2],
        )
        gram = orthogonality_matrix(dup)
        assert gram[0, 1] == pytest.approx(1.0, rel=1e-9)


class TestPulseSetIO:
    def test_round_trip(self, default_pulses, tmp_path):
        path = tmp_path / "ps.json"
        path.write_text(json.dumps(pulse_set_to_json(default_pulses)))
        back = load_pulse_set(json.loads(path.read_text()), mask=fcc_like_mask())
        assert np.allclose(back.coeffs, default_pulses.coeffs)
        assert back.energy_es == pytest.approx(default_pulses.energy_es)
        assert back.basis == default_pulses.basis

    def test_loader_rejects_broken_zero_sum(self, default_pulses, tmp_path):
        obj = pulse_set_to_json(default_pulses)
        obj["coeffs"][0][0] += 1.0
        with pytest.raises(ValueError):
            load_pulse_set(obj)

    def test_loader_rejects_wrong_energy(self, default_pulses):
        obj = pulse_set_to_json(default_pulses)
        obj["Es"] = obj["Es"] * 2.0
        with pytest.raises(ValueError):
            load_pulse_set(obj)

    def test_loader_rejects_mask_violation(self, default_pulses):
        obj = pulse_set_to_json(default_pulses)
        tight = SpectralMask(((0.0, 0.5e9, -91.3), (0.5e9, 2.5e9, -81.3), (2.5e9, 10e9, -91.3)))
        with pytest.raises(ValueError):
            load_pulse_set(obj, mask=tight)

    def test_loader_rejects_non_finite_energy(self, default_pulses):
        obj = pulse_set_to_json(default_pulses)
        obj["Es"] = math.nan
        with pytest.raises(ValueError, match="Es"):
            load_pulse_set(obj)

    @pytest.mark.parametrize("key", ["Es", "dt", "m", "T", "Ns", "coeffs"])
    def test_loader_rejects_a_string_or_bool_number(self, default_pulses, key):
        # float() and int() once read "4" as 4 and true as 1, and int() cut 4.9 to 4
        bads = [str, lambda _: True] + ([lambda v: v + 0.9] if key in ("m", "Ns") else [])
        for bad in bads:
            obj = pulse_set_to_json(default_pulses)
            if key == "coeffs":
                obj["coeffs"][1][2] = bad(obj["coeffs"][1][2])
            else:
                where = obj if key in obj else obj["basis"]
                where[key] = bad(where[key])
            match = f"pulse set key '{key}' must be (a number|an integer)"
            with pytest.raises(ValueError, match=match):
                load_pulse_set(obj)

    def test_effectiveness_unknown_without_mask(self, default_pulses):
        back = load_pulse_set(pulse_set_to_json(default_pulses))
        assert np.all(np.isnan(back.effectiveness))
        assert math.isnan(back.objective)

    def test_effectiveness_measured_against_mask(self, default_pulses):
        mask = fcc_like_mask()
        back = load_pulse_set(pulse_set_to_json(default_pulses), mask=mask)
        expect = np.array([effectiveness(*psd(p, 4096), mask) for p in default_pulses.pulses])
        assert np.array_equal(back.effectiveness, expect)
        assert back.objective == float(expect.sum())

    def test_default_set_satisfies_invariants(self, default_pulses):
        gram = orthogonality_matrix(default_pulses)
        off = gram - np.diag(np.diag(gram))
        assert np.max(np.abs(off)) <= 0.05
        assert np.max(np.abs(default_pulses.coeffs.sum(axis=1))) < 1e-9
        for p in default_pulses.pulses:
            freq, dens = psd(p, 4096)
            assert mask_violation(freq, dens, fcc_like_mask()) <= 0.5
