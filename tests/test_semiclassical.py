import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from photon_transistor.analysis import CalibrationResult, extinction_db, gain_db, predict_single_photon
from photon_transistor.cavity import CavityParams, shifted_frequency, transmission_coeff
from photon_transistor.semiclassical import (
    CavityRoot,
    SaturableCavityModel,
    SemiclassicalSettings,
    SweepPoint,
    _selected_root,
    build_model,
    gain_sweep,
    steady_state_photons,
)

CAVITY_II = CavityParams(9000.0, 0.13, 0.13, 0.04, -0.947, -1.759)


def model(drive=1.0, base=CAVITY_II, **kw):
    fields = dict(
        n_crit_g=1.0e4,
        n_crit_e=2.0e5,
        n_crit_f=4.0e4,
        bare_offset=5.0,
        signal_window_us=10.0,
        photon_flux_conversion=11.0,
    )
    fields.update(kw)
    return SaturableCavityModel(base, SemiclassicalSettings(**fields), drive_amplitude=drive)


def linear_root(m, f, level):
    """Closed-form root of the unsaturated (n_crit -> inf) flux balance."""
    delta = f - shifted_frequency(m.base, level)
    rhs = m.base.kappa_ext_in * m.drive_amplitude**2
    return rhs / ((m.base.kappa_tot / 2) ** 2 + delta**2)


def _response(m: SaturableCavityModel, n, delta_bare: float, level: str):
    """LHS of the steady-state flux balance n*[(k/2)^2 + det(n)^2]."""
    u = np.asarray(n, dtype=float) / m.n_crit(level)
    det = delta_bare - m.pull(level) / (1.0 + u)
    return np.asarray(n, dtype=float) * ((m.base.kappa_tot / 2.0) ** 2 + det**2)


def scan_steady_state_photons(m, f, qubit_level):
    """Reference roots: sign-change scan over a 4001-point log grid, brentq in
    every bracket, stability from a finite-difference slope of the flux balance."""
    rhs = m.base.kappa_ext_in * m.drive_amplitude**2
    if rhs == 0.0:
        return [CavityRoot(0.0, True)]
    delta_bare = f - m.f_bare
    n_max = 1.05 * rhs / (m.base.kappa_tot / 2.0) ** 2
    grid = np.concatenate([[0.0], np.geomspace(n_max * 1e-15, n_max, 4001)])
    vals = _response(m, grid, delta_bare, qubit_level) - rhs
    roots: list[float] = []
    for i in range(len(grid) - 1):
        if vals[i] == 0.0 and grid[i] > 0:
            roots.append(grid[i])
        elif vals[i] * vals[i + 1] < 0:
            r = brentq(
                lambda n: float(_response(m, n, delta_bare, qubit_level) - rhs),
                grid[i],
                grid[i + 1],
                xtol=1e-12 * n_max,
                rtol=1e-14,
            )
            roots.append(float(r))
    assert roots, "the flux balance changes sign between 0 and n_max"
    out = []
    for r in sorted(roots):
        h = max(r * 1e-7, 1e-12 * n_max)
        slope = _response(m, r + h, delta_bare, qubit_level) - _response(
            m, max(r - h, 0.0), delta_bare, qubit_level
        )
        out.append(CavityRoot(r, bool(slope > 0)))
    return out


def scan_gain_sweep(m, eta, p_s, n_s_grid, subspace):
    """Reference sweep: the per-point, per-candidate loop over scan_steady_state_photons."""
    excited = "e" if subspace == "ge" else "f"
    conv = m.settings.photon_flux_conversion
    out = []
    for n_s in n_s_grid:
        flux = conv * n_s / m.settings.signal_window_us
        m_pt = replace(m, drive_amplitude=math.sqrt(flux))
        best = None
        for f_cand in (shifted_frequency(m.base, excited), m.f_bare):
            n_exc_root = min(r.n for r in scan_steady_state_photons(m_pt, f_cand, excited) if r.stable)
            n_g_root = min(r.n for r in scan_steady_state_photons(m_pt, f_cand, "g") if r.stable)
            n_exc = n_exc_root * m.base.kappa_ext_out * m.settings.signal_window_us / conv
            n_g = n_g_root * m.base.kappa_ext_out * m.settings.signal_window_us / conv
            n1, n0 = predict_single_photon(CalibrationResult(0.0, 1.0, n_g, n_exc, 0.0), eta * p_s)
            g = gain_db(n1, n0)
            if n_g_root / m.n_crit("g") > 1.0:
                regime = "bright"
            else:
                n_lin = abs(transmission_coeff(m.base, f_cand, excited)) ** 2 * flux / m.base.kappa_ext_out
                blockade = n_lin > 0 and abs(n_exc_root - n_lin) / n_lin > 0.05
                regime = "blockade" if blockade else "linear"
            if best is None or g > best[0]:
                best = (g, extinction_db(n0, n1), regime)
        out.append(SweepPoint(float(n_s), *best))
    return out


def brute_force_root_count(m, f, level, n_pts=200_000):
    """Independent dense-grid oracle: count sign changes of the flux balance."""
    rhs = m.base.kappa_ext_in * m.drive_amplitude**2
    n_max = 1.05 * rhs / (m.base.kappa_tot / 2) ** 2
    grid = np.concatenate([[0.0], np.geomspace(n_max * 1e-15, n_max, n_pts)])
    vals = _response(m, grid, f - m.f_bare, level) - rhs
    return int(np.sum(vals[:-1] * vals[1:] < 0))


class TestSteadyState:
    def test_linear_limit_single_root(self):
        m = model(drive=3.0, n_crit_g=1e30, n_crit_e=1e30, n_crit_f=1e30)
        f = shifted_frequency(CAVITY_II, "g")
        roots = steady_state_photons(m, f, "g")
        assert len(roots) == 1 and roots[0].stable
        assert roots[0].n == pytest.approx(linear_root(m, f, "g"), rel=1e-9)

    def test_level_independent_when_chi_zero(self):
        base = replace(CAVITY_II, chi_ge=0.0, chi_gf=0.0)
        m = model(drive=5.0, base=base, bare_offset=0.0)
        f = base.f0 + 0.3
        roots = {lev: steady_state_photons(m, f, lev)[0].n for lev in ("g", "e", "f")}
        assert roots["g"] == pytest.approx(roots["e"], rel=1e-12)
        assert roots["g"] == pytest.approx(roots["f"], rel=1e-12)

    def test_bistable_window_three_roots_two_stable(self):
        # e-branch driven at the bare frequency inside its fold window
        rhs = 1.0e6
        m = model(drive=math.sqrt(rhs / 0.13))
        roots = steady_state_photons(m, m.f_bare, "e")
        assert len(roots) == 3
        assert sum(r.stable for r in roots) == 2
        assert not roots[1].stable  # middle branch unstable
        assert brute_force_root_count(m, m.f_bare, "e") == 3

    def test_root_count_always_odd(self):
        m0 = model()
        for rhs in np.geomspace(1e2, 1e7, 18):
            m = replace(m0, drive_amplitude=math.sqrt(rhs / 0.13))
            for level in ("g", "e"):
                n_roots = len(steady_state_photons(m, m0.f_bare, level))
                assert n_roots in (1, 3)

    def test_zero_drive(self):
        roots = steady_state_photons(model(drive=0.0), 9000.0, "g")
        assert roots == [(0.0, True)]

    @pytest.mark.parametrize("level", ["g", "e", "f"])
    def test_zero_drive_any_level_and_frequency(self, level):
        m = model(drive=0.0)
        for f in (m.f_bare, shifted_frequency(CAVITY_II, level), 8990.0, 9010.0):
            assert steady_state_photons(m, f, level) == [(0.0, True)]


@st.composite
def drive_points(draw):
    """A device, a drive strength R, a qubit level and a drive frequency."""
    m = model(
        n_crit_g=10 ** draw(st.floats(3.0, 6.0)),
        n_crit_e=10 ** draw(st.floats(3.0, 6.0)),
        n_crit_f=10 ** draw(st.floats(3.0, 6.0)),
        bare_offset=draw(st.floats(2.0, 8.0)),
    )
    rhs = 10 ** draw(st.floats(-3.0, 10.0))
    m = replace(m, drive_amplitude=math.sqrt(rhs / m.base.kappa_ext_in))
    anchor = draw(st.sampled_from(["g", "e", "f", "bare"]))
    f0 = m.f_bare if anchor == "bare" else shifted_frequency(m.base, anchor)
    return m, f0 + draw(st.floats(-1.0, 1.0)), draw(st.sampled_from(["g", "e", "f"]))


class TestAgainstScan:
    """The closed-form cubic roots against the log-grid scan they replace."""

    @given(drive_points())
    @settings(max_examples=300, deadline=None)
    def test_roots_match_scan(self, point):
        m, f, level = point
        got = steady_state_photons(m, f, level)
        ref = scan_steady_state_photons(m, f, level)
        assert [r.stable for r in got] == [r.stable for r in ref]
        rhs = m.base.kappa_ext_in * m.drive_amplitude**2
        scale = rhs / (m.base.kappa_tot / 2.0) ** 2
        for r, q in zip(got, ref):
            assert abs(r.n - q.n) <= 1e-8 * q.n + 1e-11 * scale

    def test_bistable_roots_match_scan(self):
        m = model(drive=math.sqrt(1.0e6 / 0.13))
        got = steady_state_photons(m, m.f_bare, "e")
        ref = scan_steady_state_photons(m, m.f_bare, "e")
        assert [r.stable for r in got] == [r.stable for r in ref] == [True, False, True]
        for r, q in zip(got, ref):
            assert r.n == pytest.approx(q.n, rel=1e-9)

    @pytest.mark.parametrize("subspace", ["ge", "gf"])
    def test_gain_sweep_matches_scan(self, subspace):
        m = model()
        grid = np.geomspace(3.0, 1e8, 24)
        got = gain_sweep(m, 0.80, 0.925, grid, subspace)
        ref = scan_gain_sweep(m, 0.80, 0.925, grid, subspace)
        assert [p.regime for p in got] == [p.regime for p in ref]
        assert [p.n_s for p in got] == [p.n_s for p in ref]
        np.testing.assert_allclose([p.gain_db for p in got], [p.gain_db for p in ref], rtol=0, atol=1e-8)
        np.testing.assert_allclose(
            [p.extinction_db for p in got], [p.extinction_db for p in ref], rtol=0, atol=1e-8
        )

    @given(
        st.floats(0.8, 1.25), st.floats(0.8, 1.25), st.floats(0.8, 1.25),
        st.floats(0.9, 1.1), st.floats(0.9, 1.1), st.sampled_from(["ge", "gf"]),
    )
    @settings(max_examples=6, deadline=None)
    def test_gain_sweep_matches_scan_jittered_devices(self, jg, je, jf, jb, jc, subspace):
        m = model(n_crit_g=1.0e4 * jg, n_crit_e=2.0e5 * je, n_crit_f=4.0e4 * jf,
                  bare_offset=5.0 * jb, photon_flux_conversion=11.0 * jc)
        grid = np.geomspace(1.0, 1e7, 12)
        got = gain_sweep(m, 0.75, 0.9, grid, subspace)
        ref = scan_gain_sweep(m, 0.75, 0.9, grid, subspace)
        assert [p.regime for p in got] == [p.regime for p in ref]
        np.testing.assert_allclose([p.gain_db for p in got], [p.gain_db for p in ref], rtol=0, atol=1e-8)
        np.testing.assert_allclose(
            [p.extinction_db for p in got], [p.extinction_db for p in ref], rtol=0, atol=1e-8
        )


def transmitted_photons(
    m: SaturableCavityModel, f: float, qubit_level: str, branch_rule: str = "dim"
) -> float:
    """Output photons over the signal window, n_stable * kappa_out * window: the scalar
    form of the root selection ``gain_sweep`` makes over its whole grid."""
    rhs = m.base.kappa_ext_in * m.drive_amplitude**2
    n_sel = float(_selected_root(m, f, qubit_level, branch_rule, rhs))
    return n_sel * m.base.kappa_ext_out * m.settings.signal_window_us


class TestTransmittedPhotons:
    def test_weak_drive_matches_closed_form(self):
        m = model(drive=0.05)
        for level in ("g", "e", "f"):
            f = shifted_frequency(CAVITY_II, level)
            t2 = abs(transmission_coeff(CAVITY_II, f, level)) ** 2
            flux_in = m.drive_amplitude**2
            expected = t2 * flux_in * m.settings.signal_window_us
            got = transmitted_photons(m, f, level, "dim")
            assert got == pytest.approx(expected, rel=1e-6)

    def test_linear_limit_matches_closed_form_any_drive(self):
        m = model(drive=40.0, n_crit_g=1e30, n_crit_e=1e30, n_crit_f=1e30)
        f = shifted_frequency(CAVITY_II, "e") + 0.4
        t2 = abs(transmission_coeff(CAVITY_II, f, "e")) ** 2
        expected = t2 * m.drive_amplitude**2 * m.settings.signal_window_us
        assert transmitted_photons(m, f, "e", "dim") == pytest.approx(expected, rel=1e-6)

    def test_bright_branch_state_independent_at_strong_drive(self):
        rhs = 1.0e9
        m = model(drive=math.sqrt(rhs / 0.13))
        bright = {
            lev: transmitted_photons(m, m.f_bare, lev, "bright") for lev in ("g", "e")
        }
        assert bright["g"] == pytest.approx(bright["e"], rel=0.01)

    def test_bright_branch_difference_shrinks_monotonically(self):
        # beyond the last fold the g/e contrast decays toward zero with drive
        m0 = model()
        diffs = []
        for rhs in np.geomspace(1e7, 1e10, 10):
            m = replace(m0, drive_amplitude=math.sqrt(rhs / 0.13))
            g = transmitted_photons(m, m0.f_bare, "g", "bright")
            e = transmitted_photons(m, m0.f_bare, "e", "bright")
            diffs.append(abs(g - e) / g)
        assert all(b < a for a, b in zip(diffs, diffs[1:]))
        assert diffs[-1] < 1e-3

    def test_branch_rules_bracket_bistable_window(self):
        rhs = 1.0e6
        m = model(drive=math.sqrt(rhs / 0.13))
        dim = transmitted_photons(m, m.f_bare, "e", "dim")
        bright = transmitted_photons(m, m.f_bare, "e", "bright")
        assert bright > 10 * dim

    def test_continuity_along_dim_branch(self):
        # normalized transmission drifts smoothly with drive; no branch jumps
        m0 = model()
        f = shifted_frequency(CAVITY_II, "e")
        prev = None
        for rhs in np.geomspace(10.0, 1e4, 120):
            m = replace(m0, drive_amplitude=math.sqrt(rhs / 0.13))
            val = transmitted_photons(m, f, "e", "dim") / rhs
            if prev is not None:
                assert abs(val - prev) < 0.05 * abs(prev) + 1e-9
            prev = val


@pytest.fixture(scope="module")
def sweep():
    grid = np.geomspace(3.0, 1e8, 48)
    return gain_sweep(model(), 0.80, 0.925, grid, "ge")


class TestGainSweep:
    def test_linear_regime_slope_one(self, sweep):
        pts = [(math.log10(p.n_s), p.gain_db / 10.0) for p in sweep if p.n_s < 100]
        assert len(pts) >= 5
        xs, ys = zip(*pts)
        slope = np.polyfit(xs, ys, 1)[0]
        assert slope == pytest.approx(1.0, abs=0.05)

    def test_all_three_regimes_present(self, sweep):
        regimes = {p.regime for p in sweep}
        assert regimes == {"linear", "blockade", "bright"}

    def test_blockade_extinction_dips_below_linear(self, sweep):
        r_linear = min(p.extinction_db for p in sweep if p.regime == "linear")
        r_blockade = min(p.extinction_db for p in sweep if p.regime == "blockade")
        assert r_blockade < r_linear - 0.5

    def test_bright_peak_exceeds_plateau_then_collapses(self, sweep):
        plateau = max(p.gain_db for p in sweep if p.regime == "blockade")
        bright = [p for p in sweep if p.regime == "bright"]
        peak = max(p.gain_db for p in bright)
        assert peak > plateau + 20.0
        assert bright[-1].gain_db < peak - 10.0

    def test_gf_subspace_also_sweeps(self):
        grid = np.geomspace(3.0, 1e8, 24)
        pts = gain_sweep(model(), 0.80, 0.925, grid, "gf")
        assert len(pts) == 24
        assert {p.regime for p in pts} >= {"linear", "bright"}

    def test_grid_must_ascend(self):
        with pytest.raises(ValueError):
            gain_sweep(model(), 0.8, 0.9, [10.0, 5.0], "ge")

    @pytest.mark.parametrize("bad", [-5.0, math.nan, math.inf])
    def test_grid_rejects_negative_and_non_finite(self, bad):
        with pytest.raises(ValueError, match="n_s_grid"):
            gain_sweep(model(), 0.8, 0.9, [bad, 10.0], "ge")

    def test_zero_signal_point(self):
        pt = gain_sweep(model(), 0.8, 0.9, [0.0, 10.0], "ge")[0]
        assert pt.n_s == 0.0 and pt.gain_db == -math.inf and pt.regime == "linear"


def test_build_model_from_settings():
    settings = SemiclassicalSettings()
    m = build_model(CAVITY_II, settings, drive_amplitude=2.0)
    assert m.base == CAVITY_II
    assert m.settings is settings
    assert m.n_crit("e") == settings.n_crit_e
    assert m.drive_amplitude == 2.0


def test_settings_validation():
    with pytest.raises(ValueError):
        SemiclassicalSettings(n_crit_g=0.0)
    with pytest.raises(ValueError):
        SaturableCavityModel(CAVITY_II, SemiclassicalSettings(), drive_amplitude=-1.0)
