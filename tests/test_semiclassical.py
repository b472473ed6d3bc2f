import itertools
import math
import re
from dataclasses import replace
from fractions import Fraction
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from photon_transistor import semiclassical
from photon_transistor.analysis import CalibrationResult, extinction_db, gain_db, predict_single_photon
from photon_transistor.cavity import CavityParams, shifted_frequency, transmission_coeff
from photon_transistor.errors import Breach, NumericsError
from photon_transistor.semiclassical import (
    SaturableCavityModel,
    SemiclassicalSettings,
    SweepPoint,
    _classify,
    _dim_root,
    _steady_states,
    _sweep,
    build_model,
    gain_sweep,
)

from printed_text import boundary_values

CAVITY_II = CavityParams(9000.0, 0.13, 0.13, 0.04, -0.947, -1.759)


class Root(NamedTuple):
    n: float
    stable: bool


def model(base=CAVITY_II, **kw):
    fields = dict(
        n_crit_g=1.0e4,
        n_crit_e=2.0e5,
        n_crit_f=4.0e4,
        bare_offset=5.0,
        signal_window_us=10.0,
        photon_flux_conversion=11.0,
    )
    fields.update(kw)
    return SaturableCavityModel(base, SemiclassicalSettings(**fields))


def drive(amplitude, base=CAVITY_II):
    """Drive strength rhs = kappa_in * |amplitude|^2 of an input amplitude in sqrt(model flux)."""
    return base.kappa_ext_in * amplitude**2


def roots(m, f, level, rhs):
    """The real roots of ``_steady_states`` at one drive point, ascending."""
    n, stable = _steady_states(m, f, level, rhs)
    return [Root(float(x), bool(s)) for x, s in zip(n, stable) if not np.isnan(x)]


def linear_root(m, f, level, rhs):
    """Closed-form root of the unsaturated (n_crit -> inf) flux balance."""
    delta = f - shifted_frequency(m.base, level)
    return rhs / ((m.base.kappa_tot / 2) ** 2 + delta**2)


def _response(m: SaturableCavityModel, n, delta_bare: float, level: str):
    """LHS of the steady-state flux balance n*[(k/2)^2 + det(n)^2]."""
    u = np.asarray(n, dtype=float) / m.n_crit(level)
    det = delta_bare - m.pull(level) / (1.0 + u)
    return np.asarray(n, dtype=float) * ((m.base.kappa_tot / 2.0) ** 2 + det**2)


def scan_steady_state_photons(m, f, qubit_level, rhs):
    """Reference roots: sign-change scan over a 4001-point log grid, brentq in
    every bracket, stability from a finite-difference slope of the flux balance."""
    if rhs == 0.0:
        return [Root(0.0, True)]
    delta_bare = f - m.f_bare
    n_max = 1.05 * rhs / (m.base.kappa_tot / 2.0) ** 2
    grid = np.concatenate([[0.0], np.geomspace(n_max * 1e-15, n_max, 4001)])
    vals = _response(m, grid, delta_bare, qubit_level) - rhs
    found: list[float] = []
    for i in range(len(grid) - 1):
        if vals[i] == 0.0 and grid[i] > 0:
            found.append(grid[i])
        elif vals[i] * vals[i + 1] < 0:
            r = brentq(
                lambda n: float(_response(m, n, delta_bare, qubit_level) - rhs),
                grid[i],
                grid[i + 1],
                xtol=1e-12 * n_max,
                rtol=1e-14,
            )
            found.append(float(r))
    assert found, "the flux balance changes sign between 0 and n_max"
    out = []
    for r in sorted(found):
        h = max(r * 1e-7, 1e-12 * n_max)
        slope = _response(m, r + h, delta_bare, qubit_level) - _response(
            m, max(r - h, 0.0), delta_bare, qubit_level
        )
        out.append(Root(r, bool(slope > 0)))
    return out


def scan_gain_sweep(m, eta, p_s, n_s_grid, subspace):
    """Reference sweep: the per-point, per-candidate loop over scan_steady_state_photons."""
    excited = "e" if subspace == "ge" else "f"
    conv = m.settings.photon_flux_conversion
    out = []
    for n_s in n_s_grid:
        flux = conv * n_s / m.settings.signal_window_us
        rhs = m.base.kappa_ext_in * flux
        best = None
        for f_cand in (shifted_frequency(m.base, excited), m.f_bare):
            n_exc_root = min(r.n for r in scan_steady_state_photons(m, f_cand, excited, rhs) if r.stable)
            n_g_root = min(r.n for r in scan_steady_state_photons(m, f_cand, "g", rhs) if r.stable)
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


def brute_force_root_count(m, f, level, rhs, n_pts=200_000):
    """Independent dense-grid oracle: count sign changes of the flux balance."""
    n_max = 1.05 * rhs / (m.base.kappa_tot / 2) ** 2
    grid = np.concatenate([[0.0], np.geomspace(n_max * 1e-15, n_max, n_pts)])
    vals = _response(m, grid, f - m.f_bare, level) - rhs
    return int(np.sum(vals[:-1] * vals[1:] < 0))


class TestSteadyState:
    def test_linear_limit_single_root(self):
        m = model(n_crit_g=1e30, n_crit_e=1e30, n_crit_f=1e30)
        f = shifted_frequency(CAVITY_II, "g")
        rhs = drive(3.0)
        got = roots(m, f, "g", rhs)
        assert len(got) == 1 and got[0].stable
        assert got[0].n == pytest.approx(linear_root(m, f, "g", rhs), rel=1e-9)

    def test_level_independent_when_chi_zero(self):
        base = replace(CAVITY_II, chi_ge=0.0, chi_gf=0.0)
        m = model(base=base, bare_offset=0.0)
        f = base.f0 + 0.3
        got = {lev: roots(m, f, lev, drive(5.0, base))[0].n for lev in ("g", "e", "f")}
        assert got["g"] == pytest.approx(got["e"], rel=1e-12)
        assert got["g"] == pytest.approx(got["f"], rel=1e-12)

    def test_bistable_window_three_roots_two_stable(self):
        # e-branch driven at the bare frequency inside its fold window
        m, rhs = model(), 1.0e6
        got = roots(m, m.f_bare, "e", rhs)
        assert len(got) == 3
        assert sum(r.stable for r in got) == 2
        assert not got[1].stable  # middle branch unstable
        assert brute_force_root_count(m, m.f_bare, "e", rhs) == 3

    def test_root_count_always_odd(self):
        m = model()
        for rhs in np.geomspace(1e2, 1e7, 18):
            for level in ("g", "e"):
                assert len(roots(m, m.f_bare, level, rhs)) in (1, 3)

    def test_zero_drive(self):
        assert roots(model(), 9000.0, "g", 0.0) == [(0.0, True)]

    @pytest.mark.parametrize("level", ["g", "e", "f"])
    def test_zero_drive_any_level_and_frequency(self, level):
        for m in (model(), model(bare_offset=0.0)):
            for f in (m.f_bare, shifted_frequency(CAVITY_II, level), 8990.0, 9010.0):
                assert roots(m, f, level, 0.0) == [(0.0, True)]


@st.composite
def drive_points(draw):
    """A device, a qubit level, a drive frequency and a drive strength R."""
    m = model(
        n_crit_g=10 ** draw(st.floats(3.0, 6.0)),
        n_crit_e=10 ** draw(st.floats(3.0, 6.0)),
        n_crit_f=10 ** draw(st.floats(3.0, 6.0)),
        bare_offset=draw(st.floats(2.0, 8.0)),
    )
    rhs = 10 ** draw(st.floats(-3.0, 10.0))
    anchor = draw(st.sampled_from(["g", "e", "f", "bare"]))
    f0 = m.f_bare if anchor == "bare" else shifted_frequency(m.base, anchor)
    return m, f0 + draw(st.floats(-1.0, 1.0)), draw(st.sampled_from(["g", "e", "f"])), rhs


class TestAgainstScan:
    """The closed-form cubic roots against the log-grid scan they replace."""

    @given(drive_points())
    @settings(max_examples=300, deadline=None)
    def test_roots_match_scan(self, point):
        m, f, level, rhs = point
        got = roots(m, f, level, rhs)
        ref = scan_steady_state_photons(m, f, level, rhs)
        assert [r.stable for r in got] == [r.stable for r in ref]
        scale = rhs / (m.base.kappa_tot / 2.0) ** 2
        for r, q in zip(got, ref):
            assert abs(r.n - q.n) <= 1e-8 * q.n + 1e-11 * scale

    def test_bistable_roots_match_scan(self):
        m, rhs = model(), 1.0e6
        got = roots(m, m.f_bare, "e", rhs)
        ref = scan_steady_state_photons(m, m.f_bare, "e", rhs)
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


class TestZeroPull:
    """With no bare offset the g pull is 0, and the cubic carries the double root u = -1."""

    @pytest.mark.parametrize("level", ["g", "e", "f"])
    def test_roots_match_scan(self, level):
        m = model(bare_offset=0.0)
        scale = (m.base.kappa_tot / 2.0) ** 2
        for f in (m.f_bare - 0.5, m.f_bare, m.f_bare + 0.3, *(shifted_frequency(m.base, x) for x in "ef")):
            for rhs in (1e-3, 3.25, 1e3, 1e6, 1e9):
                got = roots(m, f, level, rhs)
                ref = scan_steady_state_photons(m, f, level, rhs)
                assert [r.stable for r in got] == [r.stable for r in ref]
                for r, q in zip(got, ref):
                    assert abs(r.n - q.n) <= 1e-8 * q.n + 1e-11 * rhs / scale

    def test_no_negative_root(self):
        m = model(bare_offset=0.0)
        f = np.linspace(m.f_bare - 3.0, m.f_bare + 3.0, 61)
        rhs = np.geomspace(1e-3, 1e9, 25)[:, None]
        n, _ = _steady_states(m, f, "g", rhs)
        assert not np.any(n < 0.0)
        # one root per point, the unsaturated closed form: a zero pull makes the g response linear
        assert np.all(np.isnan(n[..., 1:]))
        np.testing.assert_allclose(n[..., 0], linear_root(m, f, "g", rhs), rtol=1e-9)

    def test_gain_sweep_matches_scan(self):
        m = model(bare_offset=0.0)
        grid = np.geomspace(3.0, 1e8, 12)
        got = gain_sweep(m, 0.80, 0.925, grid, "ge")
        ref = scan_gain_sweep(m, 0.80, 0.925, grid, "ge")
        assert [p.regime for p in got] == [p.regime for p in ref]
        np.testing.assert_allclose([p.gain_db for p in got], [p.gain_db for p in ref], rtol=0, atol=1e-8)
        np.testing.assert_allclose(
            [p.extinction_db for p in got], [p.extinction_db for p in ref], rtol=0, atol=1e-8
        )


def companion_steady_states(m, f, level, rhs):
    """The solver the closed form replaced: the cubic's roots as the eigenvalues of stacked
    3x3 companion matrices, the non-negative real ones kept.  Returns ``(n, stable, lam)``,
    lam holding all three eigenvalues of u = n/n_crit."""
    n_c = m.n_crit(level)
    a = (m.base.kappa_tot / 2.0) ** 2
    d, rhs = np.broadcast_arrays(np.asarray(f, dtype=float) - m.f_bare, np.asarray(rhs, dtype=float))
    c = d - m.pull(level)
    lead = n_c * (a + d * d)
    b2 = (2.0 * n_c * (a + d * c) - rhs) / lead
    b1 = (n_c * (a + c * c) - 2.0 * rhs) / lead
    b0 = -rhs / lead
    companion = np.zeros(d.shape + (3, 3))
    companion[..., 0, :] = -np.stack([b2, b1, b0], axis=-1)
    companion[..., 1, 0] = companion[..., 2, 1] = 1.0
    lam = np.linalg.eigvals(companion)
    # LAPACK returns the real eigenvalues of a real matrix with zero imaginary part
    populations = (lam.imag == 0.0) & (lam.real >= 0.0)
    u = np.sort(np.where(populations, lam.real, np.nan), axis=-1)  # NaN slots last
    stable = (3.0 * u + 2.0 * b2[..., None]) * u + b1[..., None] > 0.0
    return n_c * u, stable, lam


def near_fold(lam, gap=1e-3) -> bool:
    """Whether two eigenvalues that could be populations lie within a relative ``gap``: a
    fold of the response, where two roots merge and either solver may count them apart or
    together.  Real parts below -1/4 are never populations, so the zero pull's double root
    u = -1 is not a fold."""
    return any(abs(x - y) <= gap * (abs(x) + abs(y))
               for x, y in itertools.combinations(lam, 2) if min(x.real, y.real) > -0.25)


def exact_sign_change(m, f, level, rhs, n, ulps=4) -> bool:
    """Whether G(u) = n_crit*u*[a(1+u)^2 + (d*u + c)^2] - rhs*(1+u)^2, evaluated in exact
    rationals on the solver's own float a, d and c, changes sign between n -/+ ulps*spacing(n)."""
    d = f - m.f_bare
    a, d, c, rhs, n_c = map(Fraction, ((m.base.kappa_tot / 2.0) ** 2, d, d - m.pull(level), rhs, m.n_crit(level)))

    def G(x):
        u = Fraction(x) / n_c
        return Fraction(x) * (a * (1 + u) ** 2 + (d * u + c) ** 2) - rhs * (1 + u) ** 2

    h = ulps * np.spacing(n)
    return G(n - h) * G(n + h) <= 0


@st.composite
def cubic_points(draw):
    """A device, a qubit level, a drive frequency and a drive strength R, zero pull and
    zero drive included."""
    m = model(
        n_crit_g=10 ** draw(st.floats(3.0, 6.0)),
        n_crit_e=10 ** draw(st.floats(3.0, 6.0)),
        n_crit_f=10 ** draw(st.floats(3.0, 6.0)),
        bare_offset=draw(st.just(0.0) | st.floats(2.0, 8.0)),
    )
    rhs = draw(st.just(0.0) | st.floats(-3.0, 10.0).map(lambda e: 10**e))
    anchor = draw(st.sampled_from(["g", "e", "f", "bare"]))
    f0 = m.f_bare if anchor == "bare" else shifted_frequency(m.base, anchor)
    return m, f0 + draw(st.floats(-1.0, 1.0)), draw(st.sampled_from(["g", "e", "f"])), rhs


class TestAgainstCompanion:
    """The closed-form roots against the companion-matrix eigenvalues they replace."""

    @given(cubic_points())
    # at this strong drive the trigonometric form puts the complex pair near u = -1 at
    # n = 1670, a root that only the Newton convergence rule drops
    @example((model(n_crit_f=7082.034764311803, bare_offset=0.044854852170459175),
              9000.045619476643, "f", 933492988.9141754))
    @settings(max_examples=500, deadline=None)
    def test_matches_companion_away_from_folds(self, point):
        m, f, level, rhs = point
        n, stable = _steady_states(m, f, level, rhs)
        ref_n, ref_stable, lam = companion_steady_states(m, f, level, rhs)
        assume(not near_fold(lam))
        kept, ref_kept = ~np.isnan(n), ~np.isnan(ref_n)
        assert kept.tolist() == sorted(kept.tolist(), reverse=True)  # NaN slots last
        assert stable[kept].tolist() == ref_stable[ref_kept].tolist()
        assert not np.any(stable[~kept])
        np.testing.assert_allclose(n[kept], ref_n[ref_kept], rtol=1e-10, atol=0.0)

    def test_dim_roots_bracket_an_exact_sign_change(self):
        # 20 jittered devices x 3 levels x 3 frequencies x 40 drives: 7200 dim-branch roots
        rng = np.random.default_rng(2024)
        rhs = (CAVITY_II.kappa_ext_in * 1.1 * np.geomspace(1.0, 1e8, 40))[:, None]
        hits, total = {"closed": 0, "companion": 0}, 0
        for _ in range(20):
            m = model(n_crit_g=1.0e4 * rng.uniform(0.5, 2.0), n_crit_e=2.0e5 * rng.uniform(0.5, 2.0),
                      n_crit_f=4.0e4 * rng.uniform(0.5, 2.0), bare_offset=5.0 * rng.uniform(0.8, 1.2))
            f = np.array([shifted_frequency(m.base, "e"), shifted_frequency(m.base, "f"), m.f_bare])
            for level in "gef":
                ref_n, ref_stable, _ = companion_steady_states(m, f, level, rhs)
                dims = {"closed": _dim_root(m, f, level, rhs),
                        "companion": np.where(ref_stable, ref_n, np.inf).min(axis=-1)}
                for i, j in np.ndindex(dims["closed"].shape):
                    total += 1
                    for name, dim in dims.items():
                        hits[name] += exact_sign_change(m, float(f[j]), level, float(rhs[i, 0]), float(dim[i, j]))
        assert total == 7200
        assert hits["closed"] >= hits["companion"], hits
        assert hits["closed"] >= 0.99 * total, hits


def scalar_gain_db(n1: float, n0: float) -> float:
    """analysis.gain_db as it was before it became elementwise."""
    diff = abs(n1 - n0)
    return -math.inf if diff == 0.0 else 10.0 * math.log10(diff)


def scalar_extinction_db(n_on: float, n_off: float) -> float:
    """analysis.extinction_db as it was before it became elementwise."""
    hi, lo = max(n_on, n_off), min(n_on, n_off)
    return math.inf if lo == 0.0 else 10.0 * math.log10(hi / lo)


def loop_gain_sweep(m, eta, p_s, n_s_grid, subspace):
    """The sweep as it was written before its prediction and its pick were batched: the
    same batched dim roots and regimes, then one CalibrationResult per (point, candidate),
    the scalar gain of each entry and a max over the candidates (the first among equal gains)."""
    grid = np.asarray(n_s_grid, dtype=float)
    excited = "e" if subspace == "ge" else "f"
    f_cand = np.array([shifted_frequency(m.base, excited), m.f_bare])
    conv, window = m.settings.photon_flux_conversion, m.settings.signal_window_us
    flux = conv * grid / window
    rhs = (m.base.kappa_ext_in * flux)[:, None]
    n_exc_root = _dim_root(m, f_cand, excited, rhs)
    n_g_root = _dim_root(m, f_cand, "g", rhs)
    regimes = _classify(m, f_cand, excited, n_exc_root, n_g_root, flux)
    n_exc = n_exc_root * m.base.kappa_ext_out * window / conv
    n_g = n_g_root * m.base.kappa_ext_out * window / conv
    out = []
    for n_s, exc_row, g_row, regime_row in zip(grid.tolist(), n_exc.tolist(), n_g.tolist(), regimes.tolist()):
        cands = [predict_single_photon(CalibrationResult(0.0, 1.0, n_g_state, n_e_state, 0.0), eta * p_s)
                 for n_e_state, n_g_state in zip(exc_row, g_row)]
        gains = [scalar_gain_db(n1, n0) for n1, n0 in cands]
        k = max(range(len(gains)), key=gains.__getitem__)
        n1, n0 = cands[k]
        out.append(SweepPoint(n_s, gains[k], scalar_extinction_db(n0, n1), regime_row[k]))
    return out


@st.composite
def sweep_cases(draw):
    """A jittered device, a subspace, eta and p_s, and an ascending grid, zeros included."""
    m = model(
        n_crit_g=1.0e4 * draw(st.floats(0.5, 2.0)),
        n_crit_e=2.0e5 * draw(st.floats(0.5, 2.0)),
        n_crit_f=4.0e4 * draw(st.floats(0.5, 2.0)),
        bare_offset=5.0 * draw(st.floats(0.8, 1.2)),
        photon_flux_conversion=11.0 * draw(st.floats(0.8, 1.2)),
        signal_window_us=10.0 * draw(st.floats(0.5, 2.0)),
    )
    probability = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
    zeros = [0.0] * draw(st.integers(0, 3))
    grid = sorted(zeros + [10**e for e in draw(st.lists(st.floats(-2.0, 10.0), max_size=40))])
    return m, draw(probability), draw(probability), grid or [0.0], draw(st.sampled_from(["ge", "gf"]))


class TestBatchedPrediction:
    """``gain_sweep``'s elementwise prediction, gain and argmax pick against the per-candidate
    loop and the scalar gain formulas they replace."""

    @given(sweep_cases())
    # at eta = 0 both candidates' gains are -inf, so the first candidate must be reported
    @example((model(), 0.0, 0.925, [0.0, 0.0, 3.0, 1.0e5, 1.6e6], "ge"))
    @example((model(), 0.0, 0.925, [0.0, 3.0, 1.0e5, 1.6e6], "gf"))
    @settings(max_examples=200, deadline=None)
    def test_matches_per_candidate_loop(self, case):
        m, eta, p_s, grid, subspace = case
        got = gain_sweep(m, eta, p_s, grid, subspace)
        ref = loop_gain_sweep(m, eta, p_s, grid, subspace)
        assert [(p.n_s, p.regime) for p in got] == [(p.n_s, p.regime) for p in ref]
        # Python floats, not numpy scalars, as the CSV writer formats them
        assert all(type(v) is float for p in got for v in p[:3])
        # np.log10 and math.log10 disagree by up to 2 ulp in the dB values, for 12 % of them
        # on one host, which moves the %.12g text only at a boundary value: 1 of 172,040
        # values over 4000 random sweeps (numpy 2.4.6).  At most 1 per sweep is allowed.
        moved = boundary_values([p.gain_db for p in got], [p.gain_db for p in ref], ulps=2)
        moved += boundary_values([p.extinction_db for p in got], [p.extinction_db for p in ref], ulps=2)
        assert moved <= 1


def subspace_gain_sweep(m, eta, p_s, n_s_grid, subspace):
    """The sweep as it was written before every subspace came from one pass: per subspace,
    one batched solve per qubit level (the level named, as a str), then the elementwise tail."""
    grid = np.asarray(n_s_grid, dtype=float)
    excited = "e" if subspace == "ge" else "f"
    eta_eff = eta * p_s
    f_cand = np.array([shifted_frequency(m.base, excited), m.f_bare])
    conv, window = m.settings.photon_flux_conversion, m.settings.signal_window_us
    flux = conv * grid / window
    rhs = (m.base.kappa_ext_in * flux)[:, None]
    n_exc_root = _dim_root(m, f_cand, excited, rhs)
    n_g_root = _dim_root(m, f_cand, "g", rhs)
    finite = np.isfinite(n_exc_root).all(axis=1) & np.isfinite(n_g_root).all(axis=1)
    if not finite.all():
        raise NumericsError(f"no finite dim-branch population at n_s = {float(grid[np.argmin(finite)])!r}: "
                            "the mean-field cubic overflows")
    regimes = _classify(m, f_cand, excited, n_exc_root, n_g_root, flux)
    n_exc = n_exc_root * m.base.kappa_ext_out * window / conv
    n_g = n_g_root * m.base.kappa_ext_out * window / conv
    n1, n0 = predict_single_photon(CalibrationResult(0.0, 1.0, n_g, n_exc, 0.0), eta_eff)
    gains = gain_db(n1, n0)
    pick = (np.arange(grid.size), np.argmax(gains, axis=1))
    columns = (grid, gains[pick], extinction_db(n0[pick], n1[pick]), regimes[pick])
    return [SweepPoint(*row) for row in zip(*(c.tolist() for c in columns))]


def hex_rows(points):
    return [(p.n_s.hex(), p.gain_db.hex(), p.extinction_db.hex(), p.regime) for p in points]


def swept(sweep, *args):
    """``sweep(*args)``'s value, or the message of the NumericsError it raises."""
    try:
        return sweep(*args)
    except NumericsError as exc:
        return str(exc)


@st.composite
def one_pass_cases(draw):
    """A device jittered as the benchmark's are, eta and p_s, subspaces in some order, and an
    ascending grid: n_s = 0 points, and points past the cubic's overflow near 1e107, included."""
    m = model(
        n_crit_g=1.0e4 * draw(st.floats(0.8, 1.25)),
        n_crit_e=2.0e5 * draw(st.floats(0.8, 1.25)),
        n_crit_f=4.0e4 * draw(st.floats(0.8, 1.25)),
        bare_offset=5.0 * draw(st.floats(0.9, 1.1)),
        photon_flux_conversion=11.0 * draw(st.floats(0.9, 1.1)),
    )
    probability = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
    zeros = [0.0] * draw(st.integers(0, 2))
    grid = [10**e for e in draw(st.lists(st.floats(-2.0, 12.0), max_size=40))]
    tail = [10**e for e in draw(st.lists(st.floats(100.0, 300.0), max_size=3))]
    subspaces = draw(st.sampled_from([("ge",), ("gf",), ("ge", "gf"), ("gf", "ge")]))
    return m, draw(probability), draw(probability), sorted(zeros + grid + tail) or [0.0], subspaces


class TestOnePass:
    """``_sweep``'s one pass over every subspace, level and candidate against the sweep it
    replaces, one subspace and one qubit level at a time: bit for bit, and the same error."""

    @given(one_pass_cases())
    @example((model(), 0.80, 0.925, np.geomspace(3.0, 1e300, 60).tolist(), ("ge", "gf")))
    @example((model(bare_offset=0.0), 0.0, 0.925, [0.0, 3.0, 1.0e5, 1.6e6], ("ge", "gf")))
    @settings(max_examples=200, deadline=None)
    @pytest.mark.filterwarnings("error")  # the one pass warns of no overflow: the error names it
    def test_matches_one_subspace_at_a_time(self, case):
        m, eta, p_s, grid, subspaces = case
        ref = [swept(subspace_gain_sweep, m, eta, p_s, grid, subspace) for subspace in subspaces]
        errors = [r for r in ref if isinstance(r, str)]
        got = swept(_sweep, m, eta, p_s, grid, subspaces)
        if errors:
            assert got == errors[0]
        else:
            n_s, gains, extinctions, regimes = got
            rows = [[SweepPoint(*row) for row in zip(n_s.tolist(), *(c.tolist() for c in columns))]
                    for columns in zip(gains, extinctions, regimes)]
            assert [hex_rows(r) for r in rows] == [hex_rows(r) for r in ref]
        for subspace, r in zip(subspaces, ref):
            one = swept(gain_sweep, m, eta, p_s, grid, subspace)
            assert one == r if isinstance(r, str) else hex_rows(one) == hex_rows(r)

    def test_one_solve_per_sweep(self):
        with mock.patch.object(semiclassical, "_steady_states", wraps=semiclassical._steady_states) as solve:
            gain_sweep(model(), 0.80, 0.925, np.geomspace(3.0, 1e8, 24), "gf")
        assert solve.call_count == 1

    def test_unknown_subspace(self):
        with pytest.raises(ValueError, match="unknown subspace 'ef'"):
            _sweep(model(), 0.8, 0.9, [1.0], ("ge", "ef"))

    @pytest.mark.parametrize("eta, p_s, message", [
        (1.5, 0.5, "eta must be in [0, 1], got 1.5"),  # eta * p_s = 0.75 would pass
        (0.8, 1.5, "p_s must be in [0, 1], got 1.5"),  # not eta, for the product 1.2
        (math.nan, 0.5, "eta must be a finite number, got nan"),
        (0.8, True, "p_s must be a finite number, got True"),
    ])
    def test_eta_and_p_s_checked_before_solving(self, eta, p_s, message):
        with mock.patch.object(semiclassical, "_steady_states", side_effect=AssertionError("solved")):
            with pytest.raises(Breach, match=rf"^{re.escape(message)}$"):
                gain_sweep(model(), eta, p_s, [1.0, 10.0])


def transmitted_photons(m: SaturableCavityModel, f: float, level: str, rhs: float, branch: str = "dim") -> float:
    """Output photons over the signal window, n_stable * kappa_out * window, on the dim
    (lowest stable) or bright (highest stable) branch of ``_steady_states``."""
    n, stable = _steady_states(m, f, level, rhs)
    if branch == "dim":
        n_sel = np.where(stable, n, np.inf).min()
    else:
        n_sel = np.where(stable, n, -np.inf).max()
    return float(n_sel) * m.base.kappa_ext_out * m.settings.signal_window_us


class TestTransmittedPhotons:
    def test_weak_drive_matches_closed_form(self):
        m = model()
        for level in ("g", "e", "f"):
            f = shifted_frequency(CAVITY_II, level)
            t2 = abs(transmission_coeff(CAVITY_II, f, level)) ** 2
            flux_in = 0.05**2
            expected = t2 * flux_in * m.settings.signal_window_us
            got = transmitted_photons(m, f, level, drive(0.05))
            assert got == pytest.approx(expected, rel=1e-6)

    def test_linear_limit_matches_closed_form_any_drive(self):
        m = model(n_crit_g=1e30, n_crit_e=1e30, n_crit_f=1e30)
        f = shifted_frequency(CAVITY_II, "e") + 0.4
        t2 = abs(transmission_coeff(CAVITY_II, f, "e")) ** 2
        expected = t2 * 40.0**2 * m.settings.signal_window_us
        assert transmitted_photons(m, f, "e", drive(40.0)) == pytest.approx(expected, rel=1e-6)

    def test_bright_branch_state_independent_at_strong_drive(self):
        m, rhs = model(), 1.0e9
        bright = {lev: transmitted_photons(m, m.f_bare, lev, rhs, "bright") for lev in ("g", "e")}
        assert bright["g"] == pytest.approx(bright["e"], rel=0.01)

    def test_bright_branch_difference_shrinks_monotonically(self):
        # beyond the last fold the g/e contrast decays toward zero with drive
        m = model()
        diffs = []
        for rhs in np.geomspace(1e7, 1e10, 10):
            g = transmitted_photons(m, m.f_bare, "g", rhs, "bright")
            e = transmitted_photons(m, m.f_bare, "e", rhs, "bright")
            diffs.append(abs(g - e) / g)
        assert all(b < a for a, b in zip(diffs, diffs[1:]))
        assert diffs[-1] < 1e-3

    def test_branch_rules_bracket_bistable_window(self):
        m, rhs = model(), 1.0e6
        dim = transmitted_photons(m, m.f_bare, "e", rhs, "dim")
        bright = transmitted_photons(m, m.f_bare, "e", rhs, "bright")
        assert bright > 10 * dim

    def test_continuity_along_dim_branch(self):
        # normalized transmission drifts smoothly with drive; no branch jumps
        m = model()
        f = shifted_frequency(CAVITY_II, "e")
        prev = None
        for rhs in np.geomspace(10.0, 1e4, 120):
            val = transmitted_photons(m, f, "e", rhs, "dim") / rhs
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

    @pytest.mark.parametrize("subspace", ["ge", "gf"])
    @pytest.mark.filterwarnings("error")  # and no overflow is warned of on the way
    def test_overflowing_cubic_is_a_numerics_error_naming_the_first_n_s(self, subspace):
        # the cubic's coefficients overflow at huge drives, and a dim root came out inf or NaN,
        # giving nan gain and extinction rows
        grid = np.geomspace(3.0, 1e300, 60)
        with pytest.raises(NumericsError, match="no finite dim-branch population") as raised:
            gain_sweep(model(), 0.8, 0.925, grid, subspace)
        first = float(str(raised.value).split("n_s = ")[1].split(":")[0])
        k = grid.tolist().index(first)
        assert k > 0
        pts = gain_sweep(model(), 0.8, 0.925, grid[:k], subspace)
        assert not any(math.isnan(p.gain_db) or math.isnan(p.extinction_db) for p in pts)


def test_build_model_from_settings():
    settings = SemiclassicalSettings()
    m = build_model(CAVITY_II, settings)
    assert m.base == CAVITY_II
    assert m.settings is settings
    assert m.n_crit("e") == settings.n_crit_e


def test_settings_validation():
    with pytest.raises(ValueError):
        SemiclassicalSettings(n_crit_g=0.0)
    with pytest.raises(ValueError):
        SemiclassicalSettings(photon_flux_conversion=0.0)
    with pytest.raises(ValueError):
        SemiclassicalSettings(signal_window_us=-1.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["n_crit_g", "n_crit_e", "n_crit_f", "bare_offset", "photon_flux_conversion",
                                  "signal_window_us"])
def test_settings_reject_a_value_that_is_not_a_finite_number(name, value):
    key = "bare_offset_mhz" if name == "bare_offset" else name
    with pytest.raises(ValueError, match=rf"^{key} must be a finite number, got"):
        SemiclassicalSettings(**{name: value})
