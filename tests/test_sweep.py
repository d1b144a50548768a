"""Sweep engine: grids, extremum finders, windows, density curves."""

import math
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from spinhall import (BeamParams, EffectiveCouplings, LayerStack,
                      MediumParams, NoMinimumInWindow,
                      NoSignChange, ScanContext, SweepGrid,
                      effective_couplings, evaluate, find_brewster,
                      find_sign_flip, find_transparency_windows,
                      load_config, max_shift_vs_detuning, susceptibility)
from spinhall.multilayer import RESONANT_DENOMINATOR_FLOOR, _amplitudes
from spinhall.shifts import BREWSTER_FLOOR, shift_kernel
import spinhall.sweep as sweep_module
from spinhall.sweep import COLUMNS, FLAG_BREWSTER, FLAG_RESONANT, sweep
from conftest import medium_from, steady_state_coherence

LAM = 780e-9
BREWSTER_DEG = math.degrees(math.atan(1 / 1.5))


PRESETS = ("fig2-ctl", "fig3-lambda", "fig4-ntype")
# the detuning axes of figs 5b (Lambda medium) and 5d (N-type medium)
FIG5_AXES = {"fig5b": ("fig3-lambda", np.linspace(0.0, 0.2, 41)),
             "fig5d": ("fig4-ntype", np.linspace(-2.0, 2.0, 81))}


def preset_context(preset, delta_p=0.0):
    return ScanContext(*load_config(preset=preset).build(), delta_p=delta_p)


def context(medium, delta_p=0.0, stack=None, beam=None):
    from spinhall import BeamParams
    return ScanContext(medium,
                       stack or LayerStack(eps2=1.0 + 0j),
                       beam or BeamParams(w0=50 * LAM, lam=LAM),
                       delta_p=delta_p)


def reference_table(medium, etas, detunings, thetas_deg, stack, beam):
    """The per-detuning evaluation the broadcast kernel replaced: one
    scalar detuning (one theta row) at a time, same row order, as a flat
    array per column of COLUMNS (the flags a list of strings).
    ``thetas_deg`` is one angle row or, 2-D, one row per detuning."""
    thetas_deg = np.asarray(thetas_deg, dtype=float)
    theta_rows = thetas_deg if thetas_deg.ndim == 2 else [thetas_deg] * len(detunings)
    table = {c: [] for c in COLUMNS}
    for eta in (etas or [medium.eta]):
        for dp, row in zip(detunings, theta_rows):
            thetas_rad = np.radians(row)
            chi = susceptibility(float(dp), replace(medium, eta=float(eta)))
            rp, rs, dmin = _amplitudes(thetas_rad, beam.lam,
                                       replace(stack, eps2=1.0 + chi))
            with np.errstate(invalid="ignore", divide="ignore"):
                delta_plus, theta_minus = shift_kernel(thetas_rad, rp, rs, None, beam)
                ratio = np.abs(rs) / np.abs(rp)
            resonant = ((dmin < RESONANT_DENOMINATOR_FLOOR)
                        | ~np.isfinite(rp) | ~np.isfinite(rs))
            bad = resonant | (np.abs(rp) < BREWSTER_FLOOR)
            n = len(row)
            for col, value in (("theta_deg", row), ("detuning", dp), ("eta", eta),
                               ("chi1", chi.real), ("chi2", chi.imag),
                               ("abs_rp", np.abs(rp)), ("abs_rs", np.abs(rs)),
                               ("ratio_sp", ratio),
                               ("delta_plus_lambda", delta_plus / beam.lam),
                               ("theta_minus", theta_minus)):
                value = np.full(n, value, dtype=float)
                if col in ("ratio_sp", "delta_plus_lambda", "theta_minus"):
                    value[bad] = np.nan
                table[col].append(value)
            table["flags"] += [(FLAG_RESONANT if r else FLAG_BREWSTER) if b else ""
                               for r, b in zip(resonant, bad)]
    for col in COLUMNS[:-1]:
        table[col] = np.concatenate(table[col]) if table[col] else np.zeros(0)
    return table


def reference_golden(f, a, b, tol):
    """The scalar golden section the lockstep search replaced: one bracket,
    f evaluated at one angle per step."""
    inv_phi = (np.sqrt(5) - 1) / 2
    inv_phi2 = (3 - np.sqrt(5)) / 2
    c = a + inv_phi2 * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = a + inv_phi2 * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def reference_extremal_angles(kind, detunings, ctx_base,
                              theta_window_deg=(30.0, 38.0), coarse=801,
                              point=lambda t: t):
    """The per-detuning loop the lockstep search replaced: one coarse scan
    and one scalar golden section per detuning.  ``point`` shapes the angle
    each golden step evaluates: a numpy scalar as before, or np.atleast_1d
    for the array arithmetic the lockstep search does on each row."""
    lo, hi = theta_window_deg
    grid_rad = np.radians(np.linspace(lo, hi, coarse))
    detunings = np.asarray(detunings, dtype=float)
    angles = np.empty_like(detunings)
    out = np.empty_like(detunings)
    for j, dp in enumerate(detunings):
        ctx = replace(ctx_base, delta_p=float(dp))
        if kind == "spatial":
            objective = lambda t: -np.abs(ctx.delta_plus(t))
        else:
            objective = lambda t: -ctx.theta_minus(t)
        vals = objective(grid_rad)
        vals = np.where(np.isfinite(vals), vals, np.inf)
        i = int(np.argmin(vals))
        a = grid_rad[max(i - 1, 0)]
        b = grid_rad[min(i + 1, coarse - 1)]
        scalar = lambda t: np.ravel(objective(point(t)))[0]
        t_best = reference_golden(scalar, a, b, np.radians(sweep_module.GOLDEN_TOL_DEG))
        grid_best = -float(vals[i])
        refined = -float(scalar(t_best))
        if refined > grid_best:
            angles[j], best = t_best, refined
        else:
            angles[j], best = grid_rad[i], grid_best
        out[j] = best / ctx.beam.lam if kind == "spatial" else best
    return np.degrees(angles), out


def reference_find_brewster(theta_window_deg, ctx, coarse=201):
    """find_brewster with the scalar golden section."""
    grid = np.linspace(*theta_window_deg, coarse)
    i = int(np.argmin(ctx.abs_rp(np.radians(grid))))
    f = lambda t_deg: float(ctx.abs_rp(np.radians(t_deg)))
    return reference_golden(f, grid[i - 1], grid[i + 1], sweep_module.GOLDEN_TOL_DEG)


def reference_windows(medium, detuning_range, n=12_001):
    """(minima, step): the interior local minima of |chi| on an n-point
    grid of the range and its step, |chi| from the steady-state solve of
    the chain, so no code of the window finder or of the closed form."""
    dps = np.linspace(*detuning_range, n)
    if medium.eta == 0:
        return [], dps[1] - dps[0]
    mag = np.abs(steady_state_coherence(dps, medium))
    inner = np.flatnonzero((mag[1:-1] < mag[:-2]) & (mag[1:-1] <= mag[2:])) + 1
    return dps[inner].tolist(), dps[1] - dps[0]


def assert_windows_on_grid(got, want, step):
    """The exact minima and the grid minima pair up within one grid step:
    the grid point of least |chi| need not be the nearest one."""
    assert len(got) == len(want)
    np.testing.assert_allclose(got, want, rtol=0, atol=step)


def assert_tables_equal(got, want):
    """A SweepTable equals a flat reference table bit for bit, the sign of
    every zero included."""
    assert len(got) == len(want["flags"])
    for col in COLUMNS[:-1]:
        assert got.column(col).tobytes() == want[col].tobytes(), col
    assert got.column("flags").tolist() == want["flags"]


# the "amplitude_list" grid sweeps one medium per set of field amplitudes
FIELD_AMPLITUDES = [(a, a, 0.7, 0.7) for a in (0.25, 0.5)]
GRIDS = {
    "eta_list": SweepGrid((30.0, 38.0, 41), (-2.0, 2.0, 9), eta_list=(0.05, 0.1, 0.2)),
    "amplitude_list": SweepGrid((30.0, 38.0, 41), (-2.0, 2.0, 9)),
    "brewster": SweepGrid((BREWSTER_DEG, BREWSTER_DEG + 1e-12, 2), (0.0, 1.0, 3)),
}


class TestBroadcastKernel:
    @pytest.mark.parametrize("preset", ["ctl_medium", "lambda_medium", "ntype_medium"])
    @pytest.mark.parametrize("grid_name", sorted(GRIDS))
    @pytest.mark.parametrize("callers", [1, 2])
    @pytest.mark.parametrize("chunk", ["default", "inside_grid", "one_row"])
    def test_matches_per_detuning_reference(self, preset, grid_name, callers, chunk,
                                            request, monkeypatch, vacuum_stack, beam):
        # callers: threads that run the same sweep at once; evaluation keeps
        # no state between calls, so each of them gets the whole table
        medium = request.getfixturevalue(preset)
        grid = GRIDS[grid_name]
        n_theta = len(grid.thetas_deg())
        if chunk == "inside_grid":
            # two theta rows per chunk: boundaries fall inside every block
            monkeypatch.setattr(sweep_module, "CHUNK_POINTS", 2 * n_theta + 1)
        elif chunk == "one_row":
            monkeypatch.setattr(sweep_module, "CHUNK_POINTS", n_theta)
        media = ([replace(medium, couplings=effective_couplings(a, (0.0,) * 4))
                  for a in FIELD_AMPLITUDES]
                 if grid_name == "amplitude_list" else [medium])
        for m in media:
            want = reference_table(m, grid.eta_list, grid.detunings(),
                                   grid.thetas_deg(), vacuum_stack, beam)
            with ThreadPoolExecutor(callers) as pool:
                tables = list(pool.map(lambda _: sweep(grid, m, vacuum_stack, beam),
                                       range(callers)))
            for got in tables:
                assert_tables_equal(got, want)
                if grid_name == "brewster" and preset != "ntype_medium":
                    assert got.flagged_count == 2  # both angles at the transparent detuning

    def test_every_block_runs_on_the_calling_thread(self, ctl_medium, vacuum_stack,
                                                    beam, monkeypatch):
        grid = GRIDS["eta_list"]
        monkeypatch.setattr(sweep_module, "CHUNK_POINTS", 41)
        threads = []
        fill = sweep_module._fill_block

        def spy(*args):
            threads.append(threading.get_ident())
            fill(*args)

        monkeypatch.setattr(sweep_module, "_fill_block", spy)
        sweep(grid, ctl_medium, vacuum_stack, beam)
        assert threads == [threading.get_ident()] * 27  # 3 etas x 9 detunings

    def test_chunks_hold_whole_theta_rows(self, ctl_medium, vacuum_stack, beam,
                                          monkeypatch):
        grid = GRIDS["eta_list"]
        monkeypatch.setattr(sweep_module, "CHUNK_POINTS", 2 * 41 + 1)
        rows = []
        fill = sweep_module._fill_block

        def spy(table, start, thetas_deg, detunings, *rest):
            rows.append((start, len(detunings), len(thetas_deg)))
            fill(table, start, thetas_deg, detunings, *rest)

        monkeypatch.setattr(sweep_module, "_fill_block", spy)
        table = sweep(grid, ctl_medium, vacuum_stack, beam)
        # one flat axis of 3 etas x 9 detunings: chunks run across etas
        assert [n for _, n, _ in rows] == [2] * 13 + [1]
        assert all(t == 41 for _, _, t in rows)
        assert sorted(start for start, _, _ in rows) == list(
            np.cumsum([0] + [n * 41 for _, n, _ in rows[:-1]]))
        assert len(table) == 3 * 9 * 41

    @pytest.mark.parametrize("per_detuning", [False, True])
    def test_chunk_across_an_eta_boundary(self, per_detuning, ntype_medium,
                                          vacuum_stack, beam, monkeypatch):
        # 3 etas x 4 detunings in chunks of 5 blocks: the first chunk holds
        # eta 0.0 and one block of eta -0.0, which differs only in the sign
        # of its zero (and so of chi's), the second spans -0.0 and 0.15
        etas = [0.0, -0.0, 0.15]
        detunings = np.array([-0.4, 0.0, 0.3, 1.2])
        thetas = (np.linspace(32.0, 35.0, 12).reshape(4, 3) if per_detuning
                  else np.array([33.0, 33.69, 34.5]))
        monkeypatch.setattr(sweep_module, "CHUNK_POINTS", 5 * 3 + 2)
        fill = sweep_module._fill_block
        chunk_etas = []

        def spy(table, start, thetas_deg, detunings, etas, *rest):
            chunk_etas.append(etas.tolist())
            fill(table, start, thetas_deg, detunings, etas, *rest)

        monkeypatch.setattr(sweep_module, "_fill_block", spy)
        got = evaluate(ntype_medium, etas, detunings, thetas, vacuum_stack, beam)
        assert [len(e) for e in chunk_etas] == [5, 5, 2]
        assert [sorted(set(map(str, e))) for e in chunk_etas] == [
            ["-0.0", "0.0"], ["-0.0", "0.15"], ["0.15"]]
        assert_tables_equal(got, reference_table(ntype_medium, etas, detunings, thetas,
                                                 vacuum_stack, beam))

    def test_no_evaluation_exceeds_a_chunk(self, ntype_medium, vacuum_stack, beam,
                                           monkeypatch):
        # tables, extremum scans and pointwise queries all evaluate the
        # stack in chunks of at most CHUNK_POINTS points
        monkeypatch.setattr(sweep_module, "CHUNK_POINTS", 64)
        amplitudes = sweep_module._amplitudes
        sizes = []

        def spy(theta_i, lam, stack, *work):
            out = amplitudes(theta_i, lam, stack, *work)
            sizes.append(out[0].size)
            return out

        monkeypatch.setattr(sweep_module, "_amplitudes", spy)
        ctx = context(ntype_medium)
        evaluate(ntype_medium, [0.05, 0.1], np.linspace(-1, 1, 9),
                 np.linspace(30, 38, 21), vacuum_stack, beam)
        sweep_module.extremal_angles("angular", np.linspace(-2, 2, 200), ctx,
                                     coarse=31)
        find_brewster((30.0, 38.0), ctx, coarse=301)
        ctx.delta_plus(np.radians(np.linspace(30, 38, 500)))
        assert max(sizes) <= 64 and sum(sizes) > 10 * 64

    def test_one_angle_row_per_detuning(self, lambda_medium, vacuum_stack, beam):
        detunings = np.array([0.0, 0.1, 0.2])
        thetas = np.array([[33.0], [33.5], [34.0]])
        got = evaluate(lambda_medium, None, detunings, thetas, vacuum_stack, beam)
        assert list(got.theta_deg) == [33.0, 33.5, 34.0]
        for i, dp in enumerate(detunings):
            want = reference_table(lambda_medium, None, [dp], thetas[i],
                                   vacuum_stack, beam)
            assert got.theta_minus[i] == want["theta_minus"][0]
            assert got.abs_rp[i] == want["abs_rp"][0]

    @pytest.mark.parametrize("thetas", [[0.0, 10.0], [45.0, 90.0], [95.0], [np.nan]])
    def test_angle_outside_domain_raises(self, thetas, ctl_medium, vacuum_stack, beam):
        from spinhall import InvalidAngle
        with pytest.raises(InvalidAngle):
            evaluate(ctl_medium, None, [0.0], thetas, vacuum_stack, beam)

    @settings(max_examples=60, deadline=None)
    @given(preset=st.sampled_from(["ctl", "lambda", "ntype"]),
           thetas=st.lists(st.floats(0.5, 89.5), min_size=1, max_size=6),
           detunings=st.lists(st.floats(-6.0, 6.0), min_size=1, max_size=5),
           brewster=st.booleans(), resonance=st.booleans())
    def test_every_nan_is_flagged(self, preset, thetas, detunings, brewster,
                                  resonance):
        medium = {"ctl": medium_from((1.5, 3.0, 2.5, 0.9)),
                  "lambda": medium_from((0.5, 0.5, 0.7, 0.7), phase1=np.pi),
                  "ntype": medium_from((0.5, 0.5, 0.7, 0.7))}[preset]
        thetas = thetas + [BREWSTER_DEG] * brewster
        detunings = detunings + [0.0] * resonance
        table = evaluate(medium, None, detunings, thetas, LayerStack(eps2=1.0 + 0j),
                         BeamParams(w0=50 * LAM, lam=LAM))
        assert len(table) == len(thetas) * len(detunings)
        nan = (np.isnan(table.ratio_sp) | np.isnan(table.delta_plus_lambda)
               | np.isnan(table.theta_minus))
        flagged = table.codes != 0
        np.testing.assert_array_equal(nan, flagged)
        assert table.flagged_count == int(flagged.sum())
        for col in ("theta_deg", "detuning", "eta", "chi1", "chi2", "abs_rp", "abs_rs"):
            assert np.all(np.isfinite(table.column(col)))

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.parametrize("chi, eps3", [(-5e-324j, 1.0), (1.0 - 2e-307j, 2.0)])
    def test_vanishing_gain_nan_is_flagged(self, chi, eps3, ctl_medium, beam,
                                           monkeypatch):
        # layer 2 of vanishing gain with Re eps2 = eps3: r23 overflows and
        # rp, rs come back NaN while min |den| is NaN or infinite
        monkeypatch.setattr(sweep_module, "susceptibility",
                            lambda detunings, medium, eta=None: np.full(np.shape(detunings), chi))
        stack = LayerStack(eps2=1.0 + 0j, eps3=eps3 + 0j)
        table = evaluate(ctl_medium, None, [0.0], [math.degrees(0.5)], stack, beam)
        assert np.isnan(table.abs_rp[0]) and np.isnan(table.abs_rs[0])
        assert table.column("flags").tolist() == [FLAG_RESONANT]
        for col in ("ratio_sp", "delta_plus_lambda", "theta_minus"):
            assert np.isnan(table.column(col)[0])


MEDIA = {"ctl": medium_from((1.5, 3.0, 2.5, 0.9)),
         "lambda": medium_from((0.5, 0.5, 0.7, 0.7), phase1=np.pi),
         "ntype": medium_from((0.5, 0.5, 0.7, 0.7))}


class TestStructuredTable:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), preset=st.sampled_from(sorted(MEDIA)),
           amplitude=st.one_of(st.none(), st.floats(0.1, 2.0)),
           etas=st.one_of(st.none(), st.lists(st.one_of(st.just(0.0),
                                                        st.floats(0.0, 0.3)),
                                              min_size=1, max_size=3)),
           detunings=st.lists(st.one_of(st.just(0.0), st.floats(-6.0, 6.0)),
                              min_size=1, max_size=4),
           k=st.integers(1, 5), per_detuning=st.booleans(),
           brewster=st.booleans())
    def test_columns_match_flat_reference(self, data, preset, amplitude, etas,
                                          detunings, k, per_detuning, brewster):
        """column() of every column, the codes and the flag counts of the
        structured table equal the per-detuning flat reference bit for bit,
        over 1-D and 2-D angle axes, preset media or their lower control
        fields set to ``amplitude``, and eta lists, with evaluation chunks
        that end inside an eta group."""
        medium = MEDIA[preset]
        if amplitude is not None:
            medium = replace(medium, couplings=effective_couplings(
                (amplitude, amplitude, 0.7, 0.7), (0.0,) * 4))
        angle = st.one_of(st.just(BREWSTER_DEG) if brewster else st.nothing(),
                          st.floats(0.5, 89.5))
        shape = (len(detunings), k) if per_detuning else (k,)
        thetas = np.array(data.draw(st.lists(angle, min_size=int(np.prod(shape)),
                                             max_size=int(np.prod(shape))),
                                    label="thetas")).reshape(shape)
        chunk = data.draw(st.integers(1, (len(detunings) + 1) * k), label="chunk")
        stack, beam = LayerStack(eps2=1.0 + 0j), BeamParams(w0=50 * LAM, lam=LAM)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sweep_module, "CHUNK_POINTS", chunk)
            got = evaluate(medium, etas, detunings, thetas, stack, beam)
        want = reference_table(medium, etas, detunings, thetas, stack, beam)
        assert_tables_equal(got, want)
        kinds = np.array(sweep_module.FLAG_KINDS)
        assert kinds[got.codes].tolist() == want["flags"]
        assert got.flag_counts == {kind: want["flags"].count(kind)
                                   for kind in (FLAG_RESONANT, FLAG_BREWSTER)}
        assert got.flagged_count == sum(got.flag_counts.values())
        # no NaN without a flag code, and a flag code NaNs every shift column
        nan = np.zeros(len(got), bool)
        for col in COLUMNS[:-1]:
            nan |= np.isnan(got.column(col))
        np.testing.assert_array_equal(nan, got.codes != 0)
        for col in ("ratio_sp", "delta_plus_lambda", "theta_minus"):
            assert np.all(np.isnan(got.column(col)[got.codes != 0])), col

    def test_axis_values_are_stored_once(self, ctl_medium, vacuum_stack, beam):
        grid = GRIDS["eta_list"]
        table = sweep(grid, ctl_medium, vacuum_stack, beam)
        assert table.theta_rows.shape == (1, 41)
        assert table.blocks.shape == (4, 3 * 9)
        assert table.points.shape == (5, 3 * 9 * 41)
        assert table.codes.dtype == np.uint8

    def test_columns_are_read_only(self, ctl_medium, vacuum_stack, beam):
        table = sweep(GRIDS["eta_list"], ctl_medium, vacuum_stack, beam)
        for col in COLUMNS:
            with pytest.raises(ValueError, match="read-only"):
                table.column(col)[0] = table.column(col)[1]
        with pytest.raises(ValueError, match="read-only"):
            table.theta_deg[0] = 1.0

class TestSweep:
    def test_rows_match_pointwise_evaluation(self, lambda_medium, vacuum_stack, beam):
        grid = SweepGrid((33.0, 34.0, 2), (0.0, 1.0, 2))
        table = sweep(grid, lambda_medium, vacuum_stack, beam)
        assert len(table) == 4
        for i in range(4):
            ctx = context(lambda_medium, delta_p=float(table.detuning[i]))
            theta = np.radians(table.theta_deg[i])
            # pointwise values are one-row tables: equal to the sweep row
            # bit for bit, absorbing rows included
            assert table.delta_plus_lambda[i] == float(ctx.delta_plus(theta)) / LAM
            assert table.theta_minus[i] == float(ctx.theta_minus(theta))
            assert table.abs_rp[i] == float(ctx.abs_rp(theta))

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            SweepGrid((33.0, 34.0, 1), (0.0, 1.0, 2))
        with pytest.raises(ValueError):
            SweepGrid((34.0, 33.0, 5), (0.0, 1.0, 2))

    def test_eta_list_expands_rows(self, ntype_medium, vacuum_stack, beam):
        grid = SweepGrid((33.0, 34.0, 3), (0.0, 1.0, 2), eta_list=(0.05, 0.1))
        table = sweep(grid, ntype_medium, vacuum_stack, beam)
        assert len(table) == 12
        assert sorted(set(table.eta)) == [0.05, 0.1]

    def test_brewster_point_is_flagged_not_fatal(self, ctl_medium, vacuum_stack, beam):
        grid = SweepGrid((BREWSTER_DEG - 1.0, BREWSTER_DEG, 2), (0.0, 1.0, 2))
        table = sweep(grid, ctl_medium, vacuum_stack, beam)
        flagged = np.flatnonzero(table.column("flags") == FLAG_BREWSTER)
        assert len(flagged) == 1
        i = flagged[0]
        assert table.theta_deg[i] == pytest.approx(BREWSTER_DEG)
        assert table.detuning[i] == 0.0
        assert np.isnan(table.delta_plus_lambda[i])
        assert np.isnan(table.theta_minus[i])
        assert table.flagged_count == 1


class TestFindBrewster:
    def test_resonant_cavity(self, ctl_medium):
        ctx = context(ctl_medium)
        theta_b = find_brewster((30.0, 38.0), ctx)
        assert theta_b == pytest.approx(33.7, abs=0.05)
        assert theta_b == pytest.approx(BREWSTER_DEG, abs=1e-3)

    def test_single_interface_limit(self, ctl_medium):
        stack = LayerStack(eps2=1.0 + 0j, eps3=1.0 + 0j, thickness_d=0.0)
        ctx = context(ctl_medium, stack=stack)
        assert find_brewster((30.0, 38.0), ctx) == pytest.approx(BREWSTER_DEG, abs=1e-3)

    def test_uniform_medium_has_no_minimum(self, ctl_medium):
        # outer layers match the transparent resonant cavity: no interfaces
        stack = LayerStack(eps2=1.0 + 0j, eps1=1.0 + 0j, eps3=1.0 + 0j)
        ctx = context(ctl_medium, stack=stack)
        with pytest.raises(NoMinimumInWindow):
            find_brewster((30.0, 38.0), ctx)

    def test_result_inside_bracketing_cell(self, lambda_medium):
        ctx = context(lambda_medium, delta_p=0.1)
        grid = np.linspace(30.0, 38.0, 201)
        vals = ctx.abs_rp(np.radians(grid))
        i = int(np.argmin(vals))
        theta_b = find_brewster((30.0, 38.0), ctx)
        assert grid[i - 1] <= theta_b <= grid[i + 1]

    @pytest.mark.parametrize("preset", PRESETS)
    def test_matches_scalar_golden_section(self, preset):
        for dp in (-2.0, -0.5, 0.0, 0.1, 0.3, 1.5):
            ctx = preset_context(preset, dp)
            for coarse in (201, 51):
                assert (find_brewster((30.0, 38.0), ctx, coarse)
                        == reference_find_brewster((30.0, 38.0), ctx, coarse)), (dp, coarse)

    @pytest.mark.parametrize("preset", PRESETS)
    def test_scan_in_chunks(self, preset, monkeypatch):
        # a coarse scan longer than a chunk is evaluated chunk by chunk
        monkeypatch.setattr(sweep_module, "CHUNK_POINTS", 7)
        for dp in (-0.5, 0.1):
            ctx = preset_context(preset, dp)
            for coarse in (201, 51):
                assert (find_brewster((30.0, 38.0), ctx, coarse)
                        == reference_find_brewster((30.0, 38.0), ctx, coarse)), (dp, coarse)

    def test_dip_migrates_with_dispersion(self, ctl_medium):
        # qualitative: the |rp| minimum follows the dispersion sign, moving
        # up to about a degree off the transparent-point angle
        from spinhall import susceptibility
        base = find_brewster((30.0, 38.0), context(ctl_medium))
        for dp in (-2.0, -1.5, 1.5, 2.0):
            chi1 = susceptibility(dp, ctl_medium).real
            shift = find_brewster((30.0, 38.0), context(ctl_medium, dp)) - base
            assert math.copysign(1, shift) == math.copysign(1, chi1)
            assert 0.1 <= abs(shift) <= 1.5


class TestFindSignFlip:
    def test_matches_brewster_for_resonant_cavity(self, ctl_medium):
        ctx = context(ctl_medium)
        thetas = np.linspace(33.0, 34.4, 141)
        deltas = ctx.delta_plus(np.radians(thetas))
        flip = find_sign_flip(thetas, deltas, ctx)
        assert flip == pytest.approx(find_brewster((33.0, 34.4), ctx), abs=0.05)

    def test_ntype_flip_exists_with_gentler_slope(self, ctl_medium, ntype_medium):
        thetas = np.linspace(33.0, 34.4, 281)
        slopes = {}
        for name, medium in (("ctl", ctl_medium), ("ntype", ntype_medium)):
            ctx = context(medium)
            deltas = ctx.delta_plus(np.radians(thetas))
            flip = find_sign_flip(thetas, deltas, ctx)
            h = 5e-3
            f = lambda t: float(ctx.delta_plus(np.radians(t)))
            slopes[name] = abs(f(flip + h) - f(flip - h)) / (2 * h)
        assert abs(slopes["ntype"]) < abs(slopes["ctl"])

    def test_monotone_slice_raises(self, ctl_medium):
        ctx = context(ctl_medium)
        thetas = np.linspace(30.0, 32.0, 21)
        deltas = ctx.delta_plus(np.radians(thetas))
        assert np.all(deltas > 0)
        with pytest.raises(NoSignChange):
            find_sign_flip(thetas, deltas, ctx)

    def test_flip_inside_bracketing_cell(self, ctl_medium):
        ctx = context(ctl_medium)
        thetas = np.linspace(33.0, 34.4, 15)
        deltas = ctx.delta_plus(np.radians(thetas))
        flip = find_sign_flip(thetas, deltas, ctx)
        i = int(np.where(np.diff(np.sign(deltas)) != 0)[0][0])
        assert thetas[i] <= flip <= thetas[i + 1]


class TestTransparencyWindows:
    def test_ctl_three_windows(self, ctl_medium):
        windows = find_transparency_windows(ctl_medium, (-6.0, 6.0))
        assert len(windows) == 3
        assert windows[1] == pytest.approx(0.0, abs=1e-3)
        assert windows[0] == pytest.approx(-2.6, abs=0.1)
        assert windows[2] == pytest.approx(2.6, abs=0.1)
        assert windows[0] == pytest.approx(-windows[2], abs=2e-3)

    def test_lambda_single_window(self, lambda_medium):
        windows = find_transparency_windows(lambda_medium, (-6.0, 6.0))
        assert len(windows) == 1
        assert windows[0] == pytest.approx(0.0, abs=1e-3)

    def test_ntype_dips_flank_resonance(self, ntype_medium):
        windows = find_transparency_windows(ntype_medium, (-6.0, 6.0))
        assert len(windows) == 2
        assert windows[0] == pytest.approx(-1.0, abs=0.2)
        assert windows[1] == pytest.approx(1.0, abs=0.2)

    def test_zero_density_is_everywhere_transparent(self, ctl_medium):
        medium = replace(ctl_medium, eta=0.0)
        assert find_transparency_windows(medium, (-6.0, 6.0)) == []

    @pytest.mark.parametrize("preset", PRESETS)
    @pytest.mark.parametrize("eta", [0.02, 0.1, 0.2])
    def test_matches_per_point_loop(self, preset, eta):
        medium = replace(preset_context(preset).medium, eta=eta)
        for window in ((-6.0, 6.0), (-1.0, 0.5)):
            assert_windows_on_grid(find_transparency_windows(medium, window),
                                   *reference_windows(medium, window))

    @settings(max_examples=60, deadline=None)
    @given(a=st.tuples(*[st.floats(0.05, 5.0)] * 4),
           p=st.tuples(*[st.floats(0.0, 2 * math.pi)] * 4),
           gb=st.floats(0.2, 3.0), ge=st.floats(0.2, 3.0),
           kind=st.sampled_from(["fields", "beta=0", "omega_total=0"]))
    # beta = 0, and the delta_p^2 terms of |num|^2 and |den|^2 both cancel:
    # one flat window at 0, which rounding must not split in two
    @example(a=(0.05,) * 4, p=(0.0,) * 4, gb=1.0, ge=0.2, kind="fields")
    def test_windows_against_dense_grid(self, a, p, gb, ge, kind):
        c = effective_couplings(a, p)
        if kind != "fields":  # N-type, or its natural-Lambda limit
            c = EffectiveCouplings(c.alpha, 0j, c.omega_total if kind == "beta=0" else 0.0)
        medium = MediumParams(gb, ge, 0.1, c)
        got = find_transparency_windows(medium, (-6.0, 6.0))
        want, step = reference_windows(medium, (-6.0, 6.0))
        # a window within one step of an end is below the grid's resolution
        assume(all(-6.0 + step < w < 6.0 - step for w in got))
        assert_windows_on_grid(got, want, step)

    @pytest.mark.parametrize("preset", ["fig2-ctl", "fig3-lambda"])
    def test_resonant_window_is_exact_off_grid(self, preset):
        # the exact-EIT minimum is 0 on a range whose grids miss 0
        windows = find_transparency_windows(preset_context(preset).medium,
                                            (-1.0007, 1.0))
        assert min(abs(w) for w in windows) <= 1e-12


def coarse_argmax(kind, ctx, dp, window, coarse):
    """Grid index of the coarse-scan extremum at one detuning."""
    ctx = replace(ctx, delta_p=float(dp))
    grid = np.radians(np.linspace(*window, coarse))
    vals = np.abs(ctx.delta_plus(grid)) if kind == "spatial" else ctx.theta_minus(grid)
    return int(np.argmax(np.where(np.isfinite(vals), vals, -np.inf)))


class TestLockstepGolden:
    @staticmethod
    def quadratic(t, rows, centre, holes=()):
        """(t - centre[row])^2, NaN on the rows of ``holes`` above their centre."""
        value = (t - centre[rows]) ** 2
        hole = np.isin(rows, holes) & (t > centre[rows])
        return np.where(hole, np.nan, value)

    def test_each_row_matches_scalar_search(self):
        a = np.array([0.0, 0.0, 1.0, 2.0, -1.0])
        b = np.array([1.0, 0.25, 3.0, 2.001, 1.0])  # widths differ
        centre = np.array([0.3, 0.2, 2.9, 2.0005, -0.5])
        got = sweep_module._golden_minimize(
            lambda t, rows: self.quadratic(t, rows, centre), a, b, 1e-7)
        for k in range(len(a)):
            f = lambda t: self.quadratic(np.array([t]), np.array([k]), centre)[0]
            assert got[k] == reference_golden(f, a[k], b[k], 1e-7)
            assert abs(got[k] - centre[k]) < 1e-6

    def test_non_finite_row(self):
        # row 1 is NaN right of its centre and row 2 is NaN everywhere; the
        # others must not notice, and each follows the scalar search
        a, b = np.zeros(3), np.ones(3)
        centre = np.array([0.3, 0.6, 0.4])
        f = lambda t, rows: np.where(rows == 2, np.inf,
                                     self.quadratic(t, rows, centre, holes=(1,)))
        got = sweep_module._golden_minimize(f, a, b, 1e-8)
        for k in range(3):
            scalar = lambda t: f(np.array([t]), np.array([k]))[0]
            assert got[k] == reference_golden(scalar, a[k], b[k], 1e-8)
        assert abs(got[0] - 0.3) < 1e-7

    def test_bracket_within_tolerance_is_not_evaluated_further(self):
        calls = []

        def f(t, rows):
            calls.append(len(rows))
            return t ** 2

        got = sweep_module._golden_minimize(f, [0.0, -1.0], [1e-9, 1.0], 1e-6)
        assert got[0] == 0.5e-9
        assert calls[0] == 4 and all(n == 1 for n in calls[1:])

    def test_no_brackets(self):
        got = sweep_module._golden_minimize(lambda t, rows: t, [], [], 1e-6)
        assert got.shape == (0,)


class TestExtremalAngles:
    @pytest.mark.parametrize("kind", ["spatial", "angular"])
    @pytest.mark.parametrize("figure", sorted(FIG5_AXES))
    def test_fig5_axes_match_per_detuning_search(self, figure, kind):
        preset, dps = FIG5_AXES[figure]
        ctx = preset_context(preset)
        angles, values = sweep_module.extremal_angles(kind, dps, ctx)
        # the same update sequence per row, on the same array arithmetic
        want_angles, want_values = reference_extremal_angles(
            kind, dps, ctx, point=np.atleast_1d)
        np.testing.assert_array_equal(angles, want_angles)
        np.testing.assert_array_equal(values, want_values)
        # against numpy-scalar steps, the search took every branch the same
        # way; a value evaluated on a numpy scalar (scalar arithmetic rather
        # than the array loops) can differ from it in the last few ulps
        scalar_angles, scalar_values = reference_extremal_angles(kind, dps, ctx)
        np.testing.assert_array_equal(angles, scalar_angles)
        assert np.all(np.abs(values - scalar_values)
                      <= 8 * np.spacing(np.abs(scalar_values)))

    @pytest.mark.parametrize("kind", ["spatial", "angular"])
    def test_maximum_on_window_edge(self, kind):
        # a narrow window leaves many maxima on its edges: one-cell brackets
        window, coarse = (33.0, 33.5), 201
        ctx = preset_context("fig4-ntype")
        dps = np.linspace(-3.0, 3.0, 31)
        edges = {coarse_argmax(kind, ctx, dp, window, coarse) for dp in dps}
        assert {0, coarse - 1} <= edges and len(edges) > 2
        got = sweep_module.extremal_angles(kind, dps, ctx, window, coarse)
        want = reference_extremal_angles(kind, dps, ctx, window, coarse,
                                         point=np.atleast_1d)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])

    def test_non_finite_objective_on_part_of_the_scan(self, ctl_medium):
        # the resonant cavity's |rp| vanishes at Brewster's angle: the
        # closed form is NaN there, on a grid point of this scan
        ctx = context(ctl_medium)
        window = (BREWSTER_DEG - 0.5, BREWSTER_DEG + 0.5)
        grid = np.radians(np.linspace(*window, 101))
        assert np.isnan(ctx.delta_plus(grid)).any()
        dps = [0.0, 0.5, -1.0]
        for kind in ("spatial", "angular"):
            got = sweep_module.extremal_angles(kind, dps, ctx, window, 101)
            want = reference_extremal_angles(kind, dps, ctx, window, 101,
                                             point=np.atleast_1d)
            np.testing.assert_array_equal(got[0], want[0])
            np.testing.assert_array_equal(got[1], want[1])
            assert np.all(np.isfinite(got[1]))

    def test_working_set_does_not_grow_with_detunings(self):
        # the coarse scan keeps each chunk's best grid point only: 601
        # detunings hold about what fig5d's 81 do (69 MB and 9 MB when
        # the whole scan was one broadcast)
        ctx = preset_context("fig4-ntype")
        sweep_module.extremal_angles("angular", [0.0], ctx)  # caches, first calls
        peaks = []
        for n in (81, 601):
            tracemalloc.start()
            try:
                sweep_module.extremal_angles("angular", np.linspace(-2, 2, n), ctx)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) <= 1e6, peaks

    @pytest.mark.parametrize("kind", ["spatial", "angular"])
    def test_empty_detuning_list(self, kind, lambda_medium):
        angles, values = sweep_module.extremal_angles(kind, [], context(lambda_medium))
        assert angles.shape == values.shape == (0,)
        dps, curve = max_shift_vs_detuning(kind, [], context(lambda_medium))
        assert dps.shape == curve.shape == (0,)

    def test_values_are_the_curve_at_the_angles(self, lambda_medium):
        ctx = context(lambda_medium)
        dps = [0.0, 0.05, 0.1]
        angles, values = sweep_module.extremal_angles("angular", dps, ctx)
        _, curve = max_shift_vs_detuning("angular", dps, ctx)
        np.testing.assert_array_equal(values, curve)
        for dp, angle, value in zip(dps, angles, values):
            assert 30.0 <= angle <= 38.0
            tilt = float(replace(ctx, delta_p=dp).theta_minus(np.radians(angle)))
            assert tilt == pytest.approx(value, rel=1e-12)


class TestCurves:
    def test_spatial_peak_at_resonance(self, ctl_medium):
        ctx = context(ctl_medium)
        _, vals = max_shift_vs_detuning("spatial", [0.0], ctx)
        assert vals[0] == pytest.approx(25.0, rel=0.02)

    def test_kind_validation(self, ctl_medium):
        with pytest.raises(ValueError):
            max_shift_vs_detuning("sideways", [0.0], context(ctl_medium))

    def test_ntype_density_curve_decreasing(self, ntype_medium):
        ctx = context(ntype_medium)
        vals = evaluate(ctx.medium, (0.01, 0.05, 0.1, 0.2), [ctx.delta_p], [33.6],
                        ctx.stack, ctx.beam).delta_plus_lambda
        assert np.all(np.diff(vals) < 0)

    def test_lambda_density_curve_flat(self, lambda_medium):
        ctx = context(lambda_medium)
        vals = evaluate(ctx.medium, (0.01, 0.05, 0.1, 0.2), [ctx.delta_p], [33.6],
                        ctx.stack, ctx.beam).delta_plus_lambda
        assert np.all(np.abs(vals - vals[0]) <= 1e-6 * abs(vals[0]))

    def test_vacuum_density_endpoint(self, ntype_medium, vacuum_stack, beam):
        # eta -> 0 reproduces the empty-cavity stack value
        ctx = context(ntype_medium)
        vals = evaluate(ctx.medium, (0.0, 1e-12), [ctx.delta_p], [33.6],
                        ctx.stack, ctx.beam).delta_plus_lambda
        empty = context(replace(ntype_medium, eta=0.0))
        ref = float(empty.delta_plus(math.radians(33.6))) / LAM
        assert vals[0] == ref
        assert vals[1] == pytest.approx(ref, rel=1e-6)

    def test_density_monotonicity_on_fifty_point_grid(self, ntype_medium,
                                                      lambda_medium, ctl_medium):
        etas = np.linspace(0.01, 0.2, 50)
        ctx = context(ntype_medium)
        n_vals = evaluate(ctx.medium, etas, [ctx.delta_p], [33.6], ctx.stack,
                          ctx.beam).delta_plus_lambda
        assert np.all(np.diff(n_vals) < 0)
        for medium in (lambda_medium, ctl_medium):
            ctx = context(medium)
            flat = evaluate(ctx.medium, etas, [ctx.delta_p], [33.6], ctx.stack,
                            ctx.beam).delta_plus_lambda
            assert np.all(np.abs(flat - flat[0]) <= 1e-6 * abs(flat[0]))

    @pytest.mark.parametrize("theta", [33.6, 33.69, 33.7])
    def test_density_curve_is_the_table(self, theta):
        # the table's eta axis is the pointwise shift at each eta, bit for bit
        medium, stack, beam = load_config(preset="fig4-ntype").build()
        etas = np.linspace(0.01, 0.2, 50)
        curve = evaluate(medium, etas, [0.1], [theta], stack, beam).delta_plus_lambda
        np.testing.assert_array_equal(curve, [
            float(ScanContext(replace(medium, eta=eta), stack, beam, delta_p=0.1)
                  .delta_plus(np.radians(theta))) / beam.lam for eta in etas])

    def test_lambda_angular_maximum_grows_near_resonance(self, lambda_medium):
        ctx = context(lambda_medium)
        _, vals = max_shift_vs_detuning("angular", [0.02, 0.05, 0.08, 0.1], ctx)
        assert np.all(np.diff(vals) > 0)

    def test_ntype_angular_maximum_oscillates(self, ntype_medium):
        ctx = context(ntype_medium)
        dps = np.linspace(-2.0, 2.0, 41)
        _, vals = max_shift_vs_detuning("angular", dps, ctx)
        interior_maxima = sum(
            1 for i in range(1, len(vals) - 1)
            if vals[i] > vals[i - 1] and vals[i] >= vals[i + 1])
        assert interior_maxima >= 2
