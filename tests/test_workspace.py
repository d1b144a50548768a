"""Workspace kernels: the same bits as the expression forms they replaced,
and no per-chunk temporaries."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinhall import (BeamParams, LayerStack, ResonantDenominator, ScanContext,
                      load_config, reflection_coefficients, stack_reflection_derivative,
                      susceptibility)
from spinhall.cli import RECIPES, recipe_table
from spinhall.multilayer import _amplitudes
from spinhall.shifts import shift_kernel
from spinhall.workspace import Workspace
import spinhall.sweep as sweep_module
import reference_kernels as ref

CHUNK_ALLOCATION_BOUND = 256 * 1024  # bytes; one chunk's complex temporary is 512 KiB


def assert_same_bits(got, want):
    """Same type, shape and dtype, and the same bytes: NaN payloads and
    signed zeros count."""
    assert type(got) is type(want)
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    np.testing.assert_array_equal(got.reshape(-1).view(np.uint8),
                                  want.reshape(-1).view(np.uint8))


# near normal and near grazing incidence, 0 and pi/2 included
angle = st.one_of(st.floats(0.0, np.pi / 2),
                  st.sampled_from([0.0, 5e-324, 1e-300, 1e-12, np.pi / 2 - 1e-12,
                                   np.nextafter(np.pi / 2, 0.0), np.pi / 2]))
# Im > 0 absorbs, Im < 0 amplifies; the listed ones match the glass, or
# overflow k0^2 eps, the admittances or the phase
permittivity = st.one_of(
    st.builds(complex, st.floats(-10.0, 10.0), st.floats(-5.0, 5.0)),
    st.sampled_from([1 + 0j, 2.25 + 0j, 1 - 1e-300j, 1e300 + 1e300j, -1e300 + 0j,
                     1 - 5e-324j]))
glass = st.builds(complex, st.floats(1.0, 4.0), st.floats(0.0, 0.5))
# zero thickness collapses the stack; 1 mm or 1 m of gain overflows P
thickness = st.one_of(st.just(0.0), st.floats(1e-9, 2e-6), st.sampled_from([1e-3, 1.0]))
LAYOUTS = ("scalar", "row", "column", "table", "points")


def draw_inputs(data, layout):
    """(theta, eps2) shaped as the callers shape them: scalars; a row of
    angles; one angle against a column of media; a table's row against a
    column; one medium per angle (the lockstep golden section)."""
    n = data.draw(st.integers(1, 5))
    if layout in ("scalar", "column"):
        theta = data.draw(angle)
    else:
        theta = np.array(data.draw(st.lists(angle, min_size=n, max_size=n)))
    if layout in ("scalar", "row"):
        return theta, data.draw(permittivity)
    eps2 = np.array(data.draw(st.lists(permittivity, min_size=n, max_size=n)))
    return theta, eps2 if layout == "points" else eps2[:, None]


def a_workspace(kind):
    """None, or a workspace whose first free byte is not its first."""
    if kind is None:
        return None
    work = Workspace(64)
    work.take((1,))
    return work


def reference(f, layout, *inputs):
    """f(*inputs) of the reference kernels, each scalar input going in as
    its one-element row, as the kernels evaluate it.  In the "scalar"
    layout the results are taken back to the type and shape f gives the
    scalars themselves."""
    rows = f(*(x if x is None or np.ndim(x) else np.reshape(x, 1) for x in inputs))
    if layout != "scalar":
        return rows
    return tuple(r.reshape(()) if isinstance(s, np.ndarray) else r[0]
                 for r, s in zip(rows, f(*inputs)))


class TestSameBits:
    @settings(max_examples=400, deadline=None)
    @given(data=st.data(), layout=st.sampled_from(LAYOUTS),
           eps1=glass, eps3=glass, d=thickness, lam=st.floats(1e-7, 1e-5),
           w0_lambdas=st.floats(5.0, 5000.0), rp_scale=st.sampled_from([1.0, 1e-13, 0.0]),
           work=st.sampled_from([None, "block"]))
    def test_kernels_match_the_expression_forms(self, data, layout, eps1, eps3, d, lam,
                                                w0_lambdas, rp_scale, work):
        theta, eps2 = draw_inputs(data, layout)
        stack = LayerStack(eps2=eps2, eps1=eps1, eps3=eps3, thickness_d=d)
        want = reference(lambda t: ref.amplitudes(t, lam, stack), layout, theta)
        for got in (_amplitudes(theta, lam, stack, a_workspace(work)),
                    _amplitudes(theta, lam, stack)):
            for g, w in zip(got, want):
                assert_same_bits(g, w)
        drp = reference(lambda t: ref.reflection_derivative(t, lam, stack), layout, theta)
        for g, w in zip(stack_reflection_derivative(theta, lam, stack), drp):
            assert_same_bits(g, w)
        beam = BeamParams(w0=w0_lambdas * lam, lam=lam)
        got = sweep_module._stack_rows(theta, stack, beam, a_workspace(work) or Workspace(),
                                       full=True)
        for g, w in zip(got, (*want, np.abs(want[0]), drp[0])):
            assert_same_bits(g, w)
        rp, rs, _ = want
        rp = rp * rp_scale  # below the Brewster floor, or 0
        for order in (None, drp[0]):
            expected = reference(lambda *point: ref.shift_kernel(*point, beam), layout,
                                 theta, rp, rs, order)
            for abs_rp in (None, np.abs(rp)):  # taken by the kernel, or by its caller
                got = shift_kernel(theta, rp, rs, order, beam, a_workspace(work), abs_rp)
                for g, w in zip(got, expected):
                    assert_same_bits(g, w)

    @pytest.mark.parametrize("target", ["fig2e", "fig5d"])
    def test_table_matches_the_reference_fill(self, target):
        # fig2e: one angle row for 601 detunings, 16 chunks; fig5d: one
        # angle per detuning
        cfg = load_config(preset=RECIPES[target][0])
        got = recipe_table(target, cfg)
        medium, stack, beam = cfg.build()
        thetas = got.theta_rows if len(got.theta_rows) > 1 else got.theta_rows[0]
        want = ref.evaluate(medium, None, RECIPES[target][2], thetas, stack, beam)
        for name in ("theta_rows", "blocks", "points", "codes"):
            assert_same_bits(getattr(got, name), getattr(want, name))


def assert_row_bits(scalar, row):
    """A scalar's value has the bits of its one-element row's value."""
    assert np.ndim(scalar) == 0 and np.shape(row) == (1,)
    assert_same_bits(np.reshape(scalar, 1), np.asarray(row))


@settings(max_examples=300, deadline=None)
@given(theta=angle, eps2=permittivity, eps1=glass, eps3=glass, d=thickness,
       preset=st.sampled_from(["fig2-ctl", "fig3-lambda", "fig4-ntype"]),
       detuning=st.floats(-10.0, 10.0), rp_scale=st.sampled_from([1.0, 1e-13, 0.0]))
def test_scalar_is_its_one_element_row(theta, eps2, eps1, eps3, d, preset, detuning,
                                       rp_scale):
    """Every public pointwise value at a scalar has the bits of the table
    row at the same point: a scalar is evaluated as its one-element row."""
    row = np.array([theta])
    medium, _, beam = load_config(preset=preset).build()
    stack = LayerStack(eps2=eps2, eps1=eps1, eps3=eps3, thickness_d=d)
    try:
        want = reflection_coefficients(row, beam.lam, stack)
    except ResonantDenominator:
        with pytest.raises(ResonantDenominator):
            reflection_coefficients(theta, beam.lam, stack)
    else:
        for got, w in zip(reflection_coefficients(theta, beam.lam, stack), want):
            assert_row_bits(got, w)
    drp = stack_reflection_derivative(row, beam.lam, stack)
    for got, w in zip(stack_reflection_derivative(theta, beam.lam, stack), drp):
        assert_row_bits(got, w)
    rp, rs, _ = _amplitudes(row, beam.lam, stack)
    rp = rp * rp_scale  # below the Brewster floor, or 0
    for drp_row in (None, drp[0]):  # the truncated shift, then the full order
        got = shift_kernel(theta, rp[0], rs[0], None if drp_row is None else drp_row[0], beam)
        for g, w in zip(got, shift_kernel(row, rp, rs, drp_row, beam)):
            assert_row_bits(g, w)
    assert_row_bits(susceptibility(detuning, medium),
                    susceptibility(np.array([detuning]), medium))
    ctx = ScanContext(medium, stack, beam, detuning)
    for method in (ctx.abs_rp, ctx.delta_plus, ctx.theta_minus):
        assert_row_bits(method(theta), method(row))
    for got, w in zip(ctx.coefficients(theta), ctx.coefficients(row)):
        assert_row_bits(got, w)


def chunk_peaks(monkeypatch, name, run, starts_chunk=lambda args: True):
    """Peak bytes traced from each call of ``sweep_module.<name>`` for
    which starts_chunk(args) holds, up to the next call of it."""
    traced = getattr(sweep_module, name)
    marks = []

    def spy(*args, **kwargs):
        marks.append((starts_chunk(args), *tracemalloc.get_traced_memory()))
        tracemalloc.reset_peak()
        return traced(*args, **kwargs)

    monkeypatch.setattr(sweep_module, name, spy)
    tracemalloc.start()
    try:
        run()
        marks.append((False, *tracemalloc.get_traced_memory()))
    finally:
        tracemalloc.stop()
    return [peak - current for (chunk, current, _), (_, _, peak) in zip(marks, marks[1:])
            if chunk]


class TestNoChunkTemporaries:
    """A table fill, a coarse-scan chunk or a ScanContext chunk takes its
    arrays from the workspace of its loop; each chunk allocates only its
    masks and its few per-block values."""

    @pytest.mark.parametrize("per_detuning", [False, True])
    def test_fill_block(self, per_detuning, monkeypatch):
        medium, stack, beam = load_config(preset="fig2-ctl").build()
        detunings = np.linspace(-6.0, 6.0, 250)
        thetas = np.linspace(30.0, 38.0, 401)
        if per_detuning:
            thetas = thetas + np.linspace(0.0, 0.1, 250)[:, None]
        peaks = chunk_peaks(monkeypatch, "_fill_block", lambda: sweep_module.evaluate(
            medium, None, detunings, thetas, stack, beam))
        assert len(peaks) == 4  # 81 rows of 401 angles per chunk
        assert max(peaks) < CHUNK_ALLOCATION_BOUND, peaks

    def test_coarse_scan_chunk(self, monkeypatch):
        # a coarse-scan chunk runs from its stack evaluation to the next
        ctx = sweep_module.ScanContext(*load_config(preset="fig4-ntype").build())
        peaks = chunk_peaks(
            monkeypatch, "_amplitudes",
            lambda: sweep_module.extremal_angles("angular", np.linspace(-2, 2, 121), ctx),
            starts_chunk=lambda args: np.ndim(args[2].eps2) == 2)
        assert len(peaks) == 4  # 40 detunings of 801 angles per chunk
        assert max(peaks) < CHUNK_ALLOCATION_BOUND, peaks

    @pytest.mark.parametrize("method", ["abs_rp", "delta_plus"])
    def test_scan_context_chunk(self, method, monkeypatch):
        # a pointwise chunk runs from its stack evaluation to the next
        ctx = sweep_module.ScanContext(*load_config(preset="fig2-ctl").build(), 0.5)
        thetas = np.radians(np.linspace(30.0, 38.0, 3 * sweep_module.CHUNK_POINTS))
        peaks = chunk_peaks(monkeypatch, "_amplitudes",
                            lambda: getattr(ctx, method)(thetas))
        assert len(peaks) == 3
        assert max(peaks) < CHUNK_ALLOCATION_BOUND, peaks


class TestWorkspace:
    def test_take_and_scratch(self):
        work = Workspace(4)
        a = work.take((2, 3))
        with work.scratch():
            b = work.take((3,), complex)
            assert not np.shares_memory(a, b)
        assert work.take((3,), complex).ctypes.data == b.ctypes.data
        assert all(x.flags.c_contiguous and x.ctypes.data % 16 == 0
                   for x in (a, b, work.take((1,))))
        # past the block numpy allocates the result
        assert work.take((10_000,)) is None
        assert work.take((), complex).shape == ()

    def test_no_block(self):
        work = Workspace()
        assert work.take((3,)) is None and work.take((0, 5), bool) is None
        assert work.take((), complex) is None and work.like(1.0, np.ones(2)) is None
