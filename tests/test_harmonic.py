import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layerfield import (
    BoundaryTrace,
    CapabilityError,
    DiskField,
    HalfPlaneField,
    RadialLayerConfig,
    TailTol,
    UndersamplingError,
    ValidationError,
    disk_from_boundary,
    series_solution,
)


def laplacian_residual(evaluator, p, step):
    """Five-point stencil residual u_xx + u_yy of evaluator(x, y) at p = (x, y)."""
    x, y = p
    xp, xm, yp, ym, f0 = (float(evaluator(x + dx, y + dy))
                          for dx, dy in ((step, 0.0), (-step, 0.0), (0.0, step), (0.0, -step), (0.0, 0.0)))
    return (xp + xm - 2.0 * f0 + yp + ym - 2.0 * f0) / step**2


def test_halfplane_eval_basics():
    f = HalfPlaneField.single_mode(1.0)
    assert f.value(0.0, 0.0) == pytest.approx(1.0)
    assert f.value(math.log(2.0), 0.0) == pytest.approx(0.5)
    with pytest.raises(ValidationError):
        HalfPlaneField(modes=[(1.0, -1.0, 0.0)])


def test_disk_eval_basics():
    d = DiskField.single_mode(2)
    assert d.value(0.5, 0.0) == pytest.approx(0.25)
    assert d.value(0.5, math.pi / 2) == pytest.approx(-0.25)


def test_disk_from_boundary_projects_modes():
    theta = np.arange(16) * 2 * math.pi / 16
    field = disk_from_boundary(BoundaryTrace(theta, np.cos(2 * theta)), 4)
    assert field.cos_coeffs[2] == pytest.approx(1.0, abs=1e-12)
    mask = np.ones(5, dtype=bool)
    mask[2] = False
    assert np.max(np.abs(field.cos_coeffs[mask])) <= 1e-12
    assert np.max(np.abs(field.sin_coeffs)) <= 1e-12


def test_disk_from_boundary_constant_uses_half_convention():
    theta = np.arange(16) * 2 * math.pi / 16
    field = disk_from_boundary(BoundaryTrace(theta, np.ones_like(theta)), 4)
    assert field.cos_coeffs[0] == pytest.approx(2.0)
    assert np.max(np.abs(field.cos_coeffs[1:])) <= 1e-12
    assert field.value(0.3, 1.0) == pytest.approx(1.0)


def test_disk_from_boundary_mixed_modes():
    theta = np.arange(32) * 2 * math.pi / 32
    field = disk_from_boundary(BoundaryTrace(theta, np.sin(theta) + np.cos(3 * theta)), 5)
    assert field.sin_coeffs[1] == pytest.approx(1.0, abs=1e-12)
    assert field.cos_coeffs[3] == pytest.approx(1.0, abs=1e-12)
    other = np.abs(np.concatenate([field.cos_coeffs[:3], field.cos_coeffs[4:], field.sin_coeffs[2:]]))
    assert np.max(other) <= 1e-12



@pytest.mark.parametrize("m", [15, 16, 33])
def test_disk_from_boundary_matches_direct_sums_off_zero_start(m):
    # the grid may start anywhere in [0, 2 pi): the FFT carries the phase e^(-i n t0)
    rng = np.random.default_rng(m)
    theta = 2.3 + np.arange(m) * 2 * math.pi / m
    values = rng.normal(size=m)
    n_max = (m - 1) // 2
    field = disk_from_boundary(BoundaryTrace(theta, values), n_max)
    n = np.arange(n_max + 1)[:, None]
    a = 2.0 / m * np.sum(values * np.cos(n * theta), axis=1)
    b = 2.0 / m * np.sum(values * np.sin(n * theta), axis=1)
    b[0] = 0.0
    assert np.max(np.abs(field.cos_coeffs - a)) <= 1e-13
    assert np.max(np.abs(field.sin_coeffs - b)) <= 1e-13

def test_band_limited_trace_projects_onto_exactly_its_modes():
    # the other 126 coefficients of the FFT are rounding: all are set to 0,
    # the constant mode included, and their mass is kept
    theta = 0.4 + np.arange(256) * 2 * math.pi / 256
    values = 0.6 * np.cos(theta) + 0.3 * np.cos(2 * theta) - 0.4 * np.sin(2 * theta)
    field = disk_from_boundary(BoundaryTrace(theta, values), 127)
    a, b = field.cos_coeffs, field.sin_coeffs
    assert np.flatnonzero(a).tolist() == [1, 2] and np.flatnonzero(b).tolist() == [2]
    # on the twin the slowest mode is w = 1: no constant mode sets the ladder's ratio
    view = field.half_plane()
    assert a[0] == 0.0 and [w for _, w, _ in view.modes] == [1.0, 2.0] and view.image_factor(0.5) == math.exp(-0.5)
    assert np.max(np.abs(np.array([a[1], a[2], b[2]]) - [0.6, 0.3, -0.4])) <= 1e-15
    assert 0.0 <= field.dropped_mass <= 126 * 256 * np.finfo(float).eps


def _unpruned_projection(trace, n_max):
    """Every FFT coefficient of a circle trace that starts at 0, rounding included."""
    c = 2.0 / trace.values.size * np.fft.rfft(trace.values)[: n_max + 1]
    return DiskField(c.real, np.concatenate([[0.0], -c.imag[1:]]))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.sampled_from([64, 129, 256]),
    decay=st.floats(0.6, 2.0),
    R=st.floats(0.5, 0.95),
    k=st.one_of(st.floats(0.05, 0.8), st.floats(1.25, 20.0)),
)
def test_pruned_projection_stays_within_its_tail_bound(seed, m, decay, R, k):
    # a broadband trace whose coefficients fall through the rounding floor:
    # the pruned series lies within its tail bound, dropped mass included,
    # plus the unpruned series' own, of the unpruned series
    rng = np.random.default_rng(seed)
    n_max = (m - 1) // 2
    n = np.arange(n_max + 1)
    a, b = rng.normal(size=(2, n_max + 1)) * 10.0 ** (-decay * n)
    b[0] = 0.0
    theta = np.arange(m) * 2 * math.pi / m
    trace = BoundaryTrace(theta, DiskField(a, b).value(1.0, theta))
    pruned = disk_from_boundary(trace, n_max)
    unpruned = _unpruned_projection(trace, n_max)
    assert pruned.dropped_mass > 0.0
    geometry = RadialLayerConfig(R=R, k=k)
    sp = series_solution(geometry, pruned, TailTol(1e-10))
    su = series_solution(geometry, unpruned, TailTol(1e-10))
    assert sp.tail_bound >= pruned.dropped_mass
    ts = np.linspace(0.0, 2 * math.pi, 17)
    r1 = np.linspace(R, 1.0, 9)[:, None]
    r2 = np.linspace(0.0, R, 9)[:, None]
    gap = max(np.max(np.abs(sp.u1_value(r1, ts) - su.u1_value(r1, ts))),
              np.max(np.abs(sp.u2_value(r2, ts) - su.u2_value(r2, ts))))
    rounding = 64 * np.finfo(float).eps * unpruned.sup_bound()
    assert gap <= sp.tail_bound + su.tail_bound + rounding


def test_disk_from_boundary_undersampling():
    theta = np.arange(8) * 2 * math.pi / 8
    with pytest.raises(UndersamplingError):
        disk_from_boundary(BoundaryTrace(theta, np.cos(theta)), 4)


def test_disk_boundary_roundtrip_trig_polynomial():
    rng = np.random.default_rng(7)
    n_max = 5
    a = rng.normal(size=n_max + 1)
    b = rng.normal(size=n_max + 1)
    b[0] = 0.0
    src = DiskField(a, b)
    theta = np.arange(32) * 2 * math.pi / 32
    field = disk_from_boundary(BoundaryTrace(theta, src.value(1.0, theta)), n_max)
    probe = np.linspace(0, 2 * math.pi, 41)
    assert np.max(np.abs(field.value(1.0, probe) - src.value(1.0, probe))) <= 1e-10


def test_laplacian_residual_mode_fields():
    f = HalfPlaneField.single_mode(1.0)
    assert abs(laplacian_residual(f.value, (0.5, 0.3), 1e-3)) <= 1e-6
    d = DiskField.single_mode(1)
    fn = lambda x, y: d.value(np.hypot(x, y), np.arctan2(y, x))
    assert abs(laplacian_residual(fn, (0.35, 0.35), 1e-3)) <= 1e-6


def test_laplacian_residual_random_points_scaled_bound():
    rng = np.random.default_rng(11)
    f = HalfPlaneField(modes=[(1.0, 1.0, 0.2), (0.4, 2.5, 0.0)])
    step = 1e-3
    for _ in range(100):
        x, y = rng.uniform(0.1, 2.0), rng.uniform(-2.0, 2.0)
        # local scale of the fourth derivatives: sum |A| w^4 e^(-w x)
        scale = 1.0 * math.exp(-x) + 0.4 * 2.5**4 * math.exp(-2.5 * x)
        assert abs(laplacian_residual(f.value, (x, y), step)) <= 10 * step**2 * scale


def test_laplacian_residual_disk_random_points_scaled_bound():
    rng = np.random.default_rng(14)
    d = DiskField(np.array([0.3, 1.0, 0.0, 0.2]), np.array([0.0, 0.0, 0.5, 0.0]))
    fn = lambda x, y: d.value(np.hypot(x, y), np.arctan2(y, x))
    step = 1e-3
    for _ in range(100):
        r = rng.uniform(0.1, 0.95)
        t = rng.uniform(0.0, 2 * math.pi)
        x, y = r * math.cos(t), r * math.sin(t)
        # fourth derivatives of r^n harmonics scale like n^4 r^(n-4)
        scale = sum(
            (abs(a) + abs(b)) * n**4 * max(r - step, 0.05) ** max(n - 4, 0)
            for n, (a, b) in enumerate(zip(d.cos_coeffs, d.sin_coeffs))
            if n >= 1
        )
        assert abs(laplacian_residual(fn, (x, y), step)) <= 10 * step**2 * max(scale, 1.0)


def test_laplacian_residual_source_terms_are_harmonic():
    f = HalfPlaneField(sources=[(0.3, 1.0), (-1.0, -0.5)])
    rng = np.random.default_rng(4)
    for _ in range(50):
        x, y = rng.uniform(0.2, 2.0), rng.uniform(-2.0, 2.0)
        assert abs(laplacian_residual(f.value, (x, y), 1e-4)) <= 1e-4


@pytest.mark.parametrize("depth", [-1e-3, math.inf, math.nan])
def test_source_depth_must_be_finite_and_nonnegative(depth):
    with pytest.raises(ValidationError):
        HalfPlaneField(sources=[(0.0, 1.0, depth)])


def test_source_at_depth_is_the_shifted_kernel_and_bounded_by_its_reach():
    deep = HalfPlaneField(modes=[(0.5, 2.0, 0.0)], sources=[(0.3, -2.0, 0.25), (1.0, 1.0)])
    shallow = HalfPlaneField(sources=[(0.3, -2.0)])
    x, y = np.array([[0.05], [0.1], [1.0]]), np.linspace(-1.0, 1.0, 5)
    rest = HalfPlaneField(modes=[(0.5, 2.0, 0.0)], sources=[(1.0, 1.0)])
    assert np.allclose(deep.value(x, y), shallow.value(x + 0.25, y) + rest.value(x, y), rtol=1e-14, atol=0.0)
    assert np.allclose(deep.deriv_x(x, y), shallow.deriv_x(x + 0.25, y) + rest.deriv_x(x, y), rtol=1e-14, atol=0.0)
    # |q|/(pi (x_min + d)) per source: the boundary source still has none at x = 0
    assert deep.sup_bound(0.5) == pytest.approx(0.5 * math.exp(-1.0) + 2.0 / (0.75 * math.pi) + 1.0 / (0.5 * math.pi))
    assert HalfPlaneField(sources=[(0.3, -2.0, 0.25)]).sup_bound() == pytest.approx(2.0 / (0.25 * math.pi))
    with pytest.raises(CapabilityError):
        deep.sup_bound()


def test_trace_csv_roundtrip(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("t,value\n0.0,1.0\n0.5,2.0\n1.0,0.5\n")
    tr = BoundaryTrace.from_csv(path)
    assert tr.window == (0.0, 1.0)
    assert tr.values[1] == 2.0
    path2 = tmp_path / "noheader.csv"
    path2.write_text("0.0,1.0\n1.0,2.0\n")
    assert BoundaryTrace.from_csv(path2).abscissae[1] == 1.0
    with pytest.raises(ValidationError):
        BoundaryTrace(np.array([0.0, 0.0, 1.0]), np.array([1.0, 2.0, 3.0]))


def test_trace_csv_header_only_on_the_first_line(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("\n  t, value\n\n0.0,1.0\n1.0,2.0\n")
    assert BoundaryTrace.from_csv(path).values.tolist() == [1.0, 2.0]


@pytest.mark.parametrize(
    "text, line",
    [
        ("np.float64(0.0),np.float64(1.0)\nnp.float64(1.0),np.float64(2.0)\n", 1),
        ("t1,u1\n0.0,1.0\n1.0,2.0\n", 1),
        ("t,u\nangle,value\n0.0,1.0\n1.0,2.0\n", 2),
        ("0.0,1.0\n1.0,2.0\n2.0,x\n", 3),
        ("t,u\n0.0,1.0\n\n1.0\n", 4),
        ("0.0,1.0\n1.0,2.0,8\n2.0,3.0\n", 2),
    ],
    ids=["numpy-repr", "digit-in-header", "second-header", "late-text", "one-column", "three-columns"],
)
def test_trace_csv_rejects_a_non_numeric_row_by_line(tmp_path, text, line):
    path = tmp_path / "trace.csv"
    path.write_text(text)
    with pytest.raises(ValidationError, match=f"line {line}\\b"):
        BoundaryTrace.from_csv(path)


def _block_lines(path):
    """Every line that read_lines yields, with its number, and how many blocks held them."""
    from layerfield.harmonic import read_lines

    with open(path, encoding="utf-8") as fh:
        blocks = list(read_lines(fh))
    return [(start + i, line) for start, lines in blocks for i, line in enumerate(lines)], len(blocks)


@pytest.mark.parametrize("ending", ["\n", "\r\n", ""], ids=["LF", "CRLF", "no-final-newline"])
def test_read_lines_numbers_every_line_across_blocks(tmp_path, ending):
    from layerfield.harmonic import LINE_CHUNK

    # lines of every length up to the chunk, so that reads end at every place in a line
    lines = ["", "a,b", "x" * LINE_CHUNK, "", "1" * (LINE_CHUNK - 1), *(str(j) * (j % 97) for j in range(20_000))]
    path = tmp_path / "lines.csv"
    path.write_bytes((ending or "\n").join(lines).encode() + ending.encode())
    got, blocks = _block_lines(path)
    assert got == list(enumerate(lines, start=1))
    assert blocks > 5


@pytest.mark.parametrize("where", ["first", "after-a-block", "last-without-newline"])
def test_read_lines_refuses_a_line_over_the_chunk_with_its_number(tmp_path, where):
    from layerfield.harmonic import LINE_CHUNK, read_lines

    # one character over the chunk, wherever the reads split it
    long = "7" * (LINE_CHUNK + 1)
    lines = {"first": [long, "1,2"], "after-a-block": ["1,2"] * 30_000 + [long, "3,4"],
             "last-without-newline": ["1,2"] * 5 + [long]}[where]
    path = tmp_path / "long.csv"
    path.write_text("\n".join(lines) + ("" if where == "last-without-newline" else "\n"))
    number = lines.index(long) + 1
    with open(path, encoding="utf-8") as fh, pytest.raises(ValidationError) as info:
        list(read_lines(fh))
    assert str(info.value) == f"a line longer than {LINE_CHUNK} characters in {path}, line {number}"


def test_trace_csv_of_many_samples_reads_in_bounded_memory(tmp_path):
    # 400,000 samples, 15 MB of text: as one string per line, as the reader
    # once held them, the read peaked at about 140 MiB
    import tracemalloc

    t = np.arange(400_000) * (2.0 * math.pi / 400_000)
    v = np.cos(3.0 * t) + 0.1 * np.sin(7.0 * t)
    path = tmp_path / "trace.csv"
    path.write_text("t,u\n" + "".join(f"{a!r},{b!r}\n" for a, b in zip(t.tolist(), v.tolist())))
    tracemalloc.start()
    try:
        trace = BoundaryTrace.from_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    for got, written in ((trace.abscissae, t), (trace.values, v)):
        assert got.dtype == np.float64 and got.flags.c_contiguous
        assert got.tobytes() == written.tobytes()


#: texts a numeric field may hold: float() reads each, padding and underscores included
NUMBERS = st.floats(-10.0, 10.0).map(repr) | st.sampled_from(["0", "-0.0", "1e-1", ".5", "5.", "1_0", " 2.5", "3 \t"])
#: texts no numeric field may hold
NON_NUMBERS = st.sampled_from(["", "x", "1.0.0", "np.float64(1.0)", "0x10", "nan?", "--1", "t"])


@st.composite
def csv_lines(draw, width, good_row):
    """The lines of a CSV of `width` columns: blank lines, rows drawn by
    `good_row(i)` for the i-th good row, rows of another width and rows with
    a field that is not a number, each row padded or not with whitespace."""
    kinds = ["blank", "good", "good", "good"] + (["width", "text"] if draw(st.booleans()) else [])
    lines, good = [], 0
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=40)):
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", " ", "\t "])))
        elif kind == "good":
            lines.append(draw(good_row(good)))
            good += 1
        else:
            fields = [draw(NUMBERS) for _ in range(width)]
            if kind == "width":
                fields = fields[:1] if draw(st.booleans()) else fields + ["7"]
            else:
                fields[draw(st.sampled_from([0, 1]))] = draw(NON_NUMBERS)
            lines.append(",".join(fields))
        if kind != "blank":
            lines[-1] = draw(st.sampled_from(["", " ", "\t"])) + lines[-1] + draw(st.sampled_from(["", " \t"]))
    return lines


def _trace_row(i):
    """A trace row whose abscissa is i, so that the good rows increase."""
    return st.tuples(st.sampled_from([f"{i}", f"{i}.0", f" {i}e0", f"{i}.25"]), NUMBERS).map(",".join)


def _grid_row(i):
    coordinate = NUMBERS | st.sampled_from(["0.1", "0.5", "1.5"])  # repeated texts, parsed once
    value = st.sampled_from(["0.0", "0.0", "-0.0", "0", "0.5"])  # the zero solution's repr is "0.0"
    return st.tuples(coordinate, coordinate, st.sampled_from(["1", "2", " 1"]), value).map(",".join)


def reference_rows(lines, width, header):
    """(first malformed (number, row) or None, first column, second column) of
    `lines`, read one line at a time: the first line is the header, or for
    header "optional" the first non-blank line is one if it has no digit."""
    p, q, seen = [], [], header != "optional"
    for number, line in enumerate(lines[1:] if header == "first" else lines, start=2 if header == "first" else 1):
        row = line.strip()
        if not row:
            continue
        if not seen:
            seen = True
            if not any(c.isdigit() for c in line):
                continue
        fields = row.split(",")
        try:
            if len(fields) != width:
                raise ValueError("a row of another width")
            a, b = float(fields[0]), float(fields[1])
        except ValueError:
            return (number, row), p, q
        p.append(a)
        q.append(b)
    return None, p, q


def _bits(column):
    return np.asarray(column, dtype=float).tobytes()


def _read_or_message(read):
    """What `read()` returns, or the message of the ValidationError it raises."""
    try:
        return read()
    except ValidationError as exc:
        return str(exc)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_both_csv_readers_match_a_line_at_a_time_reference(data):
    import pathlib
    import tempfile

    from layerfield import cli, harmonic
    from layerfield.series import Geometry, LayeredSolution

    chunk = data.draw(st.integers(100, 400), label="LINE_CHUNK")
    header = data.draw(st.sampled_from(["", "t,u", " angle , value ", "x,y,z", "t1,u1", "t,u(2)"]), label="header")
    # blank lines before the header, sometimes more than a block holds
    lead = [""] * data.draw(st.integers(0, 150), label="blank lines before the header")
    trace = lead + ([header] if header else []) + data.draw(csv_lines(2, _trace_row), label="trace")
    grid = ["x,y,region,u"] + data.draw(csv_lines(4, _grid_row), label="grid")
    solution = LayeredSolution(Geometry("halfplane_coupled", 0.3, 0.5), HalfPlaneField(), 0.0)
    recorded = []

    def recording(solution, p, q):
        """cli._layered_values, keeping each block's coordinates and values."""
        values = layered_values(solution, p, q)
        recorded.append((p, q[:, 0], values[:, 0]))
        return values

    layered_values = cli._layered_values
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(harmonic, "LINE_CHUNK", chunk)
        mp.setattr(cli, "_layered_values", recording)
        paths = {}
        for name, lines in (("trace", trace), ("grid", grid)):
            endings = data.draw(st.lists(st.sampled_from(["\n", "\r\n"]), min_size=len(lines), max_size=len(lines)))
            text = "".join(line + end for line, end in zip(lines, endings)).encode()
            paths[name] = pathlib.Path(tmp) / f"{name}.csv"
            paths[name].write_bytes(text if data.draw(st.booleans(), label="final newline") else text[:-1])

        bad, t, v = reference_rows(trace, 2, "optional")
        got = _read_or_message(lambda: BoundaryTrace.from_csv(paths["trace"]))
        if bad:
            assert got == f"expected two numeric columns in {paths['trace']}, line {bad[0]}: {bad[1]!r}"
        elif len(t) < 2:
            assert got == f"no usable samples in {paths['trace']}"
        else:
            assert _bits(got.abscissae) == _bits(t) and _bits(got.values) == _bits(v)

        bad, x, y = reference_rows(grid, 4, "first")
        got = _read_or_message(lambda: cli._check_grid_file(paths["grid"], solution))
        if bad:
            assert got == f"expected four fields with numeric coordinates in {paths['grid']}, line {bad[0]}: {bad[1]!r}"
        elif not x:
            assert got == f"{paths['grid']} holds no data rows"
        else:
            px, py, u = (np.concatenate(column) for column in zip(*recorded))
            assert _bits(px) == _bits(x) and _bits(py) == _bits(y)
            rows = [line.strip().split(",") for line in grid[1:] if line.strip()]
            assert got == sum(region != ("2" if xi > 0.3 else "1") or value != repr(ui)
                              for (_, _, region, value), xi, ui in zip(rows, x, u.tolist()))
