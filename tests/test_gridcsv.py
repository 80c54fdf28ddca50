"""The grid-CSV writers against per-cell reference writers, and the
shortest-float kernel behind them against repr.

The references format one f-string or repr per cell; the output must
match byte for byte.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layerfield import gridcsv
from layerfield.cli import _write_compare_csv, write_grid_csv
from layerfield.oracle import GridSolution
from layerfield.series import Geometry, PlanarLayerConfig, RadialLayerConfig

SPECIAL = [-0.0, 5e-324, 1e300, -1.5e-17, -1e300, 0.1, 1.0 / 3.0, 2.0]
PLANAR = PlanarLayerConfig(l=0.4, k=0.3)
DISK = RadialLayerConfig(R=0.6, k=2.0)


def reference_grid_csv(path, header, axis1, axis2, values, region_of):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for i, c1 in enumerate(axis1):
            region = region_of(c1)
            for j, c2 in enumerate(axis2):
                fh.write(f"{float(c1)!r},{float(c2)!r},{region},{float(values[i, j])!r}\n")


def reference_compare_csv(path, cols, methods, axis1, axis2, grids):
    names = ",".join(f"u_{m}" for m in methods)
    pair_names = []
    for i in range(len(methods)):
        for j in range(i + 1, len(methods)):
            pair_names.append(f"absdiff_{methods[i]}_{methods[j]}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{cols},{names},{','.join(pair_names)}\n")
        for i, c1 in enumerate(axis1):
            for j, c2 in enumerate(axis2):
                vals = [g[i, j] for g in grids]
                pairs = []
                for a in range(len(methods)):
                    for b in range(a + 1, len(methods)):
                        pairs.append(abs(vals[a] - vals[b]))
                row = [repr(float(c1)), repr(float(c2))]
                row += [repr(float(v)) for v in vals]
                row += [repr(float(p)) for p in pairs]
                fh.write(",".join(row) + "\n")


def values(shape, seed):
    """Random values of every magnitude, with the special values spread in."""
    rng = np.random.default_rng(seed)
    out = rng.standard_normal(shape) * 10.0 ** rng.integers(-20, 20, shape)
    flat = out.reshape(-1)
    flat[: len(SPECIAL)] = SPECIAL[: flat.size]
    rng.shuffle(flat)
    return out


# (rows, columns): a grid with rows in both regions, a single row, a single column
SHAPES = [(9, 7), (1, 11), (11, 1)]


def planar_axes(shape):
    # rows straddle the interface x = l, and one sits on it
    axis1 = np.linspace(0.0, 0.8, shape[0]) if shape[0] > 1 else np.array([PLANAR.l])
    return axis1, np.linspace(-1.5, 1.5, shape[1])


@pytest.mark.parametrize("shape", SHAPES)
def test_write_grid_csv_matches_per_cell_writer(tmp_path, shape):
    axis1, axis2 = planar_axes(shape)
    vals = values(shape, 1)
    solution = SimpleNamespace(geometry=PLANAR)
    write_grid_csv(tmp_path / "new.csv", "halfplane_coupled", solution, axis1, axis2, vals)
    reference_grid_csv(tmp_path / "old.csv", "x,y,region,u", axis1, axis2, vals,
                       lambda c1: "2" if PLANAR.in_layer2(c1) else "1")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    if shape[0] > 1:
        regions = {line.split(",")[2] for line in (tmp_path / "new.csv").read_text().splitlines()[1:]}
        assert regions == {"1", "2"}


@pytest.mark.parametrize("shape", SHAPES)
def test_radial_write_grid_csv_matches_per_cell_writer(tmp_path, shape):
    axis1 = np.linspace(0.0, 1.0, shape[0])
    axis2 = np.linspace(0.0, 6.2, shape[1])
    vals = values(shape, 2)
    write_grid_csv(tmp_path / "new.csv", "disk_coupled", SimpleNamespace(geometry=DISK), axis1, axis2, vals)
    reference_grid_csv(tmp_path / "old.csv", "r,theta,region,u", axis1, axis2, vals,
                       lambda c1: "2" if DISK.in_layer2(c1) else "1")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("kind, interface", [("disk_coupled", 0.6), ("strip", None), ("annulus", None)])
def test_fd_to_csv_matches_per_cell_writer(tmp_path, shape, kind, interface):
    axis1 = np.concatenate([np.arange(4) * 0.15, 0.6 + np.arange(1, 6) * 0.08])[: shape[0]]
    if shape[0] == 1:
        axis1 = np.array([0.45])
    axis2 = np.arange(shape[1]) * (2.0 * np.pi / max(shape[1], 1))
    vals = values((axis1.size, axis2.size), 3)
    # the strip and the annulus have one region whatever their interface
    geometry = Geometry(kind, 0.5) if interface is None else RadialLayerConfig(R=interface, k=2.0)
    GridSolution(geometry, (axis1, axis2), vals, (0.1, 0.1)).to_csv(tmp_path / "new.csv")
    header = "x,y,region,u" if kind == "strip" else "r,theta,region,u"
    reference_grid_csv(tmp_path / "old.csv", header, axis1, axis2, vals,
                       lambda c1: "2" if interface is not None and c1 < interface else "1")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("methods", [["series", "asymptotic"], ["series", "oracle", "identity"]])
def test_compare_csv_matches_per_cell_writer(tmp_path, shape, methods):
    axis1, axis2 = planar_axes(shape)
    grids = [values(shape, 10 + m) for m in range(len(methods))]
    grids[0].flat[0], grids[-1].flat[0] = 1e300, -1e300  # an absdiff that overflows to inf
    _write_compare_csv(tmp_path / "new.csv", PLANAR, methods, axis1, axis2, grids)
    reference_compare_csv(tmp_path / "old.csv", "x,y", methods, axis1, axis2, grids)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    header = (tmp_path / "new.csv").read_text().splitlines()[0]
    assert header.count("absdiff_") == len(methods) * (len(methods) - 1) // 2


# ---------------------------------------------------------------------------
# the shortest-float kernel against repr
# ---------------------------------------------------------------------------


def kernel_reprs(x):
    words, length = gridcsv.repr_words(np.asarray(x, dtype=float))
    chars = words.view(np.uint8)
    return [chars[i, :n].tobytes().decode("ascii") for i, n in enumerate(length.tolist())]


def assert_kernel_is_repr(x):
    x = np.asarray(x, dtype=float)
    assert kernel_reprs(x) == [repr(v) for v in x.tolist()]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=64))
def test_kernel_is_repr_on_floats(xs):
    assert_kernel_is_repr(xs)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
def test_kernel_is_repr_on_bit_patterns(patterns):
    assert_kernel_is_repr(np.array(patterns, dtype=np.uint64).view(np.float64))


def with_neighbours(values):
    values = np.asarray(values, dtype=float)
    return np.concatenate([values, np.nextafter(values, 0.0), np.nextafter(values, np.inf)])


def test_kernel_is_repr_on_edges():
    edges = [
        with_neighbours(2.0 ** np.arange(-1074, 1024)),
        with_neighbours([float(f"1e{e}") for e in range(-323, 309)]),
        # the switches between positional and exponent form
        with_neighbours([1e-4, 1e16]),
        [0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, np.inf, np.nan],
        # integers around 2^53, where the gap grows from 1 to 2
        2.0**53 + np.arange(-64, 65),
        np.arange(-100_000, 100_000, 7),
    ]
    x = np.concatenate([np.asarray(e, dtype=float) for e in edges])
    assert_kernel_is_repr(np.concatenate([x, -x]))


def test_schubfach_table_brackets_every_power_of_ten():
    # 10^-k = beta 2^r with 2^125 <= beta < 2^126, g = floor(beta) + 1,
    # and r + 125 is the kernel's floor(log2(10^-k))
    from fractions import Fraction

    for k in range(-324, 293):
        g1, g0 = gridcsv._g_row(k)
        g = (g1 << 63) + g0
        r = ((-k * 217_706) >> 16) - 125
        scaled = Fraction(10) ** -k / Fraction(2) ** r
        assert 2**125 <= g - 1 <= scaled < g <= 2**126


# ---------------------------------------------------------------------------
# write_grid across chunk shapes, against the per-cell reference writers
# ---------------------------------------------------------------------------


def every_magnitude(n, seed):
    """Values from 1e-320 to 1e308 of both signs, with zeros, subnormals,
    infinities and NaN among them."""
    rng = np.random.default_rng(seed)
    out = rng.standard_normal(n) * 10.0 ** rng.uniform(-320, 308, n)
    special = np.array(SPECIAL + [np.inf, -np.inf, np.nan, 1e-4, 1e16, 9999999999999998.0])
    out[rng.choice(n, min(n, special.size), replace=False)] = special[: min(n, special.size)]
    return out


def assert_solve_csv_matches(tmp_path, axis1, axis2, vals):
    write_grid_csv(tmp_path / "new.csv", "halfplane_coupled", SimpleNamespace(geometry=PLANAR), axis1, axis2, vals)
    reference_grid_csv(tmp_path / "old.csv", "x,y,region,u", axis1, axis2, vals,
                       lambda c1: "2" if PLANAR.in_layer2(c1) else "1")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


@pytest.mark.parametrize("shape", [
    (20000, 3),  # tall: many rows per chunk, axis1 over several blocks
    (1, 2 * gridcsv.CHUNK_NODES + 7),  # one row longer than a chunk
    (2 * gridcsv.CHUNK_NODES + 7, 1),
    (37, 300),  # a row count that does not divide the rows of a chunk
])
def test_write_grid_csv_matches_per_cell_writer_across_chunks(tmp_path, shape):
    axis1 = np.linspace(0.0, 0.8, shape[0])
    axis2 = np.linspace(-1.5, 1.5, shape[1])
    assert_solve_csv_matches(tmp_path, axis1, axis2, values(shape, 4))


def test_write_grid_csv_matches_per_cell_writer_on_axes_of_every_magnitude(tmp_path):
    axis1, axis2 = every_magnitude(41, 5), every_magnitude(29, 6)
    assert_solve_csv_matches(tmp_path, axis1, axis2, every_magnitude(41 * 29, 7).reshape(41, 29))


@pytest.mark.parametrize("chunk", [1, 2, 5, 64])
@pytest.mark.parametrize("shape", [(9, 7), (1, 11), (11, 1), (0, 4), (4, 0)])
def test_write_grid_matches_per_cell_writer_at_small_chunks(tmp_path, monkeypatch, chunk, shape):
    monkeypatch.setattr(gridcsv, "CHUNK_NODES", chunk)
    axis1, axis2 = every_magnitude(shape[0], 8), every_magnitude(shape[1], 9)
    vals = every_magnitude(shape[0] * shape[1], 10).reshape(shape)
    assert_solve_csv_matches(tmp_path, axis1, axis2, vals)
    methods = ["series", "oracle", "identity"]
    grids = [vals, -vals, np.ones(shape)]
    _write_compare_csv(tmp_path / "new.csv", PLANAR, methods, axis1, axis2, grids)
    reference_compare_csv(tmp_path / "old.csv", "x,y", methods, axis1, axis2, grids)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
