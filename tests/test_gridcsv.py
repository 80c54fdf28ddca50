"""The batched grid-CSV writers against per-cell reference writers.

The references format one f-string or repr per cell, as the writers did
before rows were written in batches; the output must match byte for byte.
"""

from types import SimpleNamespace

import numpy as np
import pytest

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
