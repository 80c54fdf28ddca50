"""Grid CSV output shared by the CLI and the finite-difference oracle."""

from __future__ import annotations

from itertools import repeat

import numpy as np


def write_grid(path, header, axis1, axis2, columns, regions=None):
    """Write `header`, then one line per node of the tensor grid axis1 x axis2.

    Rows run along axis1.  The line of node (i, j) is

        axis1[i],axis2[j][,regions[i]],columns[0][i, j],columns[1][i, j],...

    with every number written as repr(float(...)).  Each axis2 coordinate
    is formatted once; a grid row is turned into text with tolist and repr
    and written with one join, so the file is never held in memory whole.
    """
    seconds = [repr(c) for c in np.asarray(axis2, dtype=float).tolist()]
    columns = [np.asarray(col, dtype=float) for col in columns]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for i, first in enumerate(np.asarray(axis1, dtype=float).tolist()):
            fields = [repeat(repr(first)), seconds]
            if regions is not None:
                fields.append(repeat(regions[i]))
            fields += [map(repr, col[i].tolist()) for col in columns]
            fh.write("".join([",".join(line) + "\n" for line in zip(*fields)]))


def write_solve_csv(path, geometry, axis1, axis2, values):
    """Write a solve's grid: header `<axes>,region,u`, region 2 on the rows of layer 2."""
    regions = np.where(geometry.in_layer2(axis1), "2", "1")
    write_grid(path, ",".join(geometry.axes) + ",region,u", axis1, axis2, [values], regions)
