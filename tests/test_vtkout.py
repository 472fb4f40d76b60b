"""VTK export: the bulk number formatting against one value at a time."""

import numpy as np

from latincut.experiments import build_problem, ellipse_case
from latincut.latin import LatinParams, run
from latincut.vtkout import (
    corner_displacements,
    element_stresses,
    physical_triangulation,
    write_subdomain_vtk,
)


def reference_vtk(space, u, title):
    """The file text with every number converted and formatted on its own."""
    coords, parents = physical_triangulation(space)
    disp = corner_displacements(space, u, coords, parents)
    row = {int(c): k for k, c in enumerate(space.domain.cells)}
    stress = element_stresses(space, u)[[row[int(p)] for p in parents]]
    m = coords.shape[0]
    lines = ["# vtk DataFile Version 3.0", title, "ASCII", "DATASET UNSTRUCTURED_GRID"]
    lines.append(f"POINTS {3 * m} double")
    lines += [f"{repr(float(x))} {repr(float(y))} 0.0" for x, y in coords.reshape(-1, 2)]
    lines.append(f"CELLS {m} {4 * m}")
    lines += [f"3 {3 * k} {3 * k + 1} {3 * k + 2}" for k in range(m)]
    lines.append(f"CELL_TYPES {m}")
    lines += ["5"] * m
    lines += [f"POINT_DATA {3 * m}", "VECTORS displacement double"]
    lines += [f"{repr(float(x))} {repr(float(y))} 0.0" for x, y in disp.reshape(-1, 2)]
    lines.append(f"CELL_DATA {m}")
    for k, name in enumerate(("stress_xx", "stress_yy", "stress_xy")):
        lines += [f"SCALARS {name} double 1", "LOOKUP_TABLE default"]
        lines += [repr(float(v)) for v in stress[:, k]]
    return "\n".join(lines) + "\n"


def test_written_file_matches_per_value_formatting(tmp_path):
    pdef = ellipse_case(base_nx=12, params=LatinParams(it_max=5))
    state = run(build_problem(pdef), pdef.params)
    for i, (space, u) in enumerate(zip(state.spaces, state.u)):
        assert space.domain.subtri_coords.size  # cut cells are written too
        # a negative zero must keep its sign
        u = u.copy()
        u[0] = -0.0
        path = tmp_path / f"sub{i}.vtk"
        write_subdomain_vtk(path, space, u, f"subdomain {i}")
        assert path.read_bytes() == reference_vtk(space, u, f"subdomain {i}").encode("ascii")
