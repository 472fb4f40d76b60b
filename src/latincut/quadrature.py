"""Quadrature rules on triangles and straight segments."""

from __future__ import annotations

import numpy as np

# Interior 3-point rule, exact for degree 2.  Rows are barycentric coords.
_TRI_BARY = np.array(
    [
        [2.0 / 3.0, 1.0 / 6.0, 1.0 / 6.0],
        [1.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0],
        [1.0 / 6.0, 1.0 / 6.0, 2.0 / 3.0],
    ]
)
_TRI_W = np.array([1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0])

# Gauss-Legendre nodes/weights on [0, 1].
_GL3 = 1.0 / (2.0 * np.sqrt(3.0))
_GL4_A = 0.5 * 0.3399810435848563
_GL4_B = 0.5 * 0.8611363115940526
_SEG_RULES = {
    1: (np.array([0.5]), np.array([1.0])),
    2: (np.array([0.5 - _GL3, 0.5 + _GL3]), np.array([0.5, 0.5])),
    4: (
        np.array([0.5 - _GL4_B, 0.5 - _GL4_A, 0.5 + _GL4_A, 0.5 + _GL4_B]),
        0.5 * np.array(
            [0.3478548451374538, 0.6521451548625461, 0.6521451548625461, 0.3478548451374538]
        ),
    ),
}


def triangle_points(coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Physical points and weights of the degree-2 rule on triangles.

    Parameters
    ----------
    coords : (m, 3, 2) vertex coordinates of m triangles.

    Returns
    -------
    points : (m, n, 2), weights : (m, n) with weights summing to each area.
    """
    coords = np.asarray(coords, dtype=float)
    pts = np.einsum("qa,mad->mqd", _TRI_BARY, coords)
    e1 = coords[:, 1] - coords[:, 0]
    e2 = coords[:, 2] - coords[:, 0]
    area = 0.5 * np.abs(e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
    return pts, area[:, None] * _TRI_W[None, :]


def segment_points(p0: np.ndarray, p1: np.ndarray, n_points: int) -> tuple[np.ndarray, np.ndarray]:
    """Physical Gauss points and weights for segments p0->p1.

    Parameters
    ----------
    p0, p1 : (m, 2) segment endpoints.

    Returns
    -------
    points : (m, n, 2), weights : (m, n) with weights summing to each length.
    """
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    if n_points not in _SEG_RULES:
        raise ValueError(f"segment quadrature must use 1, 2 or 4 points, got {n_points}")
    t, w = _SEG_RULES[n_points]
    pts = p0[:, None, :] + t[None, :, None] * (p1 - p0)[:, None, :]
    length = np.hypot(*(p1 - p0).T)
    return pts, length[:, None] * w[None, :]
