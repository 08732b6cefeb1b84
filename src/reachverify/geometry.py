"""Rectilinear grids, scalar fields, and signed-distance geometry.

State space is discretized on a node-centered rectilinear grid with both
endpoints included.  Sets are represented implicitly: a set is the zero
sublevel region ``{s : value(s) <= 0}`` of a scalar field over the grid,
and fields for concrete sets are built from exact Euclidean signed
distances of geometric primitives (balls, axis-aligned boxes, capped
cylinders).  Unions of primitives take the pointwise minimum distance.

Field algebra follows the usual min/max rules: union is the pointwise
minimum and complement the negation.
The boundary belongs to a set (``<= 0``); complemented fields pair with
the strict mask (``< 0``) so that complement masks are exact logical
negations of the original masks.
"""

from __future__ import annotations

import itertools
from dataclasses import InitVar, dataclass

import numpy as np

from .nn import _BLOCK_ROWS

__all__ = [
    "Grid",
    "ScalarField",
    "Ball",
    "AxisBox",
    "AxisCylinder",
    "ShapeSet",
    "build_grid",
    "same_grid",
    "signed_distance",
    "level_set_from_shapes",
    "field_union",
    "field_complement",
    "zero_sublevel_mask",
    "strict_sublevel_mask",
    "cell_coordinates",
    "interpolate",
    "interpolate_many",
]

MAX_DIMS = 4


def _vector(x, name: str) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a 1-D vector, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class Grid:
    """Node-centered rectilinear grid over a box, endpoints included."""

    lo: np.ndarray
    hi: np.ndarray
    counts: tuple
    spacing: np.ndarray

    @property
    def dims(self) -> int:
        return len(self.counts)

    @property
    def num_nodes(self) -> int:
        return int(np.prod(self.counts))

    def axis_coords(self, axis: int) -> np.ndarray:
        """Node coordinates along one axis."""
        return np.linspace(self.lo[axis], self.hi[axis], self.counts[axis])

    def node_points(self) -> np.ndarray:
        """All node coordinates as an array of shape ``(*counts, dims)``."""
        axes = [self.axis_coords(i) for i in range(self.dims)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack(mesh, axis=-1)

    def flat_points(self) -> np.ndarray:
        """All node coordinates as a ``(num_nodes, dims)`` array in C order."""
        return self.node_points().reshape(-1, self.dims)

    def point_blocks(self):
        """Yield ``(a, points)`` over the nodes in C order, ``_BLOCK_ROWS``
        at a time: ``points`` holds the ``(b - a, dims)`` coordinates of
        nodes ``a .. b-1``, the rows ``a:b`` of :meth:`flat_points`, taken
        from the per-axis tables without building a whole-grid array."""
        axes = [self.axis_coords(i) for i in range(self.dims)]
        n = self.num_nodes
        for a in range(0, n, _BLOCK_ROWS):
            index = np.unravel_index(np.arange(a, min(a + _BLOCK_ROWS, n)), self.counts)
            yield a, np.stack([x[i] for x, i in zip(axes, index)], axis=1)


def build_grid(lo, hi, counts) -> Grid:
    """Build a grid with derived spacing ``(hi - lo) / (counts - 1)``.

    Raises ``ValueError`` on mismatched lengths, degenerate bounds
    (``lo >= hi`` in any dimension), node counts below 3, or more than
    four dimensions.
    """
    lo = _vector(lo, "lo")
    hi = _vector(hi, "hi")
    counts_arr = np.atleast_1d(np.asarray(counts, dtype=int))
    if not (len(lo) == len(hi) == len(counts_arr)):
        raise ValueError(
            f"dimension mismatch: lo has {len(lo)}, hi has {len(hi)}, "
            f"counts has {len(counts_arr)} entries"
        )
    if len(lo) > MAX_DIMS:
        raise ValueError(f"at most {MAX_DIMS} dimensions supported, got {len(lo)}")
    if np.any(hi <= lo):
        raise ValueError(f"degenerate bounds: lo={lo} must be < hi={hi} elementwise")
    if np.any(counts_arr < 3):
        raise ValueError(f"every dimension needs at least 3 nodes, got {counts_arr}")
    spacing = (hi - lo) / (counts_arr - 1)
    lo.setflags(write=False)
    hi.setflags(write=False)
    spacing.setflags(write=False)
    return Grid(lo=lo, hi=hi, counts=tuple(int(c) for c in counts_arr), spacing=spacing)


def same_grid(a: Grid, b: Grid) -> bool:
    return (
        a.counts == b.counts
        and np.array_equal(a.lo, b.lo)
        and np.array_equal(a.hi, b.hi)
    )


@dataclass(frozen=True)
class ScalarField:
    """One real value per grid node, tagged with a time in seconds.

    The field keeps a read-only copy of ``values``.  ``copy=False`` hands
    over a fresh float array that nothing else holds instead: the field
    keeps it, made read-only, without a second copy.
    """

    grid: Grid
    values: np.ndarray
    time_tag: float = 0.0
    copy: InitVar[bool] = True

    def __post_init__(self, copy):
        # One pass converts and copies, whatever the input dtype.
        values = (np.array if copy else np.asarray)(self.values, dtype=float)
        if values.shape != self.grid.counts:
            raise ValueError(
                f"values shape {values.shape} does not match grid counts {self.grid.counts}"
            )
        if not np.isfinite(values).all():
            raise ValueError("field values must all be finite")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


# ---------------------------------------------------------------------------
# Signed-distance primitives
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Ball:
    """Solid ball: negative inside, ``|x - center| - radius`` everywhere."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", _vector(self.center, "center"))
        if not self.radius > 0:
            raise ValueError(f"radius must be positive, got {self.radius}")

    @property
    def dims(self) -> int:
        return len(self.center)

    def signed_distance(self, points: np.ndarray) -> np.ndarray:
        return np.linalg.norm(points - self.center, axis=-1) - self.radius

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        return self.center - self.radius, self.center + self.radius


@dataclass(frozen=True)
class AxisBox:
    """Axis-aligned solid box given by center and per-axis half widths.

    Uses the corner-aware exact distance: outside points see the distance
    to the nearest face/edge/corner, inside points the (negative) distance
    to the nearest face.
    """

    center: np.ndarray
    half_widths: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "center", _vector(self.center, "center"))
        object.__setattr__(self, "half_widths", _vector(self.half_widths, "half_widths"))
        if len(self.center) != len(self.half_widths):
            raise ValueError("center and half_widths must have equal length")
        if np.any(self.half_widths <= 0):
            raise ValueError(f"half_widths must be positive, got {self.half_widths}")

    @property
    def dims(self) -> int:
        return len(self.center)

    def signed_distance(self, points: np.ndarray) -> np.ndarray:
        q = np.abs(points - self.center) - self.half_widths
        outside = np.linalg.norm(np.maximum(q, 0.0), axis=-1)
        inside = np.minimum(np.max(q, axis=-1), 0.0)
        return outside + inside

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        return self.center - self.half_widths, self.center + self.half_widths


@dataclass(frozen=True)
class AxisCylinder:
    """Capped cylinder whose axis is parallel to one coordinate axis.

    ``radius`` bounds the distance in the plane orthogonal to the axis,
    ``half_height`` the extent along it; the two one-dimensional distances
    combine like a 2-D box distance.
    """

    center: np.ndarray
    radius: float
    axis_index: int
    half_height: float

    def __post_init__(self):
        object.__setattr__(self, "center", _vector(self.center, "center"))
        if not self.radius > 0:
            raise ValueError(f"radius must be positive, got {self.radius}")
        if not self.half_height > 0:
            raise ValueError(f"half_height must be positive, got {self.half_height}")
        if not 0 <= self.axis_index < len(self.center):
            raise ValueError(f"axis_index {self.axis_index} out of range")

    @property
    def dims(self) -> int:
        return len(self.center)

    def signed_distance(self, points: np.ndarray) -> np.ndarray:
        delta = points - self.center
        axial = delta[..., self.axis_index]
        radial = np.delete(delta, self.axis_index, axis=-1)
        d_r = np.linalg.norm(radial, axis=-1) - self.radius
        d_a = np.abs(axial) - self.half_height
        outside = np.hypot(np.maximum(d_r, 0.0), np.maximum(d_a, 0.0))
        inside = np.minimum(np.maximum(d_r, d_a), 0.0)
        return outside + inside

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        lo = self.center.copy()
        hi = self.center.copy()
        for i in range(self.dims):
            ext = self.half_height if i == self.axis_index else self.radius
            lo[i] -= ext
            hi[i] += ext
        return lo, hi


@dataclass(frozen=True)
class ShapeSet:
    """Union of signed-distance primitives; distance is the member minimum."""

    primitives: tuple

    def __post_init__(self):
        prims = tuple(self.primitives)
        if not prims:
            raise ValueError("a shape set needs at least one primitive")
        dims = prims[0].dims
        if any(p.dims != dims for p in prims):
            raise ValueError("all primitives in a shape set must share a dimension")
        object.__setattr__(self, "primitives", prims)

    @property
    def dims(self) -> int:
        return self.primitives[0].dims

    def signed_distance(self, points: np.ndarray) -> np.ndarray:
        dist = self.primitives[0].signed_distance(points)
        for prim in self.primitives[1:]:
            dist = np.minimum(dist, prim.signed_distance(points))
        return dist

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        boxes = [p.bounding_box() for p in self.primitives]
        lo = np.min([b[0] for b in boxes], axis=0)
        hi = np.max([b[1] for b in boxes], axis=0)
        return lo, hi


def signed_distance(shape, point) -> float | np.ndarray:
    """Signed distance from ``point`` (or a stack of points) to ``shape``.

    Negative inside, positive outside, zero on the boundary.
    """
    points = np.asarray(point, dtype=float)
    if points.shape[-1] != shape.dims:
        raise ValueError(
            f"point dimension {points.shape[-1]} does not match shape dimension {shape.dims}"
        )
    result = shape.signed_distance(points)
    if points.ndim == 1:
        return float(result)
    return result


def level_set_from_shapes(grid: Grid, shape) -> ScalarField:
    """Sample the exact signed distance of ``shape`` at every grid node,
    one block of nodes at a time."""
    if shape.dims != grid.dims:
        raise ValueError(
            f"shape dimension {shape.dims} does not match grid dimension {grid.dims}"
        )
    values = np.empty(grid.num_nodes)
    for a, points in grid.point_blocks():
        values[a:a + len(points)] = shape.signed_distance(points)
    return ScalarField(grid, values.reshape(grid.counts), copy=False)


# ---------------------------------------------------------------------------
# Field algebra
# ---------------------------------------------------------------------------

def _check_same_grid(a: ScalarField, b: ScalarField) -> None:
    if not same_grid(a.grid, b.grid):
        raise ValueError("fields live on different grids")


def field_union(a: ScalarField, b: ScalarField) -> ScalarField:
    """Pointwise minimum; sublevel sets union."""
    _check_same_grid(a, b)
    return ScalarField(a.grid, np.minimum(a.values, b.values), a.time_tag, copy=False)


def field_complement(a: ScalarField) -> ScalarField:
    """Pointwise negation; pair with :func:`strict_sublevel_mask`."""
    return ScalarField(a.grid, -a.values, a.time_tag, copy=False)


def zero_sublevel_mask(field: ScalarField) -> np.ndarray:
    """Boolean membership mask; the boundary counts as inside."""
    return field.values <= 0.0


def strict_sublevel_mask(field: ScalarField) -> np.ndarray:
    """Boolean mask of strictly negative values (boundary excluded)."""
    return field.values < 0.0


# ---------------------------------------------------------------------------
# Multilinear interpolation
# ---------------------------------------------------------------------------

def cell_coordinates(grid: Grid, points: np.ndarray):
    """The cell of each of the ``(k, dims)`` points: the integer index of
    its lowest node, ``(k, dims)``, and the point's offsets from that node
    in cells, each in [0, 1].  A coordinate off the grid counts as the
    nearest edge node's.  Every offset is exact: it is ``rel - floor(rel)``
    for ``rel`` at most one cell above a whole number of cells."""
    last = np.asarray(grid.counts) - 1
    rel = np.clip((points - grid.lo) / grid.spacing, 0.0, last)
    base = np.minimum(np.floor(rel).astype(np.intp), last - 1)
    return base, rel - base


def interpolate_many(field: ScalarField, points: np.ndarray, dtype=float) -> np.ndarray:
    """Multilinear interpolation of the field at points of shape ``(k, dims)``.

    The interpolant is taken one axis at a time, the last axis first, each
    step a sum ``(1 - f) a + f b`` of values times non-negative weights
    (``f`` the point's offset along the axis).  The values and offsets are
    rounded to ``dtype`` and every operation runs in it, so that each
    rounding is monotone: raising a node value never lowers an interpolated
    one.  The tube solver interpolates the same way in float32.  The
    result is widened to float64.
    """
    grid = field.grid
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != grid.dims:
        raise ValueError(f"expected points of shape (k, {grid.dims}), got {pts.shape}")
    tol = 1e-9 * (1.0 + np.abs(grid.hi - grid.lo))
    if np.any(pts < grid.lo - tol) or np.any(pts > grid.hi + tol):
        bad = np.where(np.any((pts < grid.lo - tol) | (pts > grid.hi + tol), axis=1))[0]
        raise ValueError(f"point(s) at rows {bad.tolist()} lie outside the grid bounds")

    base, frac = cell_coordinates(grid, pts)
    frac = frac.astype(dtype)
    values = field.values.astype(dtype, copy=False)
    # Corners in C order, so that neighbours along the last axis pair up.
    corners = [values[tuple(base[:, i] + c for i, c in enumerate(corner))]
               for corner in itertools.product((0, 1), repeat=grid.dims)]
    for axis in reversed(range(grid.dims)):
        f = frac[:, axis]
        g = dtype(1) - f
        corners = [g * a + f * b for a, b in zip(corners[::2], corners[1::2])]
    return corners[0].astype(float)


def interpolate(field: ScalarField, point) -> float:
    """Multilinear interpolation at a single in-bounds point."""
    pt = _vector(point, "point")
    return float(interpolate_many(field, pt[None, :])[0])
