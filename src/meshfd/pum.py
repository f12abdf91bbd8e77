"""Partition-of-unity blending of patches into a globally defined function.

Each patch gets a compactly supported bump ``(1 - ||x - c_i|| / r_i)^2``
on its ball; Shepard normalization turns the bumps into nonnegative
weights that sum to one wherever at least one ball covers the point.  The
blend of an interpolatory spline reproduces its nodal values because each
ball is kept small enough that the only nodes inside it are the patch's
own influence nodes.

The covering balls come from one ball query on a k-d tree of the centres,
cached on the partition: the package's one padded ball query
(`geometry._ball_candidates`) at the largest radius, whose candidates the
exact ``t < 1`` test then filters, keeping each point's covering balls in
ascending order.  `PartitionOfUnity.evaluate` blends a spline at many points
in array operations: every (point, covering patch) pair is evaluated once
from the spline's coefficients, collapsed once per stack group into kernel
weights and tail coefficients (`OverlapSpline.eval_pairs`), and the weighted
values are summed per point with ``np.bincount``.  `blend` is its one-point
wrapper and `PartitionOfUnity.weights_at` the one-point view of the same
query, through which the per-patch oracle (`blend_disconnected` in
`tests/helpers.py`) blends any per-patch callable.  One path serves a point
and a batch, checked once at the public entry (one all-finite and one
all-covered reduction; the offending row is sought only to name it), and
the cover's pairs go to the spline's unchecked value core; ``BENCH_30.json``
has the per-point cost of one-point `blend` calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.spatial import cKDTree

from .errors import CoverageError, InvalidInputError
from .geometry import _ball_candidates, _distance
from .spline import OverlapSpline, OverlapSplineSpace

DEFAULT_RADIUS_FACTOR = 1.25


@dataclass(frozen=True, eq=False)
class PartitionOfUnity:
    """Shepard-normalized compact bumps on one ball per patch."""

    centers: np.ndarray
    radii: np.ndarray

    def __post_init__(self):
        centers = np.atleast_2d(np.asarray(self.centers, dtype=float))
        radii = np.asarray(self.radii, dtype=float).reshape(-1)
        if radii.shape[0] != centers.shape[0]:
            raise InvalidInputError("one radius per center is required")
        finite = np.isfinite(centers).all(axis=1)
        if not finite.all():
            x = centers[np.argmin(finite)]
            raise InvalidInputError(f"partition-of-unity center {x.tolist()} is not finite")
        if not np.all((radii > 0.0) & (radii < np.inf)):
            raise InvalidInputError("partition-of-unity radii must be positive and finite")
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "radii", radii)

    @property
    def m(self) -> int:
        return self.centers.shape[0]

    @cached_property
    def _query(self) -> tuple[cKDTree, float]:
        """The centres' k-d tree and the query radius, the largest radius."""
        return cKDTree(self.centers), float(self.radii.max())

    def _cover(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every (point, covering ball) pair with its Shepard weight, point-major, balls ascending."""
        tree, reach = self._query
        point, ball = _ball_candidates(tree, points, reach)
        t = _distance(self.centers.take(ball, axis=0) - points.take(point, axis=0)) / self.radii[ball]
        inside = t < 1.0
        point, ball = point.compress(inside), ball.compress(inside)
        bump = (1.0 - t.compress(inside)) ** 2
        total = np.bincount(point, bump, minlength=len(points))  # > 0 exactly where a ball covers
        if not total.all():
            x = points[np.argmin(total > 0.0)]
            raise CoverageError(f"point {x.tolist()} is covered by no partition ball")
        return point, ball, bump / total[point]

    def _points(self, points) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if points.ndim != 2 or points.shape[1] != self.centers.shape[1]:
            raise InvalidInputError(
                f"points must have shape (n, {self.centers.shape[1]}), got {points.shape}")
        if not np.isfinite(points).all():  # the first offending row is sought only to name it
            x = points[np.argmin(np.isfinite(points).all(axis=1))]
            raise InvalidInputError(f"point {x.tolist()} is not finite")
        return points

    def weights_at(self, x) -> tuple[np.ndarray, np.ndarray]:
        """Indices of covering balls (ascending) and their Shepard weights at a point."""
        _, ball, gamma = self._cover(self._points(np.asarray(x, dtype=float).reshape(1, -1)))
        return ball, gamma

    def evaluate(self, s: OverlapSpline, points) -> np.ndarray:
        """Globally defined values of an overlap spline at a batch of points, shape (n,)."""
        if self.m != s.space.m:
            raise InvalidInputError("partition balls must align with the spline's patches")
        points = self._points(points)
        point, ball, gamma = self._cover(points)
        values = np.bincount(point, gamma * s._eval_pairs(ball, points.take(point, axis=0)), minlength=points.shape[0])
        return values.astype(float, copy=False)  # `np.bincount` of no pairs is integer

    @classmethod
    def for_space(cls, space: OverlapSplineSpace) -> "PartitionOfUnity":
        """Balls aligned with a space's patches.

        The radius is ``DEFAULT_RADIUS_FACTOR`` times the stencil radius, clipped
        below the nearest node outside the patch so that ball membership
        and influence membership agree (single-node patches use half the
        gap to their nearest neighbor).
        """
        nodes, infl = space.nodes, space.table.influence
        centers, size, stencil = infl.centers, infl.sizes, infl.radii
        k = min(int(size.max()) + 1, nodes.n)
        dists, _ = nodes.tree.query(centers, k=k)
        # distance to the nearest node outside each patch: its (size + 1)-th neighbor
        nearest_out = dists.reshape(space.m, k)[np.arange(space.m), np.minimum(size, k - 1)]
        d_out = np.where(size + 1 <= nodes.n, nearest_out, np.inf)
        single = np.where(np.isfinite(d_out), 0.5 * d_out, 1.0)
        wide = DEFAULT_RADIUS_FACTOR * stencil
        clipped = np.where(d_out > stencil, np.minimum(wide, 0.5 * (stencil + d_out)), wide)
        return cls(centers=centers, radii=np.where(stencil == 0.0, single, clipped))


def blend(s: OverlapSpline, pou: PartitionOfUnity, x) -> float:
    """Globally defined value of an overlap spline at a point: `PartitionOfUnity.evaluate` at one point."""
    return float(pou.evaluate(s, np.asarray(x, dtype=float).reshape(1, -1))[0])
