"""Partition-of-unity blending of patches into a globally defined function.

Each patch gets a compactly supported bump ``(1 - ||x - c_i|| / r_i)^2``
on its ball; Shepard normalization turns the bumps into nonnegative
weights that sum to one wherever at least one ball covers the point.  The
blend of an interpolatory spline reproduces its nodal values because each
ball is kept small enough that the only nodes inside it are the patch's
own influence nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CoverageError, InvalidInputError
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
        if not np.all(radii > 0.0):
            raise InvalidInputError("partition-of-unity radii must be positive")
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "radii", radii)

    @property
    def m(self) -> int:
        return self.centers.shape[0]

    def weights_at(self, x) -> tuple[np.ndarray, np.ndarray]:
        """Indices of covering balls and their Shepard weights at a point."""
        x = np.asarray(x, dtype=float).reshape(-1)
        t = np.linalg.norm(self.centers - x, axis=1) / self.radii
        inside = np.flatnonzero(t < 1.0)
        if inside.size == 0:
            raise CoverageError(f"point {x.tolist()} is covered by no partition ball")
        bump = (1.0 - t[inside]) ** 2
        return inside, bump / bump.sum()

    @classmethod
    def for_space(cls, space: OverlapSplineSpace) -> "PartitionOfUnity":
        """Balls aligned with a space's patches.

        The radius is ``DEFAULT_RADIUS_FACTOR`` times the stencil radius, clipped
        below the nearest node outside the patch so that ball membership
        and influence membership agree (single-node patches use half the
        gap to their nearest neighbor).
        """
        nodes = space.nodes
        centers = np.array([p.center for p in space.patches])
        radii = np.empty(space.m)
        for i, patch in enumerate(space.patches):
            size = patch.influence.size
            stencil_radius = patch.influence.radius
            if size + 1 <= nodes.n:
                dists, _ = nodes.tree.query(patch.center, k=size + 1)
                d_out = float(np.max(dists))
            else:
                d_out = np.inf
            if stencil_radius == 0.0:
                radii[i] = 0.5 * d_out if np.isfinite(d_out) else 1.0
            elif d_out > stencil_radius:
                radii[i] = min(DEFAULT_RADIUS_FACTOR * stencil_radius, 0.5 * (stencil_radius + d_out))
            else:
                radii[i] = DEFAULT_RADIUS_FACTOR * stencil_radius
        return cls(centers=centers, radii=radii)


def blend_disconnected(patch_values, pou: PartitionOfUnity, x) -> float:
    """Weighted average of per-patch local fits; no connection condition assumed.

    ``patch_values`` maps a patch index and a point to the patch value
    there, so any collection of independent local approximations can be
    blended.
    """
    idx, gamma = pou.weights_at(x)
    return float(sum(g * float(patch_values(int(i), x)) for i, g in zip(idx, gamma)))


def blend(s: OverlapSpline, pou: PartitionOfUnity, x) -> float:
    """Globally defined value of an overlap spline at a point."""
    if pou.m != s.space.m:
        raise InvalidInputError("partition balls must align with the spline's patches")
    return blend_disconnected(s.patch_eval, pou, x)
