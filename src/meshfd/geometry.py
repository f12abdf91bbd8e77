"""Node clouds, boundary flags, and neighbor queries.

A point is a plain float array of shape ``(d,)`` and a cloud is an
``(N, d)`` array; node indices are stable after construction.  Dirichlet
nodes are marked explicitly in ``boundary_mask`` (they are never inferred
from the point positions of a scattered cloud).

Neighbor queries run on a kd-tree but their contract is the brute-force
one: results are ordered by exact distance, with exact ties broken by
ascending node index, so that downstream stencils are reproducible.

All neighbor queries go through one batched core, the only place in the
package that breaks distance ties: `influences` chooses and orders influence
sets (`knn` and `range_search` are one-center calls of it), and
`ranked_nearest` picks the rank-r nearest point of a bare cloud, such as
patch centres, which may coincide.  kNN asks a kd-tree for k + 1 neighbors
per center and re-queries a ball only where the (k+1)-th distance ties the
k-th within `_TIE_MARGIN`; range is one batched ball query.  Every ball query
(PUM's cover too) is `_ball_candidates`, padded by that margin, and every
point-to-centre distance is `_distance`.  `_sorted_rows` groups the
candidates by center with one stable sort and orders each center's row by
(exact distance, index), one row-wise sort per row length, so no global
sort runs over all candidates (the same-index sigma fallback of
`solve.build_sigma` orders each node's patches with it too).  The sets come
back as one `InfluenceTable` in CSR form, the influence half of the patch
table (`spaces.PatchTable`) that is the one patch representation of the
package; an `InfluenceSet` is a view of one of its rows, built on request.
"""

from __future__ import annotations

import csv
import itertools
import math
import numbers
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.spatial import cKDTree
from scipy.stats import qmc

from .errors import ConstructionError, InvalidInputError

# Relative slack when re-checking kd-tree candidates against exact distances.
_TIE_MARGIN = 1e-9


def _floats(values, what: str) -> np.ndarray:
    """``values`` as a float array; anything that is not numbers raises instead of a bare ``ValueError``."""
    try:
        return np.asarray(values, dtype=float)
    except (TypeError, ValueError):
        raise InvalidInputError(f"{what} must be numbers, got {values!r}") from None


def _as_bounds(bounds, d):
    """Normalize a box spec to a (d, 2) array and validate it."""
    b = _floats(bounds, "box bounds")
    if b.ndim == 1:
        if b.shape != (2,):
            raise InvalidInputError(f"box bounds must be (lo, hi) pairs, got shape {b.shape}")
        b = np.tile(b, (d, 1))
    if b.shape != (d, 2):
        raise InvalidInputError(f"expected bounds of shape ({d}, 2), got {b.shape}")
    if not np.all(b[:, 1] > b[:, 0]):
        raise InvalidInputError("degenerate box: every axis needs hi > lo")
    return b


def _integer(value, message: str) -> int:
    """An integer argument as an int; a bool, a float or a string raises ``message`` instead of being truncated."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, np.integer)):
        raise InvalidInputError(f"{message}, got {value!r}")
    return int(value)


def _as_point(x, d):
    p = np.asarray(x, dtype=float).reshape(-1)
    if p.shape != (d,):
        raise InvalidInputError(f"expected a point of dimension {d}, got shape {p.shape}")
    return p


@dataclass(frozen=True, eq=False)
class NodeSet:
    """Immutable discretization nodes with boundary flags and a spatial index."""

    points: np.ndarray
    boundary_mask: np.ndarray

    def __post_init__(self):
        pts = np.ascontiguousarray(np.asarray(self.points, dtype=float))
        if pts.ndim != 2 or pts.shape[0] == 0 or pts.shape[1] < 1:
            raise InvalidInputError(f"points must be a nonempty (N, d) array, got shape {pts.shape}")
        bad = np.flatnonzero(~np.isfinite(pts).all(axis=1))
        if bad.size:
            raise InvalidInputError(f"node {bad[0]} is not finite: {pts[bad[0]].tolist()}")
        mask = np.asarray(self.boundary_mask, dtype=bool).reshape(-1)
        if mask.shape[0] != pts.shape[0]:
            raise InvalidInputError("boundary_mask length must match the number of points")
        pts.setflags(write=False)
        mask.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "boundary_mask", mask)
        dup = self.tree.query_pairs(0.0)
        if dup:
            i, j = sorted(dup)[0]
            raise ConstructionError(f"coincident nodes {i} and {j}")

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]

    @cached_property
    def tree(self) -> cKDTree:
        return cKDTree(self.points)

    @cached_property
    def diameter(self) -> float:
        lo = self.points.min(axis=0)
        hi = self.points.max(axis=0)
        return float(np.linalg.norm(hi - lo))

    @property
    def interior_indices(self) -> np.ndarray:
        return np.flatnonzero(~self.boundary_mask)

    @property
    def boundary_indices(self) -> np.ndarray:
        return np.flatnonzero(self.boundary_mask)


@dataclass(frozen=True, eq=False)
class InfluenceSet:
    """Nodes feeding one stencil, ordered by distance from the query center.

    ``indices`` point into the owning NodeSet; exact distance ties are
    resolved by ascending index.  ``center_index`` is set when the query
    center is itself a node.
    """

    center: np.ndarray
    indices: np.ndarray
    distances: np.ndarray
    points: np.ndarray
    center_index: int | None = None

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=int).reshape(-1)
        if len(set(idx.tolist())) != idx.size:
            raise InvalidInputError("influence indices must be distinct")
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float).reshape(-1))
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "distances", np.asarray(self.distances, dtype=float).reshape(-1))
        object.__setattr__(self, "points", np.asarray(self.points, dtype=float))

    @property
    def size(self) -> int:
        return self.indices.size

    @property
    def radius(self) -> float:
        """Largest center-to-member distance (the stencil radius)."""
        return float(self.distances[-1]) if self.distances.size else 0.0


@dataclass(frozen=True, eq=False)
class InfluenceTable:
    """Influence sets of many centers in CSR form.

    Set i holds the nodes ``indices[offsets[i]:offsets[i + 1]]`` with their
    ``distances`` and ``points``, ordered as in an `InfluenceSet`, around
    ``centers[i]``; ``center_index[i]`` is the center's node index, or -1.
    """

    offsets: np.ndarray
    indices: np.ndarray
    distances: np.ndarray
    points: np.ndarray
    centers: np.ndarray
    center_index: np.ndarray

    @cached_property
    def sizes(self) -> np.ndarray:
        return np.diff(self.offsets)

    @cached_property
    def radii(self) -> np.ndarray:
        """Each set's `InfluenceSet.radius`: its last distance, 0 for an empty set."""
        return np.where(self.sizes > 0, np.concatenate([[0.0], self.distances])[self.offsets[1:]], 0.0)

    def __getitem__(self, i) -> InfluenceSet:
        """Set i as an `InfluenceSet` view of the table's arrays."""
        lo, hi, ci = self.offsets[i], self.offsets[i + 1], int(self.center_index[i])
        return InfluenceSet(center=self.centers[i], indices=self.indices[lo:hi],
                            distances=self.distances[lo:hi], points=self.points[lo:hi],
                            center_index=None if ci < 0 else ci)


def _distance(diff) -> np.ndarray:
    """Euclidean length along the last axis, squares summed axis by axis: below 8 axes `np.linalg.norm`'s sum."""
    sq = diff * diff
    r2 = sq[..., 0]
    for k in range(1, sq.shape[-1]):
        r2 = r2 + sq[..., k]
    return np.sqrt(r2)


def _ball_candidates(tree: cKDTree, centers, radii):
    """(center, point) pairs of one ball query, radii padded by `_TIE_MARGIN`; each center's points ascending."""
    balls = tree.query_ball_point(centers, radii * (1.0 + _TIE_MARGIN), return_sorted=True)
    counts = np.fromiter(map(len, balls), dtype=np.intp, count=len(balls))
    cand = np.fromiter(itertools.chain.from_iterable(balls), dtype=np.intp, count=int(counts.sum()))
    return np.arange(len(balls)).repeat(counts), cand


def _knn_candidates(tree: cKDTree, centers, k: int):
    """(owner, point) pairs holding each center's k nearest tree points; ties get a ball re-query."""
    if not 1 <= k <= tree.n:
        raise InvalidInputError(f"k must satisfy 1 <= k <= {tree.n}, got {k}")
    m = centers.shape[0]
    k_tree = min(k + 1, tree.n)
    d_tree, i_tree = tree.query(centers, k=k_tree)
    d_tree, i_tree = d_tree.reshape(m, k_tree), i_tree.reshape(m, k_tree)
    tied = d_tree[:, k] <= d_tree[:, k - 1] * (1.0 + _TIE_MARGIN) if k_tree > k else np.zeros(m, dtype=bool)
    untied = np.flatnonzero(~tied)
    owner, cand = np.repeat(untied, k), i_tree[untied, :k].ravel()
    if untied.size < m:
        rows = np.flatnonzero(tied)
        tied_owner, tied_cand = _ball_candidates(tree, centers[rows], d_tree[rows, k - 1])
        owner, cand = np.concatenate([owner, rows[tied_owner]]), np.concatenate([cand, tied_cand])
    return owner, cand


def _sorted_rows(owner, cand, dist, m: int):
    """CSR offsets of m rows and ``cand``, ``dist`` sorted by (owner, distance, candidate).

    One stable sort groups the triples by owner (the candidate queries emit
    them almost in owner order); one 2-D lexsort per distinct row length then
    orders every row of that length, so no row is padded to the longest (one
    range ball may hold every node).  Candidates within a row are distinct.
    """
    order = owner.argsort(kind="stable")
    offsets = owner[order].searchsorted(np.arange(m + 1))
    starts, sizes = offsets[:-1], offsets[1:] - offsets[:-1]
    for size in set(sizes.tolist()) - {0, 1}:
        at = starts[sizes == size][:, None] + np.arange(size)
        rows = order[at]
        order[at] = rows[np.arange(len(at))[:, None], np.lexsort((cand[rows], dist[rows]), axis=-1)]
    return offsets, cand[order], dist[order]


def ranked_nearest(cloud, points, rank) -> np.ndarray:
    """Index of point i's rank-``rank[i]`` nearest cloud point (0 is the nearest); ``rank`` is an int array.

    Cloud points are ordered by (exact distance, index), as by sorting the
    whole cloud.  The cloud is a bare (n, d) array, not a `NodeSet`, since
    its points may coincide; every rank must be below n.
    """
    owner, cand = _knn_candidates(cKDTree(cloud), points, int(rank.max(initial=0)) + 1)
    offsets, cand, _ = _sorted_rows(owner, cand, _distance(cloud[cand] - points[owner]), len(points))
    return cand[offsets[:-1] + rank]


def influences(ns: NodeSet, centers, selector, center_indices=None) -> InfluenceTable:
    """Influence sets of many centers: the one neighbor query of the package.

    ``centers`` is an (m, d) array of finite points, or None to center on
    the nodes ``center_indices``; when given, ``center_indices`` (one node
    index in ``[0, N)`` per center) is recorded as each set's center index.
    ``selector`` is ``("knn", k)`` with an integer k or ``("range", radius)``
    with a positive finite radius, not a bool.  Members of every set are
    ordered by (exact distance, node index).
    """
    if center_indices is not None:
        center_indices = np.asarray(center_indices, dtype=int).reshape(-1)
        bad = center_indices[(center_indices < 0) | (center_indices >= ns.n)]
        if bad.size:
            raise InvalidInputError(f"center indices must lie in [0, {ns.n}), got {bad[:10]}")
        if centers is None:
            centers = ns.points[center_indices]
    centers = _floats(centers, "center points")
    if centers.ndim != 2 or centers.shape[1] != ns.d:
        raise InvalidInputError("center points must match the node dimension")
    finite = np.isfinite(centers).all(axis=1)
    if not finite.all():
        raise InvalidInputError(f"center {centers[np.argmin(finite)].tolist()} is not finite")
    m = centers.shape[0]

    kind, value = selector
    if kind == "knn":
        k = _integer(value, "knn selector needs an integer k")
        owner, cand = _knn_candidates(ns.tree, centers, k)
    elif kind == "range":
        radius = float(value) if isinstance(value, numbers.Real) and not isinstance(value, bool) else math.nan
        if not (math.isfinite(radius) and radius > 0.0):
            raise InvalidInputError(f"range selector needs a positive finite radius, got {value!r}")
        owner, cand = _ball_candidates(ns.tree, centers, radius)
    else:
        raise InvalidInputError(f"unknown influence selector {kind!r}")

    dist = _distance(ns.points[cand] - centers[owner])
    if kind == "range":
        keep = dist <= radius
        owner, cand, dist = owner[keep], cand[keep], dist[keep]
    offsets, cand, dist = _sorted_rows(owner, cand, dist, m)
    if kind == "knn" and cand.size > k * m:  # a tied center's ball holds more than k candidates: keep k
        keep = np.arange(cand.size) - np.repeat(offsets[:-1], np.diff(offsets)) < k
        cand, dist = cand[keep], dist[keep]
        offsets = np.concatenate([[0], np.cumsum(np.minimum(np.diff(offsets), k))])
    index = np.full(m, -1) if center_indices is None else center_indices
    return InfluenceTable(offsets, cand, dist, ns.points[cand], centers, index)


def knn(ns: NodeSet, center, k: int, center_index: int | None = None) -> InfluenceSet:
    """The k nearest nodes to a center, ties broken by ascending node index."""
    center = _as_point(center, ns.d)
    ci = None if center_index is None else [center_index]
    return influences(ns, center[None, :], ("knn", k), ci)[0]


def range_search(ns: NodeSet, center, radius: float, center_index: int | None = None) -> InfluenceSet:
    """All nodes within ``radius`` of the center (inclusive), distance-ordered.

    An empty result is allowed and returns an empty influence set.
    """
    center = _as_point(center, ns.d)
    ci = None if center_index is None else [center_index]
    return influences(ns, center[None, :], ("range", radius), ci)[0]


def generate_grid(d: int, n_per_axis: int, bounds) -> NodeSet:
    """Uniform tensor grid with boundary flags on the box faces.

    The first axis varies slowest, so in 2D node ``i * n + j`` sits at
    ``(lo1 + i * h1, lo2 + j * h2)``.
    """
    d = _integer(d, "dimension must be an integer")
    if d < 1:
        raise InvalidInputError("dimension must be at least 1")
    n_per_axis = _integer(n_per_axis, "n_per_axis must be an integer")
    if n_per_axis < 2:
        raise InvalidInputError("n_per_axis must be at least 2")
    pts, on_faces = _tensor_grid(_as_bounds(bounds, d), n_per_axis)
    return NodeSet(points=pts, boundary_mask=on_faces)


def _tensor_grid(b, per_axis):
    """Points of a per_axis tensor grid over the box b, and which lie on its faces."""
    axes = [np.linspace(lo, hi, per_axis) for lo, hi in b]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.reshape(-1) for m in mesh], axis=1)
    on_faces = np.any((pts == b[:, 0]) | (pts == b[:, 1]), axis=1)
    return pts, on_faces


def generate_scattered(
    d: int,
    count: int,
    bounds,
    source: str = "halton",
    seed: int = 0,
    boundary_per_side: int | None = None,
) -> NodeSet:
    """Scattered interior nodes plus an explicit boundary layer.

    ``source`` is either ``"halton"`` (low-discrepancy, unscrambled, hence
    seed-independent) or ``"random"`` (seeded generator).  Boundary nodes
    are laid out on a tensor grid of the box faces with ``boundary_per_side``
    points per axis, an integer of at least 2 (default: roughly matching
    the interior density); they carry the Dirichlet flag.  Runs are bitwise
    reproducible for fixed arguments.
    """
    d = _integer(d, "dimension must be an integer")
    if d < 1:
        raise InvalidInputError("dimension must be at least 1")
    count = _integer(count, "count must be an integer")
    if count < 1:
        raise InvalidInputError("count must be at least 1")
    b = _as_bounds(bounds, d)
    if source == "halton":
        eng = qmc.Halton(d=d, scramble=False)
        eng.fast_forward(1)  # index 0 is the box corner
        unit = eng.random(count)
    elif source == "random":
        rng = np.random.default_rng(seed)
        unit = rng.random((count, d))
    else:
        raise InvalidInputError(f"unknown scattered source {source!r}")
    interior = b[:, 0] + unit * (b[:, 1] - b[:, 0])

    if boundary_per_side is None:
        boundary_per_side = max(2, math.ceil(count ** (1.0 / d)))
    boundary_per_side = _integer(boundary_per_side, "boundary_per_side must be an integer")
    if boundary_per_side < 2:
        raise InvalidInputError("boundary_per_side must be at least 2")
    grid, on_faces = _tensor_grid(b, boundary_per_side)
    boundary = grid[on_faces]

    pts = np.vstack([interior, boundary])
    mask = np.zeros(pts.shape[0], dtype=bool)
    mask[count:] = True
    return NodeSet(points=pts, boundary_mask=mask)


def save_nodes(ns: NodeSet, path) -> None:
    """Write a node CSV with header ``x1,...,xd,boundary``; a path that cannot be opened raises `InvalidInputError`."""
    try:
        fh = open(path, "w", newline="")
    except OSError as exc:
        raise InvalidInputError(f"cannot write node file {path}: {exc}") from None
    with fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{a + 1}" for a in range(ns.d)] + ["boundary"])
        for p, flag in zip(ns.points, ns.boundary_mask):
            writer.writerow([repr(float(v)) for v in p] + [int(flag)])


def load_nodes(path) -> NodeSet:
    """Read a node CSV written by `save_nodes`; ragged rows are rejected."""
    if not isinstance(path, (str, os.PathLike)):
        raise InvalidInputError(f"a node file path must be a string, got {path!r}")
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise InvalidInputError(f"cannot read node file {path}: {exc}") from None
    if not rows:
        raise InvalidInputError(f"empty node file {path}")
    header = rows[0]
    if len(header) < 2 or header[-1] != "boundary":
        raise InvalidInputError(f"node file {path} must end with a 'boundary' column")
    d = len(header) - 1
    expected = [f"x{a + 1}" for a in range(d)] + ["boundary"]
    if header != expected:
        raise InvalidInputError(f"node file {path} has header {header}, expected {expected}")
    pts = np.empty((len(rows) - 1, d))
    mask = np.empty(len(rows) - 1, dtype=bool)
    for i, row in enumerate(rows[1:]):
        if len(row) != d + 1:
            raise InvalidInputError(f"ragged row {i + 2} in {path}: {len(row)} fields, expected {d + 1}")
        try:
            pts[i] = [float(v) for v in row[:d]]
        except ValueError:
            raise InvalidInputError(f"row {i + 2} in {path}: coordinates must be numbers, got {row[:d]}") from None
        flag = row[d].strip()
        if flag not in ("0", "1"):
            raise InvalidInputError(f"row {i + 2} in {path}: boundary must be 0 or 1, got {flag!r}")
        mask[i] = flag == "1"
    return NodeSet(points=pts, boundary_mask=mask)
