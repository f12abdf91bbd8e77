"""Overlapping patch collections connected through shared node values.

A space here is a node set together with patches (influence set, local
function space); a member assigns each patch a coefficient vector such
that any two patches sharing a node take the same value there (the
connection condition).  No partition of the domain is ever formed: the
patches simply overlap, and the nodal-value map ties them together.

A space holds its patches as one `spaces.PatchTable`, the one patch
representation, filled by `build_space` in array operations or from
hand-made pairs by `PatchTable.of_pairs`; ``space.patches`` are `Patch`
views built on first access, whose ranks are those of the rank pass.  A
space checks its influence sets against its nodes and their cover.  The
table is grouped once, through `spaces.stack_spaces`, into stacked
evaluators of equally shaped patches, walked in chunks by
`spaces.walk_stack` for the patch ranks (one batched SVD each), the fits of
`from_nodal_values` (one stacked nodal solve each) and
`OverlapSpline.eval_pairs`, "patch ``p[j]`` at point ``x[j]``" for any set
of pairs: each group's coefficients are collapsed once into kernel weights
and tail coefficients (`StackedBasis.collapse`), and a pair's value is its
kernel translates and tail monomials summed against them
(`StackedBasis.values`), with no basis block formed.  `restriction`
evaluates every membership of the `incidence` table (built on first use) in
one such call, as does the connection-defect oracle (`connection_defect` in
`tests/helpers.py`), and partition-of-unity blending (`meshfd.pum`)
evaluates every (point, covering patch) pair in one.  Cardinal rows
(`lagrange_row`) are one-row calls of the stencil engine's nodal solve.

The dimension analyzer takes the patch ranks r_i from the batched SVDs of
`failing_patches`: the nodal-value map T has ``dim ker T = sum(dim P_i - r_i)``
and ``dim im T = N - rank C``, C the patches' left-null vectors (guarded).
"""

from __future__ import annotations

import logging
import weakref
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    AnalysisSizeError,
    ConstructionError,
    ContractError,
    InconsistentSplineError,
    InvalidInputError,
    NotAnInterpolationSetError,
)
from .geometry import InfluenceSet, NodeSet, _floats, influences
from .linalg import numerical_rank, singular_rank, stacked_solve
from .ndf import CHUNK_ROWS, StencilWeights, one_row
from .operators import Operator
from .spaces import PatchSpace, PatchTable, Recipe, poly_patch_recipe, stack_spaces, walk_stack

# Residual tolerance for a successful local interpolation solve.
INTERPOLATION_RTOL = 1e-9

# Two patch values at a shared node must agree to this relative tolerance.
CONNECTION_RTOL = 1e-9

# Dimension analysis refuses a left-null block C with more rows or columns than this.
ANALYSIS_GUARD = 5000

# Pairs per stacked value pass in `OverlapSpline.eval_pairs`; bounds its largest
# temporaries, the (pair, centre, coordinate) displacements.
EVAL_CHUNK_PAIRS = 1024

_log = logging.getLogger(__name__)


@dataclass(frozen=True, eq=False)
class Patch:
    """Row ``row`` of a space's table: its influence set, local space and ranks (the space's `_ranks`).

    ``owner`` is a weak proxy of the space, which holds its views: a strong reference would close a cycle."""

    influence: InfluenceSet
    space: PatchSpace
    owner: OverlapSplineSpace
    row: int

    @property
    def rank(self) -> int:
        """Numerical rank of the nodal matrix E_i, from the owner's `_rank_pass` (run on first use)."""
        return int(self.owner._ranks[0][self.row])

    @property
    def is_interpolation_set(self) -> bool:
        return self.unisolvent and self.influence.size == self.rank

    @property
    def center(self) -> np.ndarray:
        return self.influence.center

    @property
    def center_node(self) -> int | None:
        return self.influence.center_index

    @property
    def unisolvent(self) -> bool:
        rank, dim = self.owner._ranks
        return bool(rank[self.row] == dim[self.row])


def _uncovered(n: int, member_nodes) -> np.ndarray:
    """Nodes among 0..n-1 that appear in no membership."""
    return np.flatnonzero(np.bincount(member_nodes, minlength=n) == 0)


class OverlapSplineSpace:
    """Node set plus covering patches held as one `PatchTable`; `incidence` is the one membership table.

    ``spaces(i, influence)`` is row i's local space on its influence set, for
    the `patches` views only.  Every set must name nodes at their own
    coordinates, and the sets must cover the nodes.
    """

    def __init__(self, nodes: NodeSet, table: PatchTable, spaces):
        infl = table.influence
        bad, where = np.flatnonzero((infl.indices < 0) | (infl.indices >= nodes.n)), f"outside the {nodes.n} nodes"
        if not bad.size:
            at = np.take(nodes.points, infl.indices, axis=0)
            if at.shape != infl.points.shape:
                raise InvalidInputError(f"influence points of shape {infl.points.shape} for {nodes.d}-D nodes")
            bad, where = np.flatnonzero(at != infl.points) // nodes.d, "off its coordinates"  # membership of each entry
        if bad.size:
            patch = np.searchsorted(infl.offsets, bad[0], side="right") - 1
            raise InvalidInputError(f"patch {patch} references node {infl.indices[bad[0]]} {where}")
        missing = _uncovered(nodes.n, infl.indices)
        if missing.size:
            raise ConstructionError(f"nodes not covered by any patch: {missing.tolist()[:10]}")
        self.nodes, self.table, self._spaces = nodes, table, spaces

    @cached_property
    def patches(self) -> tuple[Patch, ...]:
        """One `Patch` view per table row, its space ``spaces(row, influence set)``."""
        sets = map(self.table.influence.__getitem__, range(self.m))
        return tuple(Patch(infl, self._spaces(i, infl), weakref.proxy(self), i) for i, infl in enumerate(sets))

    @cached_property
    def incidence(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every membership as arrays ``(node, patch, flat)``, sorted by (node, patch); built on first use.

        ``flat`` indexes the patch-by-patch concatenation of the influence sets,
        so a stable sort by node alone keeps each node's patches ascending.
        """
        node = self.table.influence.indices
        flat = np.argsort(node, kind="stable")
        return node[flat], np.repeat(np.arange(self.m), self.table.influence.sizes)[flat], flat

    @property
    def m(self) -> int:
        return len(self.table.influence.centers)

    @cached_property
    def _stacks(self) -> tuple[list, np.ndarray, np.ndarray]:
        """Every patch stacked by `spaces.stack_spaces`: the groups, and each patch's group and slot."""
        return stack_spaces(self.table, np.arange(self.m))

    @property
    def interpolatory(self) -> bool:
        return not self.failing_patches

    @cached_property
    def _ranks(self) -> tuple[np.ndarray, np.ndarray]:
        """Each patch's rank and dimension from `_rank_pass`, which judge `failing_patches`."""
        return _rank_pass(self)[:2]

    @cached_property
    def failing_patches(self) -> tuple[int, ...]:
        """Patches whose nodal matrix is not square and of full rank, from `_rank_pass`."""
        rank, dim = self._ranks
        return tuple(np.flatnonzero((rank != dim) | (self.table.influence.sizes != dim)).tolist())


def _rank_pass(space: OverlapSplineSpace, left_null: bool = False) -> tuple[np.ndarray, np.ndarray, list]:
    """Each patch's rank r_i of its nodal matrix E_i and its dimension: one batched SVD per `CHUNK_ROWS` chunk.

    With ``left_null``, also the blocks of C: the left-null vectors of E_i
    (columns of U past r_i) of each patch with |X_i| > r_i, one row each,
    beside the node columns they belong in.
    """
    rank, dim, null = np.zeros(space.m, dtype=np.intp), np.zeros(space.m, dtype=np.intp), []
    for patches, _, basis, rows in walk_stack(space._stacks, CHUNK_ROWS):
        dim[patches], size = basis.dim, basis.centers.shape[1]
        svd = np.linalg.svd(basis.evaluate(None, rows=rows), compute_uv=left_null)
        sv = svd.S if left_null else svd
        rank[patches] = r = singular_rank(sv)
        if left_null:
            for k in np.unique(r[r < size]):  # U (R, |X_i|, |X_i|), full
                null.append((np.swapaxes(svd.U[r == k, :, k:], 1, 2).reshape(-1, size),
                             np.repeat(basis.indices[rows][r == k], size - k, axis=0)))
    return rank, dim, null


@dataclass(frozen=True, eq=False)
class OverlapSpline:
    """A member of an overlap-spline space: one coefficient vector per patch."""

    space: OverlapSplineSpace
    patch_coeffs: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.patch_coeffs) != self.space.m:
            raise InvalidInputError("one coefficient vector per patch is required")
        coeffs = tuple(np.array(c, dtype=float).reshape(-1) for c in self.patch_coeffs)
        groups, group_of, _ = self.space._stacks
        for c, dim in zip(coeffs, np.array([basis.dim for _, basis in groups])[group_of]):
            if c.shape[0] != dim:
                raise InvalidInputError("coefficient length does not match the patch dimension")
            c.setflags(write=False)  # private read-only copies: `_coeffs` stacks and collapses them once
        object.__setattr__(self, "patch_coeffs", coeffs)

    @cached_property
    def _coeffs(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Coefficients stacked like the space's evaluator groups and collapsed (`StackedBasis.collapse`)."""
        return tuple(basis.collapse(np.stack([self.patch_coeffs[i] for i in rows]))
                     for rows, basis in self.space._stacks[0])

    def eval_pairs(self, patches, points) -> np.ndarray:
        """Value of patch ``patches[j]`` at ``points[j]`` for every j, from the collapsed coefficients."""
        patches, d = self.space.table.ids(patches), self.space.nodes.d
        points = np.asarray(points, dtype=float)
        if points.shape != (patches.size, d):
            raise InvalidInputError(f"expected points of shape ({patches.size}, {d}), got {points.shape}")
        return self._eval_pairs(patches, points)

    def _eval_pairs(self, patches, points) -> np.ndarray:
        """`eval_pairs` of checked pairs (intp patches, float (n, d) points), as `restriction` and PUM build them."""
        out = np.empty(patches.size)
        for pairs, g, basis, at in walk_stack(self.space._stacks, EVAL_CHUNK_PAIRS, patches):
            out[pairs] = basis.values(points.take(pairs, axis=0), *self._coeffs[g], rows=at)
        return out


@dataclass(frozen=True)
class DimensionReport:
    """Rank-based dimension split of an overlap-spline space."""

    dim_total: int
    dim_ker_T: int
    dim_im_T: int
    lower_bound: int
    upper_bound_unisolvent: int | None
    interpolatory: bool


def _resolve_centers(nodes: NodeSet, centers):
    """Accept 'interior' / 'all', node indices, or raw points; return (points, indices)."""
    if isinstance(centers, str):
        if centers == "interior":
            return None, nodes.interior_indices
        if centers == "all":
            return None, np.arange(nodes.n)
        raise InvalidInputError(f"unknown center selector {centers!r}")
    arr = np.asarray(centers)
    if arr.ndim == 1 and arr.dtype.kind in "iu":
        return None, arr
    return np.atleast_2d(_floats(centers, "center points")), None


def build_space(
    nodes: NodeSet,
    centers,
    selector,
    recipe,
    uncovered: str = "error",
) -> OverlapSplineSpace:
    """Assemble an overlap-spline space from centers, a selector, and a space recipe.

    ``selector`` is ``("knn", k)`` or ``("range", radius)``; ``recipe`` fills
    the patch table's space columns for all influence sets at once, so no
    per-patch object is built.  Patches failing the interpolation-set test
    are kept, not rejected, and reported through ``failing_patches`` and one
    INFO record on the ``meshfd.spline`` logger (ranks are measured for it
    only when INFO is enabled there).  Nodes covered by no patch abort the
    construction unless ``uncovered="constant-patch"``, which completes the
    cover with ``poly_patch_recipe(0)`` on the missing nodes' kNN-1 sets
    (the natural carriers of Dirichlet rows).
    """
    if uncovered not in ("error", "constant-patch"):
        raise InvalidInputError(f"unknown uncovered policy {uncovered!r}")
    if not isinstance(recipe, Recipe):
        raise InvalidInputError("recipe must be a spaces.Recipe; hand-made patches go through PatchTable.of_pairs")
    points, indices = _resolve_centers(nodes, centers)
    table = influences(nodes, points, selector, center_indices=indices)
    empty = np.flatnonzero(table.sizes == 0)
    if empty.size:
        raise ConstructionError(
            f"selector {selector!r} yields no influence nodes around {table.centers[empty[0]].tolist()}"
        )
    parts = [(table, recipe)]
    if uncovered == "constant-patch":  # with "error" the space's own coverage check raises
        missing = _uncovered(nodes.n, table.indices)
        parts.append((influences(nodes, None, ("knn", 1), center_indices=missing), poly_patch_recipe(0)))
    recipes, patch_table = [r for _, r in parts], PatchTable.of_recipes(parts)
    space = OverlapSplineSpace(nodes, patch_table, lambda i, infl: recipes[patch_table.shape[i]](infl))
    failing = space.failing_patches if _log.isEnabledFor(logging.INFO) else ()
    if failing:
        _log.info("%d of %d patches are not interpolation sets (first: %s)",
                  len(failing), space.m, list(failing[:10]))
    return space


def dimension_analysis(space: OverlapSplineSpace) -> DimensionReport:
    """Split the space dimension into kernel and image of the nodal-value map T, from per-patch ranks.

    Patch functions vanishing on their own nodes are independent, so ``dim
    ker T = sum(dim P_i - r_i)``; v is in the image iff every v|X_i is in the
    range of E_i, so ``dim im T = N - rank C`` (`_rank_pass`).  C's rank is
    one dense SVD on the columns it touches, refused above `ANALYSIS_GUARD`
    rows or columns.  C is empty on interpolatory spaces, but least-squares-type
    spaces (|X_i| > dim P_i everywhere) give it about N rows: they still refuse.
    """
    rank, dim, null = _rank_pass(space, left_null=True)
    touched = np.unique(np.concatenate([np.zeros(0, dtype=np.intp)] + [k.ravel() for _, k in null]))
    start = np.cumsum([0] + [len(v) for v, _ in null])
    if max(start[-1], touched.size) > ANALYSIS_GUARD:
        raise AnalysisSizeError(f"the left-null block C is {start[-1]} x {touched.size}, above the "
                                f"dense-analysis guard {ANALYSIS_GUARD}; analyze a subsample instead")
    c = np.zeros((start[-1], touched.size))
    for lo, (v, k) in zip(start, null):
        np.put_along_axis(c[lo:lo + len(v)], np.searchsorted(touched, k), v, axis=1)
    dim_ker, dim_im = int(np.sum(dim - rank)), space.nodes.n - numerical_rank(c)
    sizes = space.table.influence.sizes
    return DimensionReport(
        dim_total=dim_ker + dim_im,
        dim_ker_T=dim_ker,
        dim_im_T=dim_im,
        lower_bound=int(space.nodes.n + dim.sum() - sizes.sum()),
        upper_bound_unisolvent=space.nodes.n if np.all(rank == dim) else None,
        interpolatory=bool(np.all((rank == dim) & (sizes == dim))),
    )


def from_nodal_values(space: OverlapSplineSpace, values) -> OverlapSpline:
    """The unique member taking the given values at the nodes.

    Each patch is the local interpolant of the values on its influence set
    (its nodal matrix solved for them); this parameterization exists
    exactly when the space is interpolatory.  Each `spaces.walk_stack`
    chunk of `CHUNK_ROWS` patches, with its nodal matrices and node indices,
    is one stacked nodal solve, and the solve is the one test: a
    non-square group fails all of its patches, a singular or inaccurate one
    fails alone, and failures raise `ContractError` naming the first ten.
    """
    values = np.asarray(values, dtype=float).reshape(-1)
    if values.shape[0] != space.nodes.n:
        raise InvalidInputError(f"expected {space.nodes.n} nodal values, got {values.shape[0]}")
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise InvalidInputError(f"value at node {bad[0]} is not finite: {values[bad[0]]}")
    coeffs, failing = [None] * space.m, []
    for patches, _, basis, rows in walk_stack(space._stacks, CHUNK_ROWS):
        if basis.centers.shape[1] != basis.dim:  # a non-square nodal matrix
            failing.extend(patches.tolist())
            continue
        local = values[basis.indices[rows]]
        e = basis.evaluate(None, rows=rows)
        c, _ = stacked_solve(e, local)
        defect = np.max(np.abs((e @ c[..., None])[..., 0] - local), axis=1)
        good = defect <= INTERPOLATION_RTOL * (1.0 + np.max(np.abs(local), axis=1))
        failing.extend(patches[~good].tolist())
        for i, ci in zip(patches[good], c[good]):
            coeffs[i] = ci
    if failing:
        raise ContractError(f"space is not interpolatory (failing patches: {tuple(sorted(failing)[:10])})")
    return OverlapSpline(space=space, patch_coeffs=tuple(coeffs))


def restriction(s: OverlapSpline) -> np.ndarray:
    """Nodal values of an overlap spline; well defined by the connection condition.

    Every containing patch is evaluated at every node and cross-checked, so
    a spline violating the connection condition, or taking a non-finite
    value at a node, is rejected here.
    """
    node, patch, _ = s.space.incidence
    vals = s._eval_pairs(patch, s.space.nodes.points[node])
    first = np.searchsorted(node, node)  # each membership's first entry at its node
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        j = bad[0]
        raise InconsistentSplineError(f"patch {patch[j]} is not finite at node {node[j]}: {vals[j]}")
    v0 = vals[first]
    off = np.flatnonzero(np.abs(vals - v0) > CONNECTION_RTOL * (1.0 + np.abs(v0)))
    if off.size:
        j = off[0]
        raise InconsistentSplineError(
            f"patches {patch[first[j]]} and {patch[j]} disagree at node {node[j]}: "
            f"{float(v0[j])!r} vs {float(vals[j])!r}"
        )
    return vals[np.unique(first)]


def lagrange_row(space: OverlapSplineSpace, patch_index: int, op: Operator, y) -> StencilWeights:
    """Operator applied to one patch's cardinal (Lagrange) functions at a point.

    Entry k of the row is ``L l_k(y)`` where ``l_k`` is the unique patch
    element taking value 1 at influence node k and 0 at the others; the row
    is supported on the patch's influence set only.  It is the engine's
    nodal solve (`ndf.one_row` on the ``"lagrange"`` route): the patch's
    transposed nodal matrix (its basis at its own nodes), for polynomial and
    kernel patches alike.  A negative ``patch_index`` counts from the end.  A
    patch of `failing_patches` raises with the rank and dimension that failed it.
    """
    patch_index = space.table.index(patch_index)
    if patch_index in space.failing_patches:
        rank, dim, size = (int(a[patch_index]) for a in (*space._ranks, space.table.influence.sizes))
        raise NotAnInterpolationSetError(
            f"patch {patch_index} is not an interpolation-set pairing (rank {rank}, dim {dim}, nodes {size})",
            rank=rank, dim=dim, n_nodes=size)
    return one_row(op, y, space.table, patch_index, "lagrange")
