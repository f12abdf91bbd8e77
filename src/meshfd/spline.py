"""Overlapping patch collections connected through shared node values.

A space here is a node set together with patches (influence set, local
function space); a member assigns each patch a coefficient vector such
that any two patches sharing a node take the same value there (the
connection condition).  No partition of the domain is ever formed: the
patches simply overlap, and the nodal-value map ties them together.

The dimension analyzer builds the connection-constraint matrix (one
chained pair per extra membership of a node, so exactly ``m_k - 1`` rows
for a node in ``m_k`` patches) and splits the total dimension into the
kernel and image of the nodal-value map by dense rank computation.  It is
a desk-scale instrument, guarded at 5000 total coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from .errors import (
    AnalysisSizeError,
    ConstructionError,
    ContractError,
    InconsistentSplineError,
    InvalidInputError,
    NotAnInterpolationSetError,
)
from .geometry import InfluenceSet, NodeSet, influences
from .linalg import null_space, numerical_rank
from .ndf import StencilWeights, exactness_defect
from .operators import Operator
from .spaces import (
    KernelSpace,
    PatchSpace,
    PolySpace,
    apply_operator,
    local_interpolate,
    patch_value,
    unisolvency_rank,
)

# Two patch values at a shared node must agree to this relative tolerance.
CONNECTION_RTOL = 1e-9

# Dense rank analysis refuses above this many total patch coefficients.
ANALYSIS_GUARD = 5000


@dataclass(frozen=True, eq=False)
class Patch:
    """One influence set paired with its local space, plus its measured rank."""

    influence: InfluenceSet
    space: PatchSpace
    rank: int
    is_interpolation_set: bool

    @property
    def center(self) -> np.ndarray:
        return self.influence.center

    @property
    def center_node(self) -> int | None:
        return self.influence.center_index

    @property
    def unisolvent(self) -> bool:
        return self.rank == self.space.dim


@dataclass(frozen=True, eq=False)
class OverlapSplineSpace:
    """Node set plus covering patches; every node belongs to at least one patch."""

    nodes: NodeSet
    patches: tuple[Patch, ...]

    def __post_init__(self):
        object.__setattr__(self, "patches", tuple(self.patches))
        uncovered = [k for k, ms in enumerate(self.memberships) if not ms]
        if uncovered:
            raise ConstructionError(f"nodes not covered by any patch: {uncovered[:10]}")

    @cached_property
    def memberships(self) -> tuple[tuple[int, ...], ...]:
        """For each node, the (ascending) patch indices containing it."""
        ms: list[list[int]] = [[] for _ in range(self.nodes.n)]
        for pi, patch in enumerate(self.patches):
            for k in patch.influence.indices:
                ms[int(k)].append(pi)
        return tuple(tuple(m) for m in ms)

    @property
    def m(self) -> int:
        return len(self.patches)

    @property
    def coefficient_dim(self) -> int:
        return sum(p.space.dim for p in self.patches)

    @property
    def interpolatory(self) -> bool:
        return all(p.is_interpolation_set for p in self.patches)

    @property
    def failing_patches(self) -> tuple[int, ...]:
        """Indices of patches whose node set is not an interpolation set."""
        return tuple(i for i, p in enumerate(self.patches) if not p.is_interpolation_set)


@dataclass(frozen=True, eq=False)
class OverlapSpline:
    """A member of an overlap-spline space: one coefficient vector per patch."""

    space: OverlapSplineSpace
    patch_coeffs: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.patch_coeffs) != self.space.m:
            raise InvalidInputError("one coefficient vector per patch is required")
        coeffs = tuple(np.asarray(c, dtype=float).reshape(-1) for c in self.patch_coeffs)
        for c, p in zip(coeffs, self.space.patches):
            if c.shape[0] != p.space.dim:
                raise InvalidInputError("coefficient length does not match the patch dimension")
        object.__setattr__(self, "patch_coeffs", coeffs)

    def patch_eval(self, i: int, x):
        return patch_value(self.space.patches[i].space, self.patch_coeffs[i], x)


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
    return np.atleast_2d(np.asarray(arr, dtype=float)), None


def build_space(
    nodes: NodeSet,
    centers,
    selector,
    recipe,
    uncovered: str = "error",
) -> OverlapSplineSpace:
    """Assemble an overlap-spline space from centers, a selector, and a space recipe.

    ``selector`` is ``("knn", k)`` or ``("range", radius)``; ``recipe`` maps
    an influence set to a patch space.  Patches failing the interpolation-set
    test are kept and reported through ``failing_patches`` rather than
    rejected.  Nodes covered by no patch abort the construction unless
    ``uncovered="constant-patch"``, which completes the cover with
    single-node constant patches (the natural carriers of Dirichlet rows).
    """
    patches: list[Patch] = []
    points, indices = _resolve_centers(nodes, centers)
    for infl in influences(nodes, points, selector, center_indices=indices):
        if infl.size == 0:
            raise ConstructionError(
                f"selector {selector!r} yields no influence nodes around {infl.center.tolist()}"
            )
        space = recipe(infl)
        rank, iset = unisolvency_rank(space, infl.points)
        patches.append(Patch(influence=infl, space=space, rank=rank, is_interpolation_set=iset))

    covered = np.zeros(nodes.n, dtype=bool)
    for p in patches:
        covered[p.influence.indices] = True
    missing = np.flatnonzero(~covered)
    if missing.size:
        if uncovered == "constant-patch":
            for infl in influences(nodes, None, ("knn", 1), center_indices=missing):
                space = PolySpace.full(nodes.d, 0, shift=infl.center, scale=1.0)
                patches.append(Patch(influence=infl, space=space, rank=1, is_interpolation_set=True))
        elif uncovered == "error":
            raise ConstructionError(f"nodes not covered by any patch: {missing.tolist()[:10]}")
        else:
            raise InvalidInputError(f"unknown uncovered policy {uncovered!r}")
    return OverlapSplineSpace(nodes=nodes, patches=tuple(patches))


def dimension_analysis(space: OverlapSplineSpace, guard: int = ANALYSIS_GUARD) -> DimensionReport:
    """Split the space dimension into kernel and image of the nodal-value map.

    Builds the connection-constraint matrix over all patch coefficients
    (rows: first containing patch minus each subsequent one, per shared
    node), so the total dimension is ``D - rank``; the image dimension is
    the rank of the nodal evaluation map restricted to the constraint null
    space, and the kernel dimension follows by subtraction.
    """
    dims = [p.space.dim for p in space.patches]
    total_coeffs = int(sum(dims))
    if total_coeffs > guard:
        raise AnalysisSizeError(
            f"{total_coeffs} patch coefficients exceed the dense-analysis guard {guard}; "
            "analyze a subsample instead"
        )
    offsets = np.concatenate([[0], np.cumsum(dims)]).astype(int)

    rows: list[np.ndarray] = []
    for k, members in enumerate(space.memberships):
        if len(members) < 2:
            continue
        x = space.nodes.points[k]
        first = members[0]
        first_vals = space.patches[first].space.eval_basis(x)
        for other in members[1:]:
            row = np.zeros(total_coeffs)
            row[offsets[first] : offsets[first + 1]] = first_vals
            row[offsets[other] : offsets[other + 1]] = -space.patches[other].space.eval_basis(x)
            rows.append(row)
    constraints = np.array(rows) if rows else np.zeros((0, total_coeffs))

    dim_total = total_coeffs - numerical_rank(constraints)
    basis = null_space(constraints)

    nodal_map = np.zeros((space.nodes.n, total_coeffs))
    for k, members in enumerate(space.memberships):
        first = members[0]
        nodal_map[k, offsets[first] : offsets[first + 1]] = space.patches[first].space.eval_basis(
            space.nodes.points[k]
        )
    dim_im = numerical_rank(nodal_map @ basis)
    dim_ker = dim_total - dim_im

    lower = space.nodes.n + total_coeffs - sum(p.influence.size for p in space.patches)
    upper = space.nodes.n if all(p.unisolvent for p in space.patches) else None
    return DimensionReport(
        dim_total=int(dim_total),
        dim_ker_T=int(dim_ker),
        dim_im_T=int(dim_im),
        lower_bound=int(lower),
        upper_bound_unisolvent=upper,
        interpolatory=space.interpolatory,
    )


def from_nodal_values(space: OverlapSplineSpace, values) -> OverlapSpline:
    """The unique member taking the given values at the nodes.

    Each patch is the local interpolant of the values on its influence set;
    this parameterization exists exactly when the space is interpolatory.
    """
    values = np.asarray(values, dtype=float).reshape(-1)
    if values.shape[0] != space.nodes.n:
        raise InvalidInputError(f"expected {space.nodes.n} nodal values, got {values.shape[0]}")
    if not space.interpolatory:
        raise ContractError(
            f"space is not interpolatory (failing patches: {space.failing_patches[:10]})"
        )
    coeffs = []
    for patch in space.patches:
        local = values[patch.influence.indices]
        coeffs.append(local_interpolate(patch.space, patch.influence.points, local))
    return OverlapSpline(space=space, patch_coeffs=tuple(coeffs))


def restriction(s: OverlapSpline) -> np.ndarray:
    """Nodal values of an overlap spline; well defined by the connection condition.

    Every containing patch is evaluated at every node and cross-checked, so
    a spline violating the connection condition is rejected here.
    """
    space = s.space
    out = np.empty(space.nodes.n)
    for k, members in enumerate(space.memberships):
        x = space.nodes.points[k]
        v0 = float(s.patch_eval(members[0], x))
        for other in members[1:]:
            v = float(s.patch_eval(other, x))
            if abs(v - v0) > CONNECTION_RTOL * (1.0 + abs(v0)):
                raise InconsistentSplineError(
                    f"patches {members[0]} and {other} disagree at node {k}: {v0!r} vs {v!r}"
                )
        out[k] = v0
    return out


def connection_defect(s: OverlapSpline) -> float:
    """Largest normalized patch disagreement over all shared nodes."""
    space = s.space
    worst = 0.0
    for k, members in enumerate(space.memberships):
        if len(members) < 2:
            continue
        x = space.nodes.points[k]
        vals = [float(s.patch_eval(i, x)) for i in members]
        v0 = vals[0]
        for v in vals[1:]:
            worst = max(worst, abs(v - v0) / (1.0 + abs(v0)))
    return worst


def lagrange_row(space: OverlapSplineSpace, patch_index: int, op: Operator, y) -> StencilWeights:
    """Operator applied to one patch's cardinal (Lagrange) functions at a point.

    Entry k of the row is ``L l_k(y)`` where ``l_k`` is the unique patch
    element taking value 1 at influence node k and 0 at the others; the row
    is supported on the patch's influence set only.  Polynomial patches
    invert the basis evaluation matrix; kernel patches obtain all cardinal
    coefficients from the saddle factorization with unit data blocks.
    """
    patch = space.patches[patch_index]
    if not patch.is_interpolation_set:
        raise NotAnInterpolationSetError(
            f"patch {patch_index} is not an interpolation-set pairing "
            f"(rank {patch.rank}, dim {patch.space.dim}, nodes {patch.influence.size})",
            rank=patch.rank, dim=patch.space.dim, n_nodes=patch.influence.size,
        )
    y = np.asarray(y, dtype=float).reshape(-1)
    coords = patch.influence.points
    ps = patch.space

    singular = NotAnInterpolationSetError(
        f"singular local system on patch {patch_index}",
        rank=patch.rank, dim=patch.space.dim, n_nodes=patch.influence.size,
    )

    if isinstance(ps, KernelSpace):
        rhs = np.vstack([np.eye(ps.n), np.zeros((ps.q_dim, ps.n))])
        try:
            cardinal = scipy.linalg.lu_solve(ps.saddle_lu, rhs)
        except (np.linalg.LinAlgError, ValueError):
            raise singular from None
        if not np.all(np.isfinite(cardinal)):  # lu_factor only warns on a zero pivot
            raise singular
        op_kernel = ps.translate_operator(op, y)
        op_tail = apply_operator(ps.aug, op, y) if ps.aug is not None else np.zeros(0)
        w = np.concatenate([op_kernel, op_tail]) @ cardinal
        e = np.atleast_2d(ps.eval_basis(coords))
        t = apply_operator(ps, op, y)
        residual = exactness_defect(w, e, t)
        return StencilWeights(point=y, influence=patch.influence, weights=w, residual=residual)

    e = np.atleast_2d(ps.eval_basis(coords))
    try:
        cardinal = np.linalg.solve(e, np.eye(e.shape[0]))
    except np.linalg.LinAlgError:
        raise singular from None
    if not np.all(np.isfinite(cardinal)):
        raise singular
    t = apply_operator(ps, op, y)
    w = t @ cardinal
    residual = exactness_defect(w, e, t)
    return StencilWeights(point=y, influence=patch.influence, weights=w, residual=residual)
