"""Local patch spaces: multivariate polynomials and radial kernel spaces.

A patch space exposes a concrete basis that can be evaluated and
differentiated at arbitrary points.  Polynomial bases are monomials in
locally shifted and scaled coordinates ``(x - shift) / scale`` (raw
monomials on a fine stencil are catastrophically ill conditioned), listed
in graded lexicographic order.

Kernel spaces hold radial translates ``K(., x_j)`` around stencil nodes
with an optional polynomial tail.  With a tail ``Q`` the kernel
coefficients are constrained by the moment conditions
``sum_j c_j p(x_j) = 0`` for all ``p in Q``; the concrete basis therefore
consists of moment-constrained kernel combinations plus the tail
polynomials.  Interpolation in either family solves the nodal matrix,
the concrete basis evaluated at the patch's own nodes.

Both families share one evaluation method pair (`eval_basis`,
`eval_basis_derivative`), which checks the derivative multi-index and the
point dimension once; a family supplies only the derivative of its basis
at a batch of checked points.  A polynomial exponent list is checked once
per (dimension, degree, list) and shared by every space built from it.

A collection of patches is one `PatchTable`, filled by the recipes in array
operations (a recipe stays callable on one influence set) or from checked
hand-made pairings.  Its `StackedBasis` groups (`stack_spaces`, split by tail
ranks that one batched Cholesky certifies, with each patch's group and slot;
`walk_stack` walks them in chunks) evaluate many patches at once, so the
basis layout is known here only.  Kernel exactness rows take the translates and
tail monomials (`StackedBasis.blocks`); nodal fits, the rank pass and nodal
stencil rows take the basis (`StackedBasis.evaluate`).  Spline values take
neither: a group's coefficients are folded once into kernel weights and tail
coefficients (`StackedBasis.collapse`), and `StackedBasis.values` sums the
translates and monomials at a point against them.  `evaluate` and `collapse`
are the only readers of the moment-null bases.  An operator reaches a basis
as the table of `operators.Operator.terms`, summed by `blocks` and `evaluate`
for many points and by `apply_operator` for one.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidInputError
from .geometry import InfluenceTable, _distance, _integer
from .linalg import null_space, numerical_rank, stacked_rank
from .operators import Operator

# The tail degree of a kernel recipe that names none.  Every operator of the
# package is at most second order, and a second-order stencil is consistent
# only if it is exact on quadratics.
DEFAULT_TAIL_DEGREE = 2


@functools.lru_cache(maxsize=None)
def monomial_exponents(d: int, degree: int) -> tuple[tuple[int, ...], ...]:
    """Multi-indices of total degree <= degree, graded lexicographic.

    Within one total degree the earlier axes dominate, so for d=2, q=2 the
    order is 1, x1, x2, x1^2, x1*x2, x2^2.
    """
    if d < 1:
        raise InvalidInputError("dimension must be at least 1")
    if degree < 0:
        raise InvalidInputError("degree must be nonnegative")
    alphas = [a for a in itertools.product(range(degree + 1), repeat=d) if sum(a) <= degree]
    alphas.sort(key=lambda a: (sum(a), tuple(-e for e in a)))
    return tuple(alphas)


class _BasisSpace:
    """Evaluation shared by both patch-space families; each supplies `_derivative`."""

    def eval_basis(self, x) -> np.ndarray:
        """Basis values at x; shape (dim,) for a point, (m, dim) for a batch."""
        return self.eval_basis_derivative(x, (0,) * self.d)

    def eval_basis_derivative(self, x, beta) -> np.ndarray:
        """Partial derivative d^beta of each basis function at x."""
        beta = tuple(int(e) for e in beta)
        if len(beta) != self.d or any(e < 0 for e in beta):
            raise InvalidInputError(f"derivative multi-index {beta} does not match dimension {self.d}")
        pts = np.atleast_2d(np.asarray(x, dtype=float))
        if pts.shape[1] != self.d:
            raise InvalidInputError(f"points of dimension {pts.shape[1]} in a {self.d}-dimensional space")
        out = self._derivative(pts, beta)
        return out[0] if np.asarray(x).ndim == 1 else out


@functools.lru_cache(maxsize=None)
def _checked_exponents(d: int, degree: int, exponents) -> tuple[tuple[int, ...], ...]:
    """The exponent list as int tuples, once it is known to list distinct monomials of degree <= degree."""
    exps = tuple(tuple(int(e) for e in a) for a in exponents)
    if len(exps) == 0:
        raise InvalidInputError("a polynomial space needs at least one monomial")
    full = set(monomial_exponents(d, degree))
    for a in exps:
        if a not in full:
            raise InvalidInputError(f"exponent {a} is not a monomial of total degree <= {degree}")
    if len(set(exps)) != len(exps):
        raise InvalidInputError("duplicate monomials in basis list")
    return exps


@dataclass(frozen=True, eq=False)
class PolySpace(_BasisSpace):
    """Monomial span in shifted/scaled coordinates, optionally a sublist."""

    d: int
    degree: int
    shift: np.ndarray
    scale: float
    exponents: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        shift = np.asarray(self.shift, dtype=float).reshape(-1)
        if shift.shape != (self.d,):
            raise InvalidInputError(f"shift must have dimension {self.d}")
        if not self.scale > 0.0:
            raise InvalidInputError("scale must be positive")
        exps = _checked_exponents(self.d, self.degree, tuple(map(tuple, self.exponents)))
        object.__setattr__(self, "shift", shift)
        object.__setattr__(self, "scale", float(self.scale))
        object.__setattr__(self, "exponents", exps)

    @classmethod
    def full(cls, d: int, degree: int, shift=None, scale: float = 1.0) -> "PolySpace":
        shift = np.zeros(d) if shift is None else shift
        return cls(d=d, degree=degree, shift=shift, scale=scale, exponents=monomial_exponents(d, degree))

    @classmethod
    def from_exponents(cls, d: int, exponents, shift=None, scale: float = 1.0) -> "PolySpace":
        exps = tuple(tuple(int(e) for e in a) for a in exponents)
        degree = max((sum(a) for a in exps), default=0)  # an empty list is refused by the exponent check
        shift = np.zeros(d) if shift is None else shift
        return cls(d=d, degree=degree, shift=shift, scale=scale, exponents=exps)

    @property
    def dim(self) -> int:
        return len(self.exponents)

    def _derivative(self, pts, beta) -> np.ndarray:
        return monomial_derivatives((pts - self.shift) / self.scale, self.exponents, beta, self.scale)


@functools.lru_cache(maxsize=None)
def _derivative_plan(exponents, beta) -> tuple:
    """Per monomial: None if d^beta kills it, else (coefficient, ((axis, power), ...))."""
    plan = []
    for alpha in exponents:
        if any(b > a for a, b in zip(alpha, beta)):
            plan.append(None)
            continue
        coef = 1.0
        for a, b in zip(alpha, beta):
            for step in range(b):
                coef *= a - step
        plan.append((coef, tuple((axis, a - b) for axis, (a, b) in enumerate(zip(alpha, beta)) if a - b)))
    return tuple(plan)


def monomial_derivatives(z, exponents, beta, scale=1.0) -> np.ndarray:
    """d^beta of every monomial z^alpha, for local coordinates z = (x - shift) / scale.

    ``z`` has shape (..., d) and the result (..., len(exponents)); the chain
    rule factor ``scale**-|beta|`` is included.  ``scale`` is a float or an
    array broadcasting against ``z.shape[:-1]`` (one scale per stencil).
    """
    rescale = 1.0
    for _ in range(sum(beta)):
        rescale = rescale / scale
    out = np.zeros(z.shape[:-1] + (len(exponents),))  # a monomial that d^beta kills stays +0.0
    for k, term in enumerate(_derivative_plan(exponents, beta)):
        if term is not None:
            coef, factors = term
            col = coef * rescale
            for axis, power in factors:  # a factor 1.0 or a power 1 would change no bit
                factor = z[..., axis] if power == 1 else z[..., axis] ** power
                col = factor if isinstance(col, float) and col == 1.0 else col * factor
            out[..., k] = col
    return out


@dataclass(frozen=True)
class Kernel:
    """Radial kernel K(x, y) = phi(||x - y||): Gauss or polyharmonic.

    Gauss phi(r) = exp(-(eps r)^2) is positive definite (order 0); the
    polyharmonic phi(r) = r^alpha, alpha > 0 and not an even integer, is
    conditionally positive definite of order floor(alpha/2) + 1.
    """

    family: str
    param: float

    def __post_init__(self):
        if self.family not in ("gauss", "polyharmonic"):
            raise InvalidInputError(f"unknown kernel family {self.family!r}")
        if isinstance(self.param, bool) or not isinstance(self.param, numbers.Real):
            raise InvalidInputError(f"kernel parameter must be a number, got {self.param!r}")
        p = float(self.param)
        if not (math.isfinite(p) and p > 0.0):
            raise InvalidInputError(f"kernel parameter must be finite and positive, got {p}")
        if self.family == "polyharmonic" and p == int(p) and int(p) % 2 == 0:
            raise InvalidInputError("polyharmonic exponent must not be an even integer")
        object.__setattr__(self, "param", p)

    @property
    def cpd_order(self) -> int:
        if self.family == "gauss":
            return 0
        return int(math.floor(self.param / 2.0)) + 1

    def norm(self, scale: float) -> float:
        """Multiplier of the kernel values of a space of this scale: ``scale**(-alpha)``, or 1 for Gauss."""
        return scale ** (-self.param) if self.family == "polyharmonic" else 1.0

    def phi(self, r):
        r = np.asarray(r, dtype=float)
        if self.family == "gauss":
            return np.exp(-((self.param * r) ** 2))
        return r**self.param

    def dphi_over_r(self, r):
        """phi'(r)/r, evaluated only at r > 0 by callers that mask zeros."""
        r = np.asarray(r, dtype=float)
        if self.family == "gauss":
            return -2.0 * self.param**2 * np.exp(-((self.param * r) ** 2))
        return self.param * r ** (self.param - 2.0)

    def d2phi(self, r):
        r = np.asarray(r, dtype=float)
        if self.family == "gauss":
            e2 = self.param**2
            return (4.0 * e2**2 * r**2 - 2.0 * e2) * np.exp(-(e2 * r**2))
        return self.param * (self.param - 1.0) * r ** (self.param - 2.0)

    def gradient_limit_at_zero(self) -> float:
        if self.family == "gauss" or self.param > 1.0:
            return 0.0
        raise InvalidInputError(
            f"first derivative of r^{self.param} is undefined at a kernel center"
        )

    def second_derivative_limit_at_zero(self) -> float:
        """Limit of any second partial's radial factor at r = 0 (diagonal term)."""
        if self.family == "gauss":
            return -2.0 * self.param**2
        if self.param > 2.0:
            return 0.0
        raise InvalidInputError(
            f"second derivative of r^{self.param} is undefined at a kernel center"
        )


def kernel_derivative(kernel: Kernel, diff, beta) -> np.ndarray:
    """d^beta_x K(x, c) at displacements ``diff = x - c`` of shape (..., d), |beta| <= 2.

    Returns shape ``diff.shape[:-1]``; zero displacements take the kernel's
    limits at its center.
    """
    return next(_kernel_derivatives(kernel, diff, (beta,)))


def _kernel_derivatives(kernel: Kernel, diff, betas):
    """`kernel_derivative` of each multi-index of ``betas`` in turn; r, its zero mask and radial factors once."""
    axes = [[a for a, e in enumerate(beta) for _ in range(int(e))] for beta in betas]
    top = max(map(len, axes), default=0)
    if top > 2:
        raise InvalidInputError("kernel derivatives are provided up to order 2")
    r = _distance(diff)
    if top:
        zero = r == 0.0
        rs = np.where(zero, 1.0, r)
        g1r, at_center = kernel.dphi_over_r(rs), zero.any()
    if top == 2:
        bend = kernel.d2phi(rs) - g1r
        unit = {a: diff[..., a] / rs for a in set(itertools.chain(*axes))}
    for ax in axes:
        if not ax:
            yield kernel.phi(r)
        elif len(ax) == 1:
            out = g1r * diff[..., ax[0]]
            yield np.where(zero, kernel.gradient_limit_at_zero(), out) if at_center else out
        else:
            a, b = ax
            out = bend * unit[a] * unit[b]
            if a == b:
                out = out + g1r
            if at_center:
                out = np.where(zero, kernel.second_derivative_limit_at_zero() if a == b else 0.0, out)
            yield out


@dataclass(frozen=True, eq=False)
class KernelSpace(_BasisSpace):
    """Kernel translates on stencil nodes plus an optional polynomial tail.

    ``aug`` is the tail space Q (or None for Q = {0}); its basis doubles as
    the moment-constraint block.  The concrete basis has dimension
    ``(n - rank P) + dim Q``, which equals n exactly when the centers are
    unisolvent for Q.

    ``scale`` rescales homogeneous (polyharmonic) kernel values by
    ``scale**(-alpha)``, which leaves the span and every differentiation
    weight unchanged but equilibrates the kernel columns against the O(1)
    tail columns.
    """

    kernel: Kernel
    centers: np.ndarray
    aug: PolySpace | None = None
    scale: float = 1.0

    def __post_init__(self):
        centers = np.atleast_2d(np.asarray(self.centers, dtype=float))
        if centers.shape[0] == 0:
            raise InvalidInputError("a kernel space needs at least one center")
        if self.aug is not None and self.aug.d != centers.shape[1]:
            raise InvalidInputError("tail polynomial dimension does not match centers")
        if not self.scale > 0.0:
            raise InvalidInputError("kernel scale must be positive")
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "scale", float(self.scale))

    @property
    def kernel_norm(self) -> float:
        """Multiplier applied to all kernel values; 1 unless the kernel is homogeneous."""
        return self.kernel.norm(self.scale)

    @property
    def n(self) -> int:
        return self.centers.shape[0]

    @property
    def d(self) -> int:
        return self.centers.shape[1]

    @property
    def q_dim(self) -> int:
        return 0 if self.aug is None else self.aug.dim

    @cached_property
    def moment_null(self) -> np.ndarray:
        """Orthonormal basis of {c : P^T c = 0}, P the tail at the centers: the admissible coefficients."""
        p = np.zeros((self.n, 0)) if self.aug is None else self.aug.eval_basis(self.centers)
        return null_space(p.T)

    @property
    def dim(self) -> int:
        return self.moment_null.shape[1] + self.q_dim

    def _derivative(self, pts, beta) -> np.ndarray:
        kvals = kernel_derivative(self.kernel, pts[:, None, :] - self.centers[None, :, :], beta)
        out = self.kernel_norm * kvals @ self.moment_null
        if self.aug is not None:
            out = np.hstack([out, self.aug._derivative(pts, beta)])
        return out


PatchSpace = PolySpace | KernelSpace


def _derivative_sum(terms, coef, shape) -> np.ndarray:
    """The one derivative of ``terms``, or with ``coef`` (R, K) the operator's sum of its K terms, in order."""
    if coef is None:
        (term,) = terms
        return term
    out = np.zeros(shape)
    for k, term in enumerate(terms):
        out = out + coef[:, k, None, None] * term
    return out


@functools.lru_cache(maxsize=None)
def _pair_table(s: int) -> tuple:
    """The pairs i < j of ``s`` nodes, and for each entry of an (s, s) matrix its pair's index (read-only).

    The diagonal's index is the number of pairs: one past the last pair.
    """
    upper = np.triu_indices(s, 1)
    pair = np.full((s, s), upper[0].size)
    pair[upper] = pair[upper[::-1]] = np.arange(upper[0].size)
    for table in (*upper, pair):
        table.flags.writeable = False
    return upper, pair


@dataclass(frozen=True, eq=False)
class StackedBasis:
    """Patches of one shape and one dimension, stacked along a leading axis by `stack_spaces`.

    ``centers`` (g, s, d) are the stencil nodes, ``indices`` (g, s) their
    node indices.  Kernel part: ``norm`` (g,) and ``tail_rank``, the rank of
    every tail at the nodes.  Polynomial part (a tail or a `PolySpace`):
    ``exponents``, ``shift`` (g, d), ``scale`` (g,) and ``tail_at_centers``
    (g, s, q), its values at the stencil nodes.  The moment-null bases
    ``null`` are computed on first access: only `evaluate` and `collapse` read them.
    """

    kernel: Kernel | None
    centers: np.ndarray
    indices: np.ndarray
    norm: np.ndarray
    exponents: tuple[tuple[int, ...], ...]
    shift: np.ndarray
    scale: np.ndarray
    tail_at_centers: np.ndarray
    tail_rank: int

    @property
    def dim(self) -> int:
        return (0 if self.kernel is None else self.centers.shape[1]) - self.tail_rank + len(self.exponents)

    @cached_property
    def null(self) -> np.ndarray | None:
        """Moment-null bases (g, s, s - tail_rank) from one stacked `linalg.null_space`; None without a kernel tail."""
        if self.kernel is None or not self.exponents:
            return None
        return null_space(np.swapaxes(self.tail_at_centers, 1, 2), self.tail_rank)

    def blocks(self, points, betas=None, coef=None, rows=slice(None)) -> tuple:
        """Scaled kernel translates (R, m, s), None without a kernel, and tail monomials (R, m, q).

        ``points`` (R, m, d) belong to the stacked patches ``rows``; None means
        the values at their stencil nodes, whose translate matrix is evaluated
        once per node pair and mirrored, and whose tail block is stacked.
        ``betas`` is one derivative multi-index (default: values) or, with
        ``coef`` (R, len(betas)), an operator's terms to sum, sharing one r and its radial factors.
        """
        centers = self.centers[rows]
        if points is None:
            translates = None if self.kernel is None else self._nodal_translates(centers, self.norm[rows])
            return translates, self.tail_at_centers[rows]
        betas = [(0,) * points.shape[2]] if betas is None else betas
        translates = None
        if self.kernel is not None:
            diff = points[:, :, None, :] - centers[:, None, :, :]  # once for all of the operator's terms
            translates = self.norm[rows][:, None, None] * _derivative_sum(
                _kernel_derivatives(self.kernel, diff, betas), coef, points.shape[:2] + centers.shape[1:2])
        scale = self.scale[rows]
        z = (points - self.shift[rows][:, None, :]) / scale[:, None, None]
        tail = _derivative_sum((monomial_derivatives(z, self.exponents, beta, scale[:, None]) for beta in betas),
                               coef, points.shape[:2] + (len(self.exponents),))
        return translates, tail

    def _nodal_translates(self, centers, norm) -> np.ndarray:
        """``norm * K(x_i, x_j)`` (R, s, s), one `np.take` from the values of the pairs i < j and ``phi(0)``."""
        upper, pair = _pair_table(centers.shape[1])
        values = np.empty((centers.shape[0], upper[0].size + 1))
        values[:, :-1] = kernel_derivative(self.kernel, np.take(centers, upper[0], axis=1)
                                           - np.take(centers, upper[1], axis=1), (0,) * centers.shape[2])
        values[:, -1] = self.kernel.phi(np.zeros(1))
        values *= norm[:, None]
        return np.take(values, pair, axis=1)

    def evaluate(self, points, betas=None, coef=None, rows=slice(None)) -> np.ndarray:
        """The basis (R, m, dim) built from `blocks`: translates times the moment-null bases, then the tail."""
        translates, tail = self.blocks(points, betas, coef, rows)
        if translates is None:
            return tail
        null = self.null
        return translates if null is None else np.concatenate([translates @ null[rows], tail], axis=2)

    def collapse(self, coeffs) -> tuple[np.ndarray, np.ndarray]:
        """Coefficients (g, dim) folded into the blocks: kernel weights ``norm * null @ c`` (g, s), tail (g, q).

        A polynomial group has empty (g, 0) kernel weights, a tail-free kernel group an empty (g, 0) tail.
        """
        split = coeffs.shape[1] - len(self.exponents)
        kernel = coeffs[:, :split] if self.null is None else (self.null @ coeffs[:, :split, None])[..., 0]
        return self.norm[:, None] * kernel, np.ascontiguousarray(coeffs[:, split:])  # `values` gathers rows

    def values(self, points, weights, tail, rows) -> np.ndarray:
        """``sum_j w_j K(x, c_j) + sum_k a_k z^alpha_k`` at one point (R, d) per stacked patch ``rows``, (R,).

        ``weights`` and ``tail`` are a whole group's `collapse`; no basis block is formed (rows gathered by `take`).
        """
        value = (0,) * points.shape[1]
        z = (points - self.shift.take(rows, axis=0)) / self.scale[rows][:, None]
        out = (monomial_derivatives(z, self.exponents, value) * tail.take(rows, axis=0)).sum(axis=1)
        if self.kernel is None:
            return out
        phi = self.kernel.phi(_distance(points[:, None, :] - self.centers.take(rows, axis=0)))
        return (phi * weights.take(rows, axis=0)).sum(axis=1) + out


@dataclass(frozen=True, eq=False)
class PatchTable:
    """Every patch of a collection as arrays: the one patch representation.

    Patch i pairs set i of ``influence`` with a space of shape
    ``shapes[shape[i]]``: (None, exponents) for a `PolySpace`, (kernel, tail
    exponents) for a `KernelSpace` on the stencil nodes.  ``shift`` (m, d) and
    ``scale`` (m,) place its polynomial part and ``norm`` (m,) scales its kernel.
    """

    influence: InfluenceTable
    shapes: tuple
    shape: np.ndarray
    shift: np.ndarray
    scale: np.ndarray
    norm: np.ndarray

    def ids(self, patches) -> np.ndarray:
        """``patches`` as a flat index array, once it is known to name rows of the table."""
        patches, m = np.asarray(patches), len(self.influence.centers)
        if patches.size and (patches.dtype.kind not in "iu" or patches.min() < 0 or patches.max() >= m):
            raise InvalidInputError(f"patch indices must be integers in [0, {m})")
        return patches.astype(np.intp).reshape(-1)

    def index(self, patch) -> int:
        """One patch index as an int, a negative one counting from the end, checked as `ids` checks."""
        patch, m = np.asarray(patch), len(self.influence.centers)
        if patch.ndim:
            raise InvalidInputError(f"expected one patch index, got shape {patch.shape}")
        return int(self.ids(patch + m if patch.dtype.kind == "i" and patch < 0 else patch)[0])

    @classmethod
    def of_recipes(cls, parts) -> "PatchTable":
        """The table of (influence table, recipe) parts, in order, one shape id per part."""
        infls, columns = [t for t, _ in parts], [recipe.columns(t) for t, recipe in parts]
        start = np.cumsum([0] + [t.indices.size for t in infls])
        influence = InfluenceTable(
            np.concatenate([[0]] + [t.offsets[1:] + lo for t, lo in zip(infls, start)]),
            *(np.concatenate([getattr(t, name) for t in infls])
              for name in ("indices", "distances", "points", "centers", "center_index")))
        shape = np.repeat(np.arange(len(parts)), [len(t.centers) for t in infls])
        return cls(influence, tuple(c[0] for c in columns), shape,
                   *(np.concatenate([c[k] for c in columns]) for k in (1, 2, 3)))

    @classmethod
    def of_pairs(cls, influences, spaces) -> "PatchTable":
        """The table of hand-made patches, ``spaces[i]`` on ``influences[i]``: the one check of a pairing.

        A stencil must have its space's dimension, and a kernel space's
        centres must be its stencil nodes.
        """
        sets, spaces = list(influences), list(spaces)
        d, shapes, shape, shift, scale, norm = spaces[0].d if spaces else 1, {}, [], [], [], []
        for space, infl in zip(spaces, sets):
            if not infl.points.shape[1] == space.d == d:
                raise InvalidInputError(
                    f"stencil of dimension {infl.points.shape[1]} in a {space.d}-dimensional space")
            poly = space if isinstance(space, PolySpace) else space.aug
            if poly is space:
                key = (None, space.exponents)
            elif space.centers is infl.points or np.array_equal(space.centers, infl.points):
                key = (space.kernel, () if poly is None else poly.exponents)
            else:
                raise InvalidInputError("kernel interpolation expects values at the kernel centers")
            shape.append(shapes.setdefault(key, len(shapes)))
            shift.append(np.zeros(d) if poly is None else poly.shift)
            scale.append(1.0 if poly is None else poly.scale)
            norm.append(1.0 if poly is space else space.kernel_norm)
        index = np.array([-1 if s.center_index is None else s.center_index for s in sets], dtype=int)
        points = [np.zeros((0, d))] + [np.reshape(s.points, (-1, d)) for s in sets]
        table = InfluenceTable(np.cumsum([0] + [s.size for s in sets]),
                               np.concatenate([np.zeros(0, dtype=int)] + [s.indices for s in sets]),
                               np.concatenate([np.zeros(0)] + [s.distances for s in sets]),
                               np.concatenate(points), np.reshape([s.center for s in sets], (-1, d)), index)
        return cls(table, tuple(shapes), np.array(shape, dtype=int), np.reshape(shift, (-1, d)),
                   np.array(scale), np.array(norm))


def stack_spaces(table: PatchTable, patches) -> tuple[list, np.ndarray, np.ndarray]:
    """The table rows ``patches`` stacked: ``(groups, group, slot)``, the one patch → group and slot map.

    ``groups`` holds (member positions in ``patches``, evaluator) per group of rows with one shape
    and size; position i is row ``slot[i]`` of evaluator ``group[i]``.  The ranks of a kernel
    group's tails at its nodes (`linalg.stacked_rank`: a batched Cholesky certifies most, an SVD of
    singular values decides the rest) split the group by dimension (a tail of deficient rank widens
    the moment-null block).  The moment-null bases are left to `StackedBasis.null`, which only
    evaluation and `StackedBasis.collapse` read.
    """
    patches = np.asarray(patches, dtype=np.intp).reshape(-1)
    infl = table.influence
    size, shape = infl.sizes[patches], table.shape[patches]
    keys, which = np.unique(shape * (int(size.max(initial=0)) + 1) + size, return_inverse=True)
    groups, group, slot = [], np.empty(patches.size, dtype=np.intp), np.empty(patches.size, dtype=np.intp)
    for key in range(keys.size):
        members = np.flatnonzero(which == key)
        rows = patches[members]
        kernel, exps = table.shapes[shape[members[0]]]
        at = infl.offsets[rows][:, None] + np.arange(size[members[0]])
        centers, shift, scale = infl.points[at], table.shift[rows], table.scale[rows]
        tail = monomial_derivatives((centers - shift[:, None, :]) / scale[:, None, None], exps,
                                    (0,) * centers.shape[2])
        rank = stacked_rank(tail) if kernel is not None and exps else np.zeros(rows.size, dtype=np.intp)
        ranks = np.unique(rank).tolist()
        for r in ranks:
            sel = slice(None) if len(ranks) == 1 else rank == r  # one rank: the arrays as built
            part = members[sel]
            group[part], slot[part] = len(groups), np.arange(part.size)
            groups.append((part, StackedBasis(kernel, centers[sel], infl.indices[at[sel]],
                                              table.norm[rows[sel]], exps, shift[sel], scale[sel], tail[sel], r)))
    return groups, group, slot


def walk_stack(stack, size: int, at=None):
    """(positions, group, evaluator, slots) for each ``size`` positions of a `stack_spaces` group.

    Position i stands for stacked patch ``at[i]`` (default i); a group's positions ascend.
    """
    groups, group, slot = stack
    if at is not None:
        group, slot = group[at], slot[at]
    for g, (_, basis) in enumerate(groups):
        members = (group == g).nonzero()[0]
        for lo in range(0, members.size, size):
            positions = members[lo:lo + size]
            yield positions, g, basis, slot[positions]


def apply_operator(space: PatchSpace, op: Operator, x) -> np.ndarray:
    """Values of L (the terms of `Operator.terms`) applied to every basis function of the space, at a point x."""
    betas, coef = op.terms(np.reshape(x, (1, -1)))
    out = np.zeros(space.dim)
    for beta, c in zip(betas, coef[0]):
        out = out + c * space.eval_basis_derivative(x, beta)
    return out


def unisolvency_rank(space: PatchSpace, coords) -> tuple[int, bool]:
    """Numerical rank of the basis evaluation matrix on the given nodes.

    Returns (rank, is_interpolation_set); the latter requires the matrix to
    be square and of full rank.
    """
    coords = np.atleast_2d(np.asarray(coords, dtype=float))
    if coords.shape[0] == 0:
        raise InvalidInputError("unisolvency test needs at least one node")
    e = np.atleast_2d(space.eval_basis(coords))
    rank = numerical_rank(e)
    return rank, bool(rank == space.dim == coords.shape[0])


def _stencil_scale(radius):
    """A recipe's local scale: the stencil radius, or 1 for a one-node stencil."""
    return np.where(radius > 0.0, radius, 1.0)


@dataclass(frozen=True)
class Recipe:
    """The spaces of one shape on every stencil, with shift = stencil center and scale = stencil radius.

    Without a ``kernel``: monomials of total degree <= ``degree``, or the
    ``sublist`` exponents.  With one: its translates on the stencil nodes
    plus a full tail of ``degree`` (None: no tail).  `columns` gives every
    set of an `InfluenceTable` at once; a call gives the space of one set.
    """

    kernel: Kernel | None
    degree: int | None
    sublist: tuple | None = None

    def exponents(self, d: int) -> tuple[tuple[int, ...], ...]:
        if self.degree is None:
            return ()
        exps = monomial_exponents(d, self.degree) if self.sublist is None else self.sublist
        return _checked_exponents(d, self.degree, exps)

    def columns(self, table: InfluenceTable) -> tuple:
        """Shape, shifts, scales and kernel norms of the spaces of all sets, for `PatchTable.of_recipes`."""
        if self.kernel is not None and not table.sizes.all():
            raise InvalidInputError("a kernel space needs at least one center")
        scale = _stencil_scale(table.radii)
        # a Python power per space, as `KernelSpace.kernel_norm`: a vectorized one may differ in the last bit
        norm = [1.0] * scale.size if self.kernel is None else [self.kernel.norm(s) for s in scale.tolist()]
        return (self.kernel, self.exponents(table.points.shape[1])), table.centers, scale, np.array(norm)

    def __call__(self, infl) -> PatchSpace:
        d, scale, poly = infl.points.shape[1], float(_stencil_scale(infl.radius)), None
        if self.degree is not None:
            poly = PolySpace(d, self.degree, infl.center, scale, self.exponents(d))
        return poly if self.kernel is None else KernelSpace(self.kernel, infl.points, aug=poly, scale=scale)


def poly_patch_recipe(degree: int, sublist=None) -> Recipe:
    """Per-stencil polynomial spaces.

    A ``sublist`` fixes the exponents (and the degree, its largest total
    degree); it is normalized once, here.
    """
    if sublist is not None:
        try:
            exponents = tuple(tuple(_integer_degree(e) for e in a) for a in sublist)
        except TypeError:  # not a list of lists
            exponents = ()
        if not exponents:
            raise InvalidInputError(f"a sublist must list exponent tuples, got {sublist!r}")
        sublist, degree = exponents, max(sum(a) for a in exponents)
    return Recipe(None, _integer_degree(degree), sublist)


def _integer_degree(degree) -> int:
    """A recipe's degree as an int; anything but a nonnegative integer (a bool included) raises."""
    degree = _integer(degree, "a degree must be an integer")
    if degree < 0:
        raise InvalidInputError(f"a degree must be nonnegative, got {degree}")
    return degree


def kernel_patch_recipe(kernel: Kernel, augmentation_degree=DEFAULT_TAIL_DEGREE) -> Recipe:
    """Per-stencil kernel spaces with a polynomial tail.

    ``augmentation_degree`` is the total degree of the tail Q: an int of at
    least ``cpd_order - 1``, or ``None`` (no tail; positive definite kernels
    only).  Stencils need about k >= 2 dim(Q) neighbours to converge at the
    expected rate, 12 in 2-D and 20 in 3-D for the default (not enforced).
    """
    minimal = kernel.cpd_order - 1
    degree = None if augmentation_degree is None else _integer_degree(augmentation_degree)
    if degree is None and minimal >= 0:
        raise InvalidInputError(
            f"kernel of conditional order {kernel.cpd_order} requires a tail of degree >= {minimal}"
        )
    if degree is not None and degree < minimal:
        raise InvalidInputError(
            f"tail degree {degree} below the minimal degree {minimal} for this kernel"
        )
    return Recipe(kernel, degree)
