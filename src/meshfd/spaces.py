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
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidInputError, NotAnInterpolationSetError
from .linalg import RANK_RTOL, null_space, numerical_rank
from .operators import Operator

# Residual tolerance for a successful local interpolation solve.
INTERPOLATION_RTOL = 1e-9


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


def poly_space_dim(d: int, degree: int) -> int:
    return math.comb(degree + d, d)


@dataclass(frozen=True, eq=False)
class PolySpace:
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
        exps = tuple(tuple(int(e) for e in a) for a in self.exponents)
        if len(exps) == 0:
            raise InvalidInputError("a polynomial space needs at least one monomial")
        full = set(monomial_exponents(self.d, self.degree))
        for a in exps:
            if a not in full:
                raise InvalidInputError(f"exponent {a} is not a monomial of total degree <= {self.degree}")
        if len(set(exps)) != len(exps):
            raise InvalidInputError("duplicate monomials in basis list")
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
        degree = max(sum(a) for a in exps)
        shift = np.zeros(d) if shift is None else shift
        return cls(d=d, degree=degree, shift=shift, scale=scale, exponents=exps)

    @property
    def dim(self) -> int:
        return len(self.exponents)

    def _local(self, x):
        pts = np.atleast_2d(np.asarray(x, dtype=float))
        if pts.shape[1] != self.d:
            raise InvalidInputError(f"points of dimension {pts.shape[1]} in a {self.d}-dimensional space")
        return (pts - self.shift) / self.scale

    def eval_basis(self, x) -> np.ndarray:
        """Basis values at x; shape (dim,) for a point, (m, dim) for a batch."""
        single = np.asarray(x).ndim == 1
        out = monomial_derivatives(self._local(x), self.exponents, (0,) * self.d)
        return out[0] if single else out

    def eval_basis_derivative(self, x, beta) -> np.ndarray:
        """Partial derivative d^beta of each basis monomial at x."""
        beta = tuple(int(e) for e in beta)
        if len(beta) != self.d or any(e < 0 for e in beta):
            raise InvalidInputError(f"derivative multi-index {beta} does not match dimension {self.d}")
        single = np.asarray(x).ndim == 1
        out = monomial_derivatives(self._local(x), self.exponents, beta, self.scale)
        return out[0] if single else out


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
    out = np.empty(z.shape[:-1] + (len(exponents),))
    for k, term in enumerate(_derivative_plan(exponents, beta)):
        if term is None:
            out[..., k] = 0.0
            continue
        coef, factors = term
        col = coef * rescale
        for axis, power in factors:
            col = col * z[..., axis] ** power
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
        p = float(self.param)
        if p <= 0.0:
            raise InvalidInputError("kernel parameter must be positive")
        if self.family == "polyharmonic" and p == int(p) and int(p) % 2 == 0:
            raise InvalidInputError("polyharmonic exponent must not be an even integer")
        object.__setattr__(self, "param", p)

    @property
    def cpd_order(self) -> int:
        if self.family == "gauss":
            return 0
        return int(math.floor(self.param / 2.0)) + 1

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


def kernel_eval(kernel: Kernel, x, y) -> float:
    """K(x, y) = phi(||x - y||); symmetric in its arguments."""
    x = np.asarray(x, dtype=float).reshape(-1)
    y = np.asarray(y, dtype=float).reshape(-1)
    if x.shape != y.shape:
        raise InvalidInputError("kernel arguments must have matching dimension")
    return float(kernel.phi(np.linalg.norm(x - y)))


def kernel_translate_derivative(kernel: Kernel, x, centers, beta) -> np.ndarray:
    """d^beta_x K(x, c_j) for every center c_j, |beta| <= 2.

    Shape (n,) for a single point, (m, n) for a batch.
    """
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    single = np.asarray(x).ndim == 1
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    if pts.shape[1] != centers.shape[1]:
        raise InvalidInputError("point and center dimensions differ")
    out = kernel_derivative(kernel, pts[:, None, :] - centers[None, :, :], beta)
    return out[0] if single else out


def kernel_derivative(kernel: Kernel, diff, beta) -> np.ndarray:
    """d^beta_x K(x, c) at displacements ``diff = x - c`` of shape (..., d), |beta| <= 2.

    Returns shape ``diff.shape[:-1]``; zero displacements take the kernel's
    limits at its center.
    """
    beta = tuple(int(e) for e in beta)
    order = sum(beta)
    if order > 2:
        raise InvalidInputError("kernel derivatives are provided up to order 2")
    r = np.linalg.norm(diff, axis=-1)
    zero = r == 0.0
    rs = np.where(zero, 1.0, r)

    if order == 0:
        out = kernel.phi(r)
    elif order == 1:
        axis = beta.index(1)
        out = kernel.dphi_over_r(rs) * diff[..., axis]
        if zero.any():
            out = np.where(zero, kernel.gradient_limit_at_zero(), out)
    else:
        axes = [a for a, e in enumerate(beta) for _ in range(e)]
        a_ax, b_ax = axes
        g1r = kernel.dphi_over_r(rs)
        g2 = kernel.d2phi(rs)
        ua = diff[..., a_ax] / rs
        ub = diff[..., b_ax] / rs
        out = (g2 - g1r) * ua * ub
        if a_ax == b_ax:
            out = out + g1r
        if zero.any():
            lim_diag = kernel.second_derivative_limit_at_zero()
            out = np.where(zero, lim_diag if a_ax == b_ax else 0.0, out)
    return out


@dataclass(frozen=True, eq=False)
class KernelSpace:
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
        if self.kernel.family == "polyharmonic":
            return self.scale ** (-self.kernel.param)
        return 1.0

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
    def poly_block(self) -> np.ndarray:
        """P[j, l] = q_l(x_j): tail basis at the centers, shape (n, q_dim)."""
        if self.aug is None:
            return np.zeros((self.n, 0))
        return np.atleast_2d(self.aug.eval_basis(self.centers))

    @cached_property
    def moment_null(self) -> np.ndarray:
        """Orthonormal basis of {c : P^T c = 0}, the admissible kernel coefficients."""
        return null_space(self.poly_block.T)

    @property
    def dim(self) -> int:
        return self.moment_null.shape[1] + self.q_dim

    def eval_basis(self, x) -> np.ndarray:
        single = np.asarray(x).ndim == 1
        kvals = np.atleast_2d(kernel_translate_derivative(self.kernel, x, self.centers, (0,) * self.d))
        out = self.kernel_norm * kvals @ self.moment_null
        if self.aug is not None:
            out = np.hstack([out, np.atleast_2d(self.aug.eval_basis(x))])
        return out[0] if single else out

    def eval_basis_derivative(self, x, beta) -> np.ndarray:
        single = np.asarray(x).ndim == 1
        kvals = np.atleast_2d(kernel_translate_derivative(self.kernel, x, self.centers, beta))
        out = self.kernel_norm * kvals @ self.moment_null
        if self.aug is not None:
            out = np.hstack([out, np.atleast_2d(self.aug.eval_basis_derivative(x, beta))])
        return out[0] if single else out


PatchSpace = PolySpace | KernelSpace


def operator_terms(op: Operator, d: int, x) -> list[tuple[tuple[int, ...], float]]:
    """Expand an operator at a point into (derivative multi-index, coefficient) terms."""
    if op.kind == "identity":
        return [((0,) * d, 1.0)]
    if op.kind == "second-derivative-1d":
        if d != 1:
            raise InvalidInputError("second-derivative-1d needs a one-dimensional space")
        return [((2,), 1.0)]
    if op.kind == "laplacian":
        return [(tuple(2 if i == a else 0 for i in range(d)), 1.0) for a in range(d)]
    # general second order, with coefficients evaluated at the point
    x_arr = np.asarray(x, dtype=float).reshape(-1)
    terms: list[tuple[tuple[int, ...], float]] = []
    if op.a is not None:
        coeff = np.atleast_2d(np.asarray(op.a(x_arr), dtype=float))
        if coeff.shape != (d, d):
            raise InvalidInputError(f"second-order coefficient must be ({d}, {d})")
        for k in range(d):
            for l in range(d):
                if coeff[k, l] != 0.0:
                    beta = tuple((1 if i == k else 0) + (1 if i == l else 0) for i in range(d))
                    terms.append((beta, float(coeff[k, l])))
    if op.b is not None:
        coeff = np.asarray(op.b(x_arr), dtype=float).reshape(-1)
        if coeff.shape != (d,):
            raise InvalidInputError(f"first-order coefficient must be ({d},)")
        for k in range(d):
            if coeff[k] != 0.0:
                terms.append((tuple(1 if i == k else 0 for i in range(d)), float(coeff[k])))
    if op.c is not None:
        terms.append(((0,) * d, float(op.c(x_arr))))
    return terms


def apply_operator(space: PatchSpace, op: Operator, x) -> np.ndarray:
    """Values of L applied to every basis function of the space, at a point x."""
    out = None
    for beta, coeff in operator_terms(op, space.d, x):
        term = coeff * space.eval_basis_derivative(x, beta)
        out = term if out is None else out + term
    if out is None:
        out = np.zeros(space.dim)
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
    rank = numerical_rank(e, rtol=RANK_RTOL)
    return rank, bool(rank == space.dim == coords.shape[0])


def local_interpolate(space: PatchSpace, coords, values) -> np.ndarray:
    """Coefficients (in the space's basis) of the interpolant of values at coords.

    Solves the square nodal matrix ``E = space.eval_basis(coords)``; for a
    kernel space the nodes are its centers and the coefficients refer to
    its concrete (moment-constrained combinations + tail) basis.
    """
    coords = np.atleast_2d(np.asarray(coords, dtype=float))
    values = np.asarray(values, dtype=float).reshape(-1)
    if values.shape[0] != coords.shape[0]:
        raise InvalidInputError("one value per interpolation node is required")
    if values.size == 0:
        raise InvalidInputError("interpolation needs at least one node")
    n_nodes = coords.shape[0]
    if isinstance(space, KernelSpace) and n_nodes != space.n:
        raise InvalidInputError("kernel interpolation expects values at the kernel centers")
    tol = INTERPOLATION_RTOL * (1.0 + float(np.max(np.abs(values))))

    e = np.atleast_2d(space.eval_basis(coords))
    if n_nodes != space.dim:
        raise NotAnInterpolationSetError(
            f"{n_nodes} nodes cannot be an interpolation set for dimension {space.dim}",
            rank=numerical_rank(e), dim=space.dim, n_nodes=n_nodes,
        )
    try:
        coeffs = np.linalg.solve(e, values)
    except np.linalg.LinAlgError:
        raise NotAnInterpolationSetError(
            "singular interpolation system", rank=numerical_rank(e), dim=space.dim, n_nodes=n_nodes
        ) from None
    defect = float(np.max(np.abs(e @ coeffs - values)))
    if not defect <= tol:
        raise NotAnInterpolationSetError(
            f"interpolation residual {defect:.2e} exceeds tolerance {tol:.2e}",
            rank=numerical_rank(e), dim=space.dim, n_nodes=n_nodes,
        )
    return coeffs


def patch_value(space: PatchSpace, coeffs, x):
    """Evaluate a patch given its basis coefficients."""
    vals = space.eval_basis(x)
    return vals @ np.asarray(coeffs, dtype=float)


def poly_patch_recipe(degree: int, sublist=None):
    """Per-stencil polynomial space factory: shift = stencil center, scale = stencil radius."""

    def make(infl) -> PolySpace:
        scale = infl.radius if infl.radius > 0.0 else 1.0
        if sublist is not None:
            return PolySpace.from_exponents(infl.points.shape[1], sublist, shift=infl.center, scale=scale)
        return PolySpace.full(infl.points.shape[1], degree, shift=infl.center, scale=scale)

    return make


def kernel_patch_recipe(kernel: Kernel, augmentation_degree="minimal"):
    """Per-stencil kernel space factory with a polynomial tail.

    ``augmentation_degree`` is the total degree of the tail Q:
    ``"minimal"`` resolves to ``cpd_order - 1`` (no tail for a positive
    definite kernel), an int raises it, ``None`` drops it (only valid for
    positive definite kernels).
    """
    minimal = kernel.cpd_order - 1
    if augmentation_degree == "minimal":
        degree = minimal if minimal >= 0 else None
    else:
        degree = augmentation_degree
    if degree is None and minimal >= 0:
        raise InvalidInputError(
            f"kernel of conditional order {kernel.cpd_order} requires a tail of degree >= {minimal}"
        )
    if degree is not None and degree < minimal:
        raise InvalidInputError(
            f"tail degree {degree} below the minimal degree {minimal} for this kernel"
        )

    def make(infl) -> KernelSpace:
        scale = infl.radius if infl.radius > 0.0 else 1.0
        aug = None
        if degree is not None:
            aug = PolySpace.full(infl.points.shape[1], degree, shift=infl.center, scale=scale)
        return KernelSpace(kernel, infl.points, aug=aug, scale=scale)

    return make
