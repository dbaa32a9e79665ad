"""Reference-element machinery: quadrature rules and tensor Lagrange bases.

The basis on the reference square [-1,1]^2 is the tensor product of 1D
Lagrange polynomials on Gauss-Lobatto nodes, with independent degree per
direction.  Node ordering is lexicographic, x fastest:
flat index = iy * (px + 1) + ix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@dataclass(frozen=True)
class QuadratureRule:
    """Points and weights on the reference interval/square."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if np.any(self.weights <= 0.0):
            raise ValueError("quadrature weights must be positive")


@lru_cache(maxsize=None)
def gauss_legendre(n: int) -> QuadratureRule:
    """n-point Gauss-Legendre rule on [-1, 1] (exact to degree 2n-1)."""
    if n < 1:
        raise ValueError("need at least one quadrature point")
    pts, wts = np.polynomial.legendre.leggauss(n)
    return QuadratureRule(points=pts, weights=wts)


@lru_cache(maxsize=None)
def gauss_lobatto_nodes(p: int) -> np.ndarray:
    """The p+1 Gauss-Lobatto points on [-1, 1] (endpoints included)."""
    if p < 1:
        raise ValueError("degree must be >= 1")
    if p == 1:
        return np.array([-1.0, 1.0])
    # Interior nodes are the roots of P_p'(x).
    leg = np.polynomial.legendre.Legendre.basis(p)
    interior = np.sort(leg.deriv().roots().real)
    return np.concatenate([[-1.0], interior, [1.0]])


@lru_cache(maxsize=None)
def _barycentric_weights(p: int) -> np.ndarray:
    nodes = gauss_lobatto_nodes(p)
    diff = nodes[:, None] - nodes[None, :]
    np.fill_diagonal(diff, 1.0)
    w = 1.0 / diff.prod(axis=1)
    return w


def lagrange_eval(p: int, x) -> tuple[np.ndarray, np.ndarray]:
    """Values and derivatives of the 1D Lagrange basis at arbitrary points.

    Returns arrays of shape (len(x), p+1).  Uses the barycentric form; points
    coinciding with nodes are handled exactly (indicator values, derivative
    from the spectral differentiation matrix row).
    """
    nodes = gauss_lobatto_nodes(p)
    w = _barycentric_weights(p)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    n_pts, n_bf = len(x), p + 1

    vals = np.zeros((n_pts, n_bf))
    ders = np.zeros((n_pts, n_bf))

    diff = x[:, None] - nodes[None, :]
    on_node = np.abs(diff) < 1e-13
    regular = ~on_node.any(axis=1)

    if np.any(regular):
        d = diff[regular]
        t = w[None, :] / d                          # (nr, nbf)
        s = t.sum(axis=1, keepdims=True)
        l_vals = t / s
        # derivative of the second barycentric form:
        # l_j'(x) = l_j(x) * (phi'(x)/... ) handled via
        # l_j' = (-w_j/d_j^2 * S - (w_j/d_j) * S') / S^2 with S = sum t,
        # S' = sum(-w_k/d_k^2).
        t2 = w[None, :] / d**2
        s2 = t2.sum(axis=1, keepdims=True)
        l_ders = (-t2 + l_vals * s2) / s
        vals[regular] = l_vals
        ders[regular] = l_ders

    if np.any(~regular):
        dmat = _diff_matrix(p)
        idx_pts, idx_nodes = np.nonzero(on_node)
        for pt, nd in zip(idx_pts, idx_nodes):
            vals[pt, nd] = 1.0
            ders[pt] = dmat[nd]
    return vals, ders


@lru_cache(maxsize=None)
def _diff_matrix(p: int) -> np.ndarray:
    """Spectral differentiation matrix: D[i, j] = l_j'(x_i)."""
    nodes = gauss_lobatto_nodes(p)
    w = _barycentric_weights(p)
    n = p + 1
    d = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                d[i, j] = (w[j] / w[i]) / (nodes[i] - nodes[j])
        d[i, i] = -d[i].sum()
    return d


@dataclass(frozen=True)
class Ref1D:
    """1D basis data tabulated at a quadrature rule."""

    degree: int
    rule: QuadratureRule
    values: np.ndarray    # (nq, p+1)
    derivs: np.ndarray    # (nq, p+1)


@lru_cache(maxsize=None)
def ref1d(degree: int, n_quad: int) -> Ref1D:
    rule = gauss_legendre(n_quad)
    vals, ders = lagrange_eval(degree, rule.points)
    return Ref1D(degree=degree, rule=rule, values=vals, derivs=ders)


def shape_eval(degrees: tuple[int, int], points) -> tuple[np.ndarray, np.ndarray]:
    """Tensor-product basis values and reference gradients at given points.

    ``points`` is (n, 2) in [-1, 1]^2 (a single point is accepted).  Returns
    values (n, nbf) and gradients (n, nbf, 2) with nbf = (px+1)(py+1).
    """
    px, py = degrees
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    vx, dx = lagrange_eval(px, pts[:, 0])
    vy, dy = lagrange_eval(py, pts[:, 1])
    n = len(pts)
    vals = (vy[:, :, None] * vx[:, None, :]).reshape(n, -1)
    gx = (vy[:, :, None] * dx[:, None, :]).reshape(n, -1)
    gy = (dy[:, :, None] * vx[:, None, :]).reshape(n, -1)
    return vals, np.stack([gx, gy], axis=-1)


@dataclass(frozen=True)
class RefElement:
    """Tensor basis tabulated at a tensor Gauss-Legendre rule."""

    px: int
    py: int
    nqx: int
    nqy: int
    qp: np.ndarray        # (nq, 2) reference quadrature points
    qw: np.ndarray        # (nq,) reference weights
    values: np.ndarray    # (nq, nbf)
    grad_x: np.ndarray    # (nq, nbf) d/dxi
    grad_y: np.ndarray    # (nq, nbf) d/deta

    @property
    def nbf(self) -> int:
        return (self.px + 1) * (self.py + 1)

    def node_grid(self) -> np.ndarray:
        """Reference coordinates of the (px+1)(py+1) nodes, flat ordering."""
        nx = gauss_lobatto_nodes(self.px)
        ny = gauss_lobatto_nodes(self.py)
        xx, yy = np.meshgrid(nx, ny)
        return np.column_stack([xx.ravel(), yy.ravel()])


@lru_cache(maxsize=None)
def ref_element(px: int, py: int) -> RefElement:
    """Reference data with a per-direction rule of max(px, py) + 2 points."""
    n = max(px, py) + 2
    rx = ref1d(px, n)
    ry = ref1d(py, n)
    qpx, qpy = np.meshgrid(rx.rule.points, ry.rule.points)
    qwx, qwy = np.meshgrid(rx.rule.weights, ry.rule.weights)
    nq = n * n
    nbf = (px + 1) * (py + 1)

    def tensor(fy, fx):
        # out[jq, iq, by, bx] = fy[jq, by] * fx[iq, bx], flattened to (nq, nbf)
        out = fy[:, None, :, None] * fx[None, :, None, :]
        return out.reshape(nq, nbf)

    return RefElement(
        px=px, py=py, nqx=n, nqy=n,
        qp=np.column_stack([qpx.ravel(), qpy.ravel()]),
        qw=(qwx * qwy).ravel(),
        values=tensor(ry.values, rx.values),
        grad_x=tensor(ry.values, rx.derivs),
        grad_y=tensor(ry.derivs, rx.values),
    )
