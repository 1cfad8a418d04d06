"""Chebyshev-Fourier channel discretization and per-mode elliptic solves.

The channel T x [-1,1] is discretized with Fourier modes in x and
Chebyshev-Gauss-Lobatto collocation in y.  A field is one complex
(K, ny+1) array whose rows are its modes in ascending k, or its real parity
halves (``_fold``).  Every collocation solve of the shifted d_yy - k^2 with
homogeneous Dirichlet walls goes through one eigendecomposition of the
folded d_yy per grid (``dirichlet_eig``), with one shift per row; the Green
kernel quadrature solves on a moving interval.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np


def chebyshev_lobatto(n: int) -> np.ndarray:
    """Ascending Gauss-Lobatto nodes -1 = y_0 < ... < y_n = 1."""
    if n < 1:
        raise ValueError("need at least two nodes")
    j = np.arange(n + 1)
    # sin form keeps the grid exactly symmetric under y -> -y
    return np.sin(np.pi * (2.0 * j - n) / (2.0 * n))


def chebyshev_diff_matrix(nodes: np.ndarray) -> np.ndarray:
    """First-derivative collocation matrix on Lobatto nodes (any order)."""
    n = len(nodes) - 1
    c = np.ones(n + 1)
    c[0] = c[-1] = 2.0
    c = c * (-1.0) ** np.arange(n + 1)
    x = nodes.reshape(-1, 1)
    dx = x - x.T + np.eye(n + 1)
    d = np.outer(c, 1.0 / c) / dx
    # negative-sum trick: rows of D annihilate constants exactly
    np.fill_diagonal(d, 0.0)
    np.fill_diagonal(d, -d.sum(axis=1))
    return d


def clenshaw_curtis_weights(n: int) -> np.ndarray:
    """Quadrature weights on the n+1 Lobatto nodes, exact for degree <= n."""
    if n == 1:
        return np.array([1.0, 1.0])
    j = np.arange(n + 1)
    v = np.zeros(n + 1)
    # moments of cos(k theta): int_0^pi cos(k t) sin(t) dt
    for k in range(0, n + 1, 2):
        v[k] = 2.0 / (1.0 - k * k)
    # w_j = (2/n) sum'' v_k cos(k j pi / n), '' halving first/last terms;
    # every j at once, summed over k in the same order
    acc = 0.5 * v[0] + 0.5 * v[n] * np.cos(np.pi * j)
    for k in range(1, n):
        acc += v[k] * np.cos(np.pi * k * j / n)
    w = 2.0 * acc / n
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


@dataclass
class ChannelGrid:
    """Chebyshev collocation grid on [-1,1] plus the Fourier mode range."""

    ny: int
    kmax: int = 0
    nodes: np.ndarray = field(init=False)
    d1: np.ndarray = field(init=False)
    d2: np.ndarray = field(init=False)
    quad_weights: np.ndarray = field(init=False)
    cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)  # derived tables

    def __post_init__(self):
        if self.ny < 4:
            raise ValueError("ny must be at least 4")
        self.nodes = chebyshev_lobatto(self.ny)
        self.d1 = chebyshev_diff_matrix(self.nodes)
        self.d2 = self.d1 @ self.d1
        self.quad_weights = clenshaw_curtis_weights(self.ny)
        self._bary_w = np.ones(self.ny + 1)
        self._bary_w[0] = self._bary_w[-1] = 0.5
        self._bary_w *= (-1.0) ** np.arange(self.ny + 1)

    def integrate(self, values: np.ndarray) -> complex:
        return np.asarray(values) @ self.quad_weights

    def cheb_coeffs(self, values: np.ndarray) -> np.ndarray:
        """Chebyshev coefficients of the interpolant, along the last axis.

        The DCT-I of the values ordered from y=+1 down to y=-1 is the FFT of
        their even extension (Trefethen, Spectral Methods in MATLAB, ch. 8)."""
        rev = np.asarray(values)[..., ::-1]
        n = self.ny
        ext = np.concatenate([rev, rev[..., -2:0:-1]], axis=-1)
        if np.iscomplexobj(ext):
            coef = np.fft.fft(ext, axis=-1)[..., : n + 1] / n
        else:
            coef = np.fft.rfft(ext, axis=-1).real / n
        coef[..., 0] *= 0.5
        coef[..., -1] *= 0.5
        return coef

    def spectral_tail(self, values: np.ndarray) -> float | np.ndarray:
        """Top-quarter Chebyshev energy fraction (per row), a resolution trust score."""
        coef = np.abs(self.cheb_coeffs(values))
        total = coef.sum(axis=-1)
        q = max(1, (self.ny + 1) // 4)
        tail = coef[..., -q:].sum(axis=-1) / np.where(total == 0.0, 1.0, total)
        return tail if tail.ndim else float(tail)

    def interpolation_matrix(self, targets: np.ndarray) -> np.ndarray:
        """Barycentric rows: ``interpolation_matrix(t) @ values`` is the
        interpolant at t; a target on a node gets that node's unit row."""
        targets = np.atleast_1d(np.asarray(targets, dtype=float))
        diff = targets.reshape(-1, 1) - self.nodes.reshape(1, -1)
        exact = np.abs(diff) <= 1e-15
        diff[exact] = 1.0
        rows = self._bary_w / diff
        rows /= rows.sum(axis=1, keepdims=True)
        hit = exact.any(axis=1)
        rows[hit] = exact[hit]
        return rows

    def interpolate(self, values: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Barycentric evaluation of the interpolant at arbitrary points."""
        return self.interpolation_matrix(targets) @ np.asarray(values)


def l2_norm(grid: ChannelGrid, values: np.ndarray) -> float:
    """L2 norm over [-1, 1] of one mode's values on the nodes."""
    return float(np.sqrt(np.real(grid.integrate(np.abs(values) ** 2))))


def hermitian_mode_weight(k: int) -> float:
    """Modes are stored for k >= 0; the partner -k is the conjugate of k,
    so every k > 0 counts twice in a sum over all wavenumbers."""
    return 1.0 if k == 0 else 2.0


class SingularSolveError(ValueError):
    """Raised for the singular k = 0 problems."""


def poisson_mode_solve(grid: ChannelGrid, rhs: np.ndarray, k: int) -> np.ndarray:
    """Solve (d_yy - k^2) psi = rhs with homogeneous Dirichlet data, k != 0;
    the walls of ``rhs`` are ignored."""
    if k == 0:
        raise SingularSolveError("k=0 stream mode is excluded (Neumann mean mode)")
    halves = _fold(np.ascontiguousarray(rhs, dtype=complex).reshape(1, -1))
    return -_unfold(dirichlet_eig(grid).solve(halves, [float(k * k)]), grid.ny)[0]


def _parity_sizes(ny: int) -> tuple[int, int]:
    """Unknowns of the even block (the centre node included when ny is even)
    and of the odd block (whose centre value is zero)."""
    return ny // 2 + 1, (ny + 1) // 2


def _fold(values: np.ndarray) -> np.ndarray:
    """The real (2, K, 2, ny//2 + 1) parity halves of a complex (K, ny+1)
    array: [even, odd] x row x [re, im] x the lower half of the nodes, the
    odd half zero-padded."""
    parts = values.view(float).reshape(*values.shape, 2).swapaxes(-1, -2)  # (K, 2, ny+1) view
    ne, no = _parity_sizes(values.shape[-1] - 1)
    halves = np.zeros((2,) + parts.shape[:-1] + (ne,))
    np.add(parts[..., :ne], parts[..., ::-1][..., :ne], out=halves[0])
    np.subtract(parts[..., :no], parts[..., ::-1][..., :no], out=halves[1, ..., :no])
    halves *= 0.5
    return halves


def _unfold(halves: np.ndarray, ny: int) -> np.ndarray:
    """The complex (K, ny+1) array whose ``_fold`` is ``halves``."""
    no = _parity_sizes(ny)[1]
    even, odd = halves[0], halves[1, ..., :no]
    out = np.empty(halves.shape[1:-2] + (ny + 1,), dtype=complex)
    joined = out.view(float).reshape(*out.shape, 2).swapaxes(-1, -2)
    np.add(even[..., :no], odd, out=joined[..., :no])
    np.subtract(even[..., :no], odd, out=joined[..., ::-1][..., :no])
    if ny % 2 == 0:
        joined[..., no] = even[..., no]  # the centre node is its own mirror
    return out


def _folded_d2_t(grid: ChannelGrid) -> np.ndarray:
    """The even and odd blocks of (d2 + J d2 J)/2, transposed for
    ``halves @ blocks``: one new (2, ne, ne) array, the odd block zero-padded.
    The symmetrised matrix commutes exactly with the reversal J, so each
    block is its top rows on the lower half of the nodes: column j of the
    even (odd) block is D[:, j] + (-) D[:, ny - j], D[:, j] for the centre."""
    ne, no = _parity_sizes(grid.ny)
    d = 0.5 * (grid.d2 + grid.d2[::-1, ::-1]).T
    left, mirror = d[:, :ne], d[::-1, :ne]
    blocks = np.zeros((2, ne, ne))
    np.add(left[:ne], mirror[:ne], out=blocks[0])
    if grid.ny % 2 == 0:
        blocks[0, -1] = left[ne - 1]
    np.subtract(left[:no, :no], mirror[:no, :no], out=blocks[1, :no, :no])
    return blocks


def _apply_blocks(halves: np.ndarray, blocks_t: np.ndarray) -> np.ndarray:
    """Parity blocks such as ``_folded_d2_t``'s applied to ``_fold`` halves: one product per parity over all rows."""
    return (halves.reshape(2, -1, halves.shape[-1]) @ blocks_t).reshape(halves.shape)


class DirichletEig:
    """The interior blocks of ``_folded_d2_t``, the even and odd Dirichlet
    d_yy, diagonalised once: B = V diag(lambda) V^{-1} per parity (Haidvogel &
    Zang, J. Comput. Phys. 30, 1979).  ``vectors_t`` and ``inverse_t`` hold
    V^T and V^{-T} as real (2, ne, ne) arrays for ``halves @ blocks``, zero on
    the wall entry 0 and the odd block's padding, so a product ignores the
    walls of its input and leaves its output's walls zero; ``values`` holds
    lambda, -1 on those entries, whose coefficients are always zero."""

    def __init__(self, grid: ChannelGrid):
        blocks, sizes = _folded_d2_t(grid), _parity_sizes(grid.ny)
        ne = sizes[0]
        self.vectors_t, self.inverse_t = np.zeros((2, ne, ne)), np.zeros((2, ne, ne))
        self.values = np.full((2, ne), -1.0)
        for parity, n in enumerate(sizes):
            values, vectors = np.linalg.eig(blocks[parity, 1:n, 1:n].T)
            # real, negative and distinct in exact arithmetic (Gottlieb & Lustman, SIAM J. Numer. Anal. 20, 1983)
            if np.iscomplexobj(values) or np.max(values) >= 0.0:
                raise ValueError(f"the Dirichlet d_yy block of parity {parity} at ny = {grid.ny} has an "
                                 "eigenvalue that is complex or not negative")
            self.values[parity, 1:n] = values
            self.vectors_t[parity, 1:n, 1:n] = vectors.T
            self.inverse_t[parity, 1:n, 1:n] = np.linalg.inv(vectors).T

    def solve(self, halves: np.ndarray, shifts, nu: float = 1.0) -> np.ndarray:
        """V diag(1/(shift - nu lambda)) V^{-1} applied to ``_fold`` halves,
        with the row's shift: the solution of (shift - nu d_yy) x = halves
        with x = 0 on the walls, as a new array."""
        coef = _apply_blocks(halves, self.inverse_t)
        coef /= np.asarray(shifts, dtype=float)[:, None, None] - nu * self.values[:, None, None, :]
        return _apply_blocks(coef, self.vectors_t)


def dirichlet_eig(grid: ChannelGrid) -> DirichletEig:
    """The grid's ``DirichletEig``, built on the first call and kept in ``grid.cache``."""
    if "dirichlet_eig" not in grid.cache:
        grid.cache["dirichlet_eig"] = DirichletEig(grid)
    return grid.cache["dirichlet_eig"]


def _one_minus_exp(x: np.ndarray | float) -> np.ndarray | float:
    """1 - exp(-2x) for x >= 0, computed without cancellation."""
    return -np.expm1(-2.0 * np.asarray(x, dtype=float))


def green_eval(k: int | np.ndarray, v, vp, domain: tuple[float, float]):
    """Green's kernel of (d_v^2 - k^2) with Dirichlet ends on ``domain``.

    Evaluated through exponential differences so that large k|domain| never
    overflows: with a = v_+ - max(v,v'), b = min(v,v') - v_-, L = v_+ - v_-,

        G = -exp(-|k| |v-v'|) * E(|k| a) E(|k| b) / (2 |k| E(|k| L)),

    E(x) = 1 - exp(-2x).  The kernel is symmetric and vanishes when either
    argument hits an endpoint.  ``k`` may be an array, say of shape (K, 1),
    that broadcasts against the points; each entry gets the same arithmetic
    as a scalar call with that wavenumber.
    """
    kk = np.abs(np.asarray(k, dtype=float))
    if not np.all(kk):
        raise ValueError("k=0 kernel degenerates")
    vm, vp_dom = float(domain[0]), float(domain[1])
    if vp_dom <= vm:
        raise ValueError("empty domain")
    v = np.asarray(v, dtype=float)
    vpq = np.asarray(vp, dtype=float)
    hi = np.maximum(v, vpq)
    lo = np.minimum(v, vpq)
    a = vp_dom - hi
    b = lo - vm
    length = vp_dom - vm
    val = (
        -np.exp(-kk * (hi - lo))
        * _one_minus_exp(kk * a)
        * _one_minus_exp(kk * b)
        / (2.0 * kk * _one_minus_exp(kk * length))
    )
    return val if val.shape else float(val)


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """The 96-point Gauss-Legendre rule of every Green panel, built on first use."""
    return np.polynomial.legendre.leggauss(96)


def green_matrix(grid: ChannelGrid, ks, domain: tuple[float, float] = (-1.0, 1.0)) -> np.ndarray:
    """Kernel-quadrature matrices Q_k of (d_v^2 - k^2)^{-1} on ``domain``, one
    real (K, ny+1, ny+1) array for the wavenumbers ``ks``.

    The grid is interpreted as Chebyshev nodes mapped affinely onto
    ``domain``.  The kernel has a derivative kink at v = v', so row i splits
    the integral at v_i and integrates each analytic piece with the 96-point
    Gauss-Legendre rule; the data enter through barycentric
    interpolation, so (Q_k @ f)_i approximates int G_k(v_i, v') f(v') dv'.
    Only the kernel depends on k: each node's two panels build their
    interpolation rows once and evaluate the kernel for every k at once.
    Each mode's row is its own vector-matrix product, which keeps it
    bitwise equal to a build for that k alone.
    """
    vm, vp = float(domain[0]), float(domain[1])
    mid = 0.5 * (vm + vp)
    half = 0.5 * (vp - vm)
    gl_x, gl_w = _gauss_legendre()
    kcol = np.asarray(ks, dtype=float).reshape(-1, 1)
    q = np.zeros((len(kcol), grid.ny + 1, grid.ny + 1))
    for i, v in enumerate(mid + half * grid.nodes):
        for lo, hi in ((vm, v), (v, vp)):
            if hi - lo <= 0.0:
                continue
            pts = 0.5 * (lo + hi) + 0.5 * (hi - lo) * gl_x
            wts = 0.5 * (hi - lo) * gl_w
            interp = grid.interpolation_matrix((pts - mid) / half)
            kernel = wts * green_eval(kcol, v, pts, domain)
            for qk, row in zip(q, kernel):
                qk[i] += row @ interp
    return q


def green_solve(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve (d_v^2 - k^2) phi = rhs by quadrature against the Green kernel:
    ``matrix`` is the table of k and the domain, one slice of ``green_matrix``."""
    out = (matrix @ np.ascontiguousarray(rhs, dtype=complex).view(float).reshape(-1, 2)).view(complex)
    return out.ravel()
