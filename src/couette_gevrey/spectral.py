"""Chebyshev-Fourier channel discretization and per-mode elliptic solves.

The channel T x [-1,1] is discretized with Fourier modes in x (so every
operation here is per-wavenumber k) and Chebyshev-Gauss-Lobatto collocation
in y.  Boundary conditions are imposed by row replacement.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.fft import dct
from scipy.linalg import lu_factor
from scipy.linalg.lapack import dgetrs


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
        """Chebyshev coefficients of the interpolant, along the last axis."""
        # DCT-I acts on values ordered from y=+1 down to y=-1
        rev = np.asarray(values)[..., ::-1]
        n = self.ny
        if np.iscomplexobj(rev):
            coef = dct(rev.real, type=1, axis=-1) + 1j * dct(rev.imag, type=1, axis=-1)
        else:
            coef = dct(rev, type=1, axis=-1)
        coef = coef / n
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


@dataclass
class ModeField:
    """A single Fourier mode: complex values over the y-nodes."""

    k: int
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)

    def copy(self) -> "ModeField":
        return ModeField(self.k, self.values.copy())


def l2_norm(grid: ChannelGrid, f) -> float:
    v = f.values if isinstance(f, ModeField) else np.asarray(f)
    return float(np.sqrt(np.real(grid.integrate(np.abs(v) ** 2))))


class SingularSolveError(ValueError):
    """Raised for the singular k = 0 problems."""


def _apply_bc_rows(a: np.ndarray, grid: ChannelGrid, bc_kind: str) -> np.ndarray:
    a = a.copy()
    if bc_kind == "dirichlet":
        a[0, :] = 0.0
        a[0, 0] = 1.0
        a[-1, :] = 0.0
        a[-1, -1] = 1.0
    elif bc_kind == "neumann":
        a[0, :] = grid.d1[0, :]
        a[-1, :] = grid.d1[-1, :]
    else:
        raise ValueError(f"unknown bc kind {bc_kind!r}")
    return a


def helmholtz_solve(
    grid: ChannelGrid,
    rhs: ModeField,
    k: int | None = None,
    bc: str = "dirichlet",
) -> ModeField:
    """Solve -psi'' + k^2 psi = F with homogeneous Dirichlet or Neumann data.

    The k = 0 Neumann problem is singular and raises SingularSolveError.
    """
    if k is None:
        k = rhs.k
    if k == 0 and bc == "neumann":
        raise SingularSolveError("k=0 Neumann problem is singular")
    a = _apply_bc_rows(-(grid.d2) + float(k * k) * np.eye(grid.ny + 1), grid, bc)
    b = rhs.values.astype(complex)
    b[0] = b[-1] = 0.0
    return ModeField(k, np.linalg.solve(a, b))


def poisson_mode_solve(grid: ChannelGrid, rhs: ModeField, k: int | None = None) -> ModeField:
    """Solve (d_yy - k^2) psi = rhs with homogeneous Dirichlet data, k != 0."""
    if k is None:
        k = rhs.k
    if k == 0:
        raise SingularSolveError("k=0 stream mode is excluded (Neumann mean mode)")
    sol = helmholtz_solve(grid, ModeField(k, -rhs.values), k=k, bc="dirichlet")
    return ModeField(k, sol.values)


def _parity_sizes(ny: int) -> tuple[int, int]:
    """Unknowns of the even block (the centre node included when ny is even)
    and of the odd block (whose centre value is zero)."""
    return ny // 2 + 1, (ny + 1) // 2


def helmholtz_lu(grid: ChannelGrid, k: int, alpha: float, nu: float):
    """Real LU factors of the even and odd blocks of (alpha*I - nu*(d_yy - k^2))
    with Dirichlet rows.

    On the symmetric Lobatto nodes the matrix A commutes with the reversal J
    up to roundoff; its symmetrisation (A + JAJ)/2 commutes exactly, so it
    maps even vectors (Jx = x) to even ones and odd to odd.  Each block is
    the top rows of the symmetrised matrix acting on the lower half of the
    nodes: column j of the even block is A[:, j] + A[:, ny - j] (A[:, j]
    alone for the centre node), of the odd block A[:, j] - A[:, ny - j].
    """
    n = grid.ny
    a = alpha * np.eye(n + 1) - nu * (grid.d2 - float(k * k) * np.eye(n + 1))
    a = _apply_bc_rows(a, grid, "dirichlet")
    a = 0.5 * (a + a[::-1, ::-1])
    ne, no = _parity_sizes(n)
    top, mirror = a[:ne], a[:ne, ::-1]
    even = top[:, :ne] + mirror[:, :ne]
    if n % 2 == 0:
        even[:, -1] = top[:, ne - 1]  # the centre node is its own mirror
    odd = top[:no, :no] - mirror[:no, :no]
    return lu_factor(even), lu_factor(odd)


def helmholtz_lu_solve(factors: list, parts: np.ndarray) -> np.ndarray:
    """Solve the rows of a real (K, 2, ny+1) array with ``helmholtz_lu`` pairs.

    ``factors[i]`` is the pair of row i.  The right-hand sides are split into
    their even and odd halves, each half is solved by one ``dgetrs`` call and
    the two solutions are joined on the full grid.
    """
    n = parts.shape[-1] - 1
    ne, no = _parity_sizes(n)
    rev = parts[..., ::-1]
    even = 0.5 * (parts[..., :ne] + rev[..., :ne])
    odd = 0.5 * (parts[..., :no] - rev[..., :no])
    for i, pair in enumerate(factors):
        # half.T is a Fortran-ordered (size, 2) view, solved in place
        for half, (lu, piv) in zip((even[i], odd[i]), pair):
            if dgetrs(lu, piv, half.T, overwrite_b=1)[1] != 0:
                raise ValueError(f"dgetrs failed for row {i}")
    out = np.empty_like(parts)
    out[..., :no] = even[..., :no] + odd
    out[..., ::-1][..., :no] = even[..., :no] - odd
    if n % 2 == 0:
        out[..., no] = even[..., no]
    return out


def _one_minus_exp(x: np.ndarray | float) -> np.ndarray | float:
    """1 - exp(-2x) for x >= 0, computed without cancellation."""
    return -np.expm1(-2.0 * np.asarray(x, dtype=float))


def green_eval(k: int, v, vp, domain: tuple[float, float]):
    """Green's kernel of (d_v^2 - k^2) with Dirichlet ends on ``domain``.

    Evaluated through exponential differences so that large k|domain| never
    overflows: with a = v_+ - max(v,v'), b = min(v,v') - v_-, L = v_+ - v_-,

        G = -exp(-|k| |v-v'|) * E(|k| a) E(|k| b) / (2 |k| E(|k| L)),

    E(x) = 1 - exp(-2x).  The kernel is symmetric and vanishes when either
    argument hits an endpoint.
    """
    if k == 0:
        raise ValueError("k=0 kernel degenerates")
    kk = abs(float(k))
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


_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gauss_legendre(npts: int) -> tuple[np.ndarray, np.ndarray]:
    if npts not in _GL_CACHE:
        _GL_CACHE[npts] = np.polynomial.legendre.leggauss(npts)
    return _GL_CACHE[npts]


def green_matrix(
    grid: ChannelGrid,
    k: int,
    domain: tuple[float, float] = (-1.0, 1.0),
    npts: int = 96,
) -> np.ndarray:
    """Kernel-quadrature matrix Q of (d_v^2 - k^2)^{-1} on ``domain``.

    The grid is interpreted as Chebyshev nodes mapped affinely onto
    ``domain``.  The kernel has a derivative kink at v = v', so row i splits
    the integral at v_i and integrates each analytic piece with
    Gauss-Legendre quadrature; the data enter through barycentric
    interpolation, so (Q @ f)_i approximates int G(v_i, v') f(v') dv'.
    Rows are built one node at a time to keep the interpolation rows small.
    """
    vm, vp = float(domain[0]), float(domain[1])
    mid = 0.5 * (vm + vp)
    half = 0.5 * (vp - vm)
    gl_x, gl_w = _gauss_legendre(npts)
    q = np.zeros((grid.ny + 1, grid.ny + 1))
    for i, v in enumerate(mid + half * grid.nodes):
        for lo, hi in ((vm, v), (v, vp)):
            if hi - lo <= 0.0:
                continue
            pts = 0.5 * (lo + hi) + 0.5 * (hi - lo) * gl_x
            wts = 0.5 * (hi - lo) * gl_w
            kernel = wts * green_eval(k, v, pts, domain)
            q[i] += kernel @ grid.interpolation_matrix((pts - mid) / half)
    return q


def green_solve(
    grid: ChannelGrid,
    rhs: ModeField,
    k: int | None = None,
    domain: tuple[float, float] = (-1.0, 1.0),
    npts: int = 96,
    matrix: np.ndarray | None = None,
) -> ModeField:
    """Solve (d_v^2 - k^2) phi = rhs by quadrature against the Green kernel.

    ``matrix`` is ``green_matrix(grid, k, domain, npts)``, built here when
    not given; callers solving repeatedly on one (k, domain) pass it in.
    """
    if k is None:
        k = rhs.k
    if k == 0:
        raise SingularSolveError("k=0 not covered by the sinh kernel")
    if matrix is None:
        matrix = green_matrix(grid, k, domain, npts)
    out = (matrix @ np.ascontiguousarray(rhs.values).view(float).reshape(-1, 2)).view(complex)
    return ModeField(k, out.ravel())
