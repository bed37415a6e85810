"""Dense complex linear-algebra primitives.

Everything downstream (lift assembly, certificates, diagonalization)
builds on the routines here: eigendecomposition with an explicit
diagonalizability verdict, matrix exponentials, log-norms in plain and
weighted inner products, Lyapunov solves, planar convex-hull
classification of spectra, and :func:`multiset_rows`, the package's one
enumerator of index multisets, which both the lift's multiset
coordinates and the no-resonance gap read.

Matrices are plain ``numpy`` arrays with ``complex128`` entries.  All
functions are pure; nothing here keeps state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, combinations_with_replacement

import numpy as np

from .errors import (
    EmptyInputError,
    MatrixOverflowError,
    NonSquareError,
    NotPositiveDefiniteError,
    NotStableError,
    NumericalBreakdownError,
    SingularSystemError,
)

#: Condition-number gate above which an eigenvector matrix is treated as
#: numerically defective.
DIAGONALIZABLE_KAPPA_CUTOFF = 1e12

#: Degeneracy slack for the planar convex-hull predicates.
HULL_SLACK = 1e-12

#: Most rows in one block of :func:`multiset_rows`.
MULTISET_BLOCK_ROWS = 32768


def as_cmatrix(m) -> np.ndarray:
    """Coerce to a 2-d complex array, rejecting non-finite entries."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={a.ndim}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains non-finite entries")
    return a


def as_cvector(v) -> np.ndarray:
    """Coerce to a 1-d complex array, rejecting non-finite entries."""
    a = np.asarray(v, dtype=complex).reshape(-1)
    if not np.all(np.isfinite(a)):
        raise ValueError("vector contains non-finite entries")
    return a


def _require_square(m: np.ndarray) -> np.ndarray:
    a = as_cmatrix(m)
    if a.shape[0] != a.shape[1]:
        raise NonSquareError(f"matrix is {a.shape[0]}x{a.shape[1]}")
    return a


def kron2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a (x) b for two vectors or two matrices: bitwise equal to ``np.kron(a, b)``, without its overhead.

    ``np.kron`` costs about 17 us per call at n = 2, and the quadratic
    vector field takes y (x) y at every solver stage.  The kernel
    broadcasts operands shaped exactly as ``np.kron`` shapes them: numpy
    picks its complex-multiply loop (with or without FMA) from the
    operand strides, so ``y[:, None] * y`` can differ in the last bit at
    n = 1.
    """
    if a.ndim == 1:
        return (a.reshape(-1, 1) * b.reshape(1, -1)).reshape(-1)
    r, c = a.shape
    s, d = b.shape
    return (a.reshape(r, 1, c, 1) * b.reshape(1, s, 1, d)).reshape(r * s, c * d)


def spectral_norm(m: np.ndarray) -> float:
    """Largest singular value: bitwise equal to ``np.linalg.norm(m, 2)``, without its dispatch."""
    return np.linalg.svd(m, compute_uv=False)[0]


def kron_chain(mats) -> np.ndarray:
    """Kronecker product of a sequence of matrices (left factor most significant)."""
    out = np.array([[1.0 + 0j]])
    for m in mats:
        out = np.kron(out, m)
    return out


def tensor_power(x: np.ndarray, j: int) -> np.ndarray:
    """j-fold tensor power x (x) x (x) ... (x) x as a flat vector."""
    if j < 1:
        raise ValueError("tensor power requires j >= 1")
    out = np.asarray(x, dtype=complex).reshape(-1)
    base = out
    for _ in range(j - 1):
        out = np.kron(out, base)
    return out


def column_sparsity(m, rtol: float = 1e-12) -> int:
    """Max nonzero count over columns; 1 for the zero matrix by convention."""
    a = np.asarray(m, dtype=complex)
    top = np.max(np.abs(a)) if a.size else 0.0
    if top == 0.0:
        return 1
    counts = np.count_nonzero(np.abs(a) > rtol * top, axis=0)
    return int(max(counts.max(), 1))


def multiset_rows(n: int, j: int):
    """The size-j multisets of indices 0..n-1 as sorted index rows, in blocks.

    Rows come in ``combinations_with_replacement`` order, C(n+j-1, j) of
    them for j >= 1, as int64 arrays of at most
    :data:`MULTISET_BLOCK_ROWS` rows each, so a caller that reduces block
    by block holds one block at a time.
    """
    flat = chain.from_iterable(combinations_with_replacement(range(n), j))
    total = math.comb(n + j - 1, j)
    for start in range(0, total, MULTISET_BLOCK_ROWS):
        rows = min(MULTISET_BLOCK_ROWS, total - start)
        yield np.fromiter(flat, dtype=np.int64, count=rows * j).reshape(rows, j)


@dataclass(frozen=True)
class EigDecomposition:
    """Spectral factorization M = Q diag(eigenvalues) Q^{-1}.

    ``condition_number`` is kappa(Q) = ||Q|| ||Q^{-1}||; when it exceeds
    :data:`DIAGONALIZABLE_KAPPA_CUTOFF` the matrix is reported as not
    (numerically) diagonalizable and downstream certifiers decline
    rather than trusting the factors.
    """

    eigenvalues: np.ndarray
    right_vectors: np.ndarray
    inverse_vectors: np.ndarray
    condition_number: float
    diagonalizable: bool

    def reconstruct(self) -> np.ndarray:
        return self.right_vectors @ np.diag(self.eigenvalues) @ self.inverse_vectors


def eig(m) -> EigDecomposition:
    """Eigendecomposition with deterministic ordering.

    Eigenvalues are sorted by descending real part, then descending
    imaginary part, and the eigenvector columns are permuted to match.
    """
    a = _require_square(m)
    try:
        w, q = np.linalg.eig(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise NumericalBreakdownError(str(exc)) from exc
    # quantize the primary key so roundoff-level ties fall through to the
    # imaginary-part ordering deterministically
    tick = 1e-10 * max(float(np.max(np.abs(w))), 1e-300)
    order = np.lexsort((-w.imag, -np.round(w.real / tick)))
    w = w[order]
    q = q[:, order]
    try:
        qinv = np.linalg.inv(q)
        kappa = float(np.linalg.norm(q, 2) * np.linalg.norm(qinv, 2))
    except np.linalg.LinAlgError:
        qinv = np.full_like(q, np.nan)
        kappa = np.inf
    scale = max(np.linalg.norm(a, 2), 1e-300)
    if np.isfinite(kappa):
        residual = np.linalg.norm(a @ q - q @ np.diag(w), 2) / scale
        diagonalizable = kappa <= DIAGONALIZABLE_KAPPA_CUTOFF and residual <= 1e-10
    else:
        diagonalizable = False
    return EigDecomposition(w, q, qinv, kappa, diagonalizable)


def matrix_exp(m, t: float = 1.0) -> np.ndarray:
    """e^{M t} by scaling-and-squaring with a diagonal Pade kernel."""
    a = _require_square(m)
    if not np.isfinite(t):
        raise ValueError("time must be finite")
    import scipy.linalg  # only the tests and the benchmark's tracer call this

    out = scipy.linalg.expm(a * t)
    if not np.all(np.isfinite(out)):
        raise MatrixOverflowError("matrix exponential overflowed")
    return out


def log_norm(m) -> float:
    """Log-norm: largest eigenvalue of the Hermitian part (M + M^dag)/2."""
    a = _require_square(m)
    return float(np.max(np.linalg.eigvalsh((a + a.conj().T) / 2.0)))


def _pd_sqrt_factors(p: np.ndarray):
    """(P^{1/2}, P^{-1/2}) for Hermitian positive definite P."""
    a = _require_square(p)
    # an exactly Hermitian P has defect 0, which always passes the test
    if not np.array_equal(a, a.conj().T):
        herm_defect = spectral_norm(a - a.conj().T)
        if herm_defect > 1e-10 * max(spectral_norm(a), 1e-300):
            raise NotPositiveDefiniteError("weight matrix is not Hermitian")
    h = (a + a.conj().T) / 2.0
    evals, vecs = np.linalg.eigh(h)
    if evals.min() <= 0:
        raise NotPositiveDefiniteError(
            f"weight matrix has min eigenvalue {evals.min():.3e} <= 0"
        )
    root = vecs @ np.diag(np.sqrt(evals)) @ vecs.conj().T
    inv_root = vecs @ np.diag(1.0 / np.sqrt(evals)) @ vecs.conj().T
    return root, inv_root


def generalized_log_norm(m, p) -> float:
    """Log-norm in the inner product <x, y>_P = x^dag P y.

    Equals the largest eigenvalue of (1/2) P^{-1/2} (P M + M^dag P) P^{-1/2};
    reduces to :func:`log_norm` at P = I.
    """
    a = _require_square(m)
    return _factored_log_norm(a, *_pd_sqrt_factors(p))


def _factored_log_norm(a: np.ndarray, root: np.ndarray, inv_root: np.ndarray) -> float:
    """:func:`generalized_log_norm` from the factors (P^{1/2}, P^{-1/2})."""
    s = root @ a @ inv_root
    return float(np.max(np.linalg.eigvalsh((s + s.conj().T) / 2.0)))


def p_vector_norm(x, p) -> float:
    """sqrt(x^dag P x)."""
    v = as_cvector(x)
    root, _ = _pd_sqrt_factors(p)
    return float(np.linalg.norm(root @ v))


def p_norms(x, f2, f0, p) -> dict:
    """All three weighted norms entering the Lyapunov R-number at once."""
    from .errors import DimensionMismatchError

    v = as_cvector(x)
    d = as_cvector(f0)
    a = as_cmatrix(f2)
    n = np.asarray(p).shape[0]
    if v.size != n or d.size != n or a.shape != (n, n * n):
        raise DimensionMismatchError(
            f"x:{v.size} f0:{d.size} f2:{a.shape} inconsistent with weight dim {n}"
        )
    return _factored_norms(v, d, a, *_pd_sqrt_factors(p))


def _factored_norms(v, d, a, root: np.ndarray, inv_root: np.ndarray) -> dict:
    """:func:`p_norms` from the factors (P^{1/2}, P^{-1/2}), for callers that hold them."""
    return {
        "x": float(np.linalg.norm(root @ v)),
        "f0": float(np.linalg.norm(root @ d)),
        "f2": float(spectral_norm(root @ a @ kron2(inv_root, inv_root))),
    }


def solve_lyapunov(f1) -> np.ndarray:
    """Hermitian P > 0 with P F1 + F1^dag P = -I.

    Solved through the Kronecker linearization
    (F1^T (x) I + I (x) F1^dag) vec(P) = -vec(I) with column-major vec.
    By Lyapunov's theorem P exists exactly when F1 is Hurwitz, so a singular
    operator (lambda_i + conj(lambda_j) = 0) or a P that is not positive
    definite raises NotStableError; a P returned certifies
    ``generalized_log_norm(f1, P) < 0``.
    """
    a = _require_square(f1)
    n = a.shape[0]
    lhs = np.kron(a.T, np.eye(n)) + np.kron(np.eye(n), a.conj().T)
    rhs = -np.eye(n).flatten(order="F")
    try:
        vec_p = np.linalg.solve(lhs, rhs)
    except np.linalg.LinAlgError as exc:
        raise NotStableError(f"Lyapunov operator is singular: {exc}") from exc
    p = vec_p.reshape((n, n), order="F")
    p = (p + p.conj().T) / 2.0
    residual = np.linalg.norm(p @ a + a.conj().T @ p + np.eye(n), 2)
    if residual > 1e-10 * max(1.0, np.linalg.norm(p, 2)):
        raise SingularSystemError(f"Lyapunov residual {residual:.3e} too large")
    if np.linalg.eigvalsh(p).min() <= 0:
        raise NotStableError("Lyapunov solution is not positive definite")
    return p


# ---------------------------------------------------------------------------
# Planar convex-hull geometry for spectral classification


def _cross(o, a, b) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _hull_vertices(pts: np.ndarray) -> np.ndarray:
    """Convex hull (monotone chain), counter-clockwise, no repeated endpoint.

    Degenerate inputs collapse naturally: one vertex for coincident
    points, two for collinear sets.
    """
    uniq = sorted({(float(p[0]), float(p[1])) for p in pts})
    if len(uniq) == 1:
        return np.array(uniq)
    lower: list = []
    for p in uniq:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list = []
    for p in reversed(uniq):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return np.array(lower[:-1] + upper[:-1])


def _segment_distance(a, b, q=(0.0, 0.0)) -> float:
    """Distance from point q to segment [a, b]."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    q = np.asarray(q, dtype=float)
    d = b - a
    denom = float(d @ d)
    if denom == 0.0:
        return float(np.linalg.norm(q - a))
    s = np.clip(float((q - a) @ d) / denom, 0.0, 1.0)
    return float(np.linalg.norm(q - (a + s * d)))


def _origin_in_hull(verts: np.ndarray) -> bool:
    if len(verts) == 1:
        return bool(np.hypot(*verts[0]) <= HULL_SLACK)
    if len(verts) == 2:
        return _segment_distance(verts[0], verts[1]) <= HULL_SLACK
    for i in range(len(verts)):
        a = verts[i]
        b = verts[(i + 1) % len(verts)]
        if _cross(a, b, (0.0, 0.0)) < -HULL_SLACK * max(
            1.0, np.hypot(*a) * np.hypot(*b)
        ):
            return False
    return True


def _boundary_distance(verts: np.ndarray) -> float:
    """Distance from the origin to the hull's (relative) boundary."""
    if len(verts) == 1:
        return float(np.hypot(*verts[0]))
    if len(verts) == 2:
        # relative boundary of a segment is its endpoint pair
        return float(min(np.hypot(*verts[0]), np.hypot(*verts[1])))
    return min(
        _segment_distance(verts[i], verts[(i + 1) % len(verts)])
        for i in range(len(verts))
    )


@dataclass(frozen=True)
class HullStatus:
    """Position of the origin relative to the convex hull of a point set."""

    inside: bool
    separating_direction: complex | None
    distance: float
    boundary_distance: float


def origin_hull_status(points) -> HullStatus:
    """Locate the origin relative to conv{points} in the complex plane.

    When the origin lies outside, the returned unit direction ``w``
    satisfies min_i Re(conj(p_i) * w) = distance > 0 (the hull's nearest
    point provides the separating functional).
    """
    pts = np.asarray(list(points), dtype=complex).reshape(-1)
    if pts.size == 0:
        raise EmptyInputError("need at least one point")
    if not np.all(np.isfinite(pts)):
        raise ValueError("points contain non-finite values")
    xy = np.column_stack([pts.real, pts.imag])
    # roundoff-level coordinates (a real spectrum from a complex
    # eigensolver) would span a sliver hull whose short edges pass the
    # slack test on both sides of the origin; snap them onto the axis
    scale = float(np.max(np.abs(pts)))
    xy[np.abs(xy) <= HULL_SLACK * scale] = 0.0
    verts = _hull_vertices(xy)
    bdist = _boundary_distance(verts)
    if _origin_in_hull(verts):
        return HullStatus(True, None, 0.0, bdist)
    if len(verts) == 1:
        nearest = verts[0]
    else:
        m = len(verts)
        edges = [(verts[i], verts[i + 1]) for i in range(m - 1)]
        if m > 2:
            edges.append((verts[-1], verts[0]))
        best = None
        nearest = verts[0]
        for a, b in edges:
            d = np.asarray(b, dtype=float) - np.asarray(a, dtype=float)
            denom = float(d @ d)
            s = 0.0 if denom == 0.0 else np.clip(float(-(a @ d)) / denom, 0.0, 1.0)
            cand = np.asarray(a, dtype=float) + s * d
            dist = float(np.linalg.norm(cand))
            if best is None or dist < best:
                best = dist
                nearest = cand
    dist = float(np.linalg.norm(nearest))
    direction = complex(nearest[0], nearest[1]) / dist
    return HullStatus(False, direction, dist, bdist)
