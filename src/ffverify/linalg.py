"""Linear algebra over labeled tensor-product spaces.

A local operator is a plain matrix together with its support, an ordered
tuple of nodes whose tensor factors the matrix follows, and a mapping from
node to dimension; `make_plan` and `embed` take the same four arguments
(matrix, support, node_order, node_dims) and check them alike.  Local
operators act on full-space vectors through compiled apply plans, and
every spectral solve is matrix-free (Lanczos iteration) above
DENSE_EIG_LIMIT; at or below it the operator is materialized from its action
and diagonalized by LAPACK.  The dense helpers (`embed`, `eigh`, the norms)
serve small local spaces, such as the joint support of two projectors;
`embed` is also the kron oracle of `make_plan`.  Dense full-space oracles
live with the tests.  Operators whose local matrices are real to REAL_TOL
are applied and solved in real arithmetic, complex ones in complex.

Every solve goes through `_eigsh`, which alone sets the solver policy:
LANCZOS_TOL, a fixed start vector, ARPACK_MAX_RESTARTS, ARPACK failures as
ResourceError, real or complex arithmetic as the operator returns it, and
the BLAS thread policy: from the first Lanczos solve on, numpy's and scipy's
OpenBLAS pools run one thread each, unless OPENBLAS_NUM_THREADS,
GOTO_NUM_THREADS or OMP_NUM_THREADS is set.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

from .errors import InputError, ResourceError
from .tolerances import (ARPACK_MAX_RESTARTS, DENSE_EIG_LIMIT, HERMITIAN_TOL,
                         LANCZOS_TOL, PROJECTOR_TOL, REAL_TOL)

NodeDims = Mapping[int, int]


def hermiticity_defect(matrix: np.ndarray) -> float:
    """Largest entry of |A - A^dagger|."""
    return float(np.max(np.abs(matrix - matrix.conj().T))) if matrix.size else 0.0


@dataclass(frozen=True, eq=False)
class ApplyPlan:
    """Precompiled application of a local operator to full-space vectors."""

    matrix: np.ndarray          # factors permuted so the axes are ascending
    axes: tuple[int, ...]       # ascending tensor axes the operator acts on
    shape: tuple[int, ...]      # full tensor shape
    block: tuple[int, int, int] | None = None  # (left, d_e, right) for adjacent axes

    def __call__(self, vec: np.ndarray) -> np.ndarray:
        if self.block is not None:
            left, d_e, right = self.block
            if right == 1:
                return (vec.reshape(left, d_e) @ self.matrix.T).reshape(-1)
            return np.matmul(self.matrix, vec.reshape(self.block)).reshape(-1)
        k = len(self.axes)
        sub = tuple(self.shape[a] for a in self.axes)
        t = vec.reshape(self.shape)
        m = self.matrix.reshape(sub + sub)
        t = np.tensordot(m, t, axes=(tuple(range(k, 2 * k)), self.axes))
        t = np.moveaxis(t, tuple(range(k)), self.axes)
        return t.reshape(-1)


def _check_support(matrix: np.ndarray, support: Sequence[int], node_order: Sequence[int],
                   node_dims: NodeDims) -> tuple[np.ndarray, tuple[int, ...], list[int]]:
    """The matrix as complex, the support as ints and the support's node
    dimensions, once the support is checked to name distinct nodes of
    node_order whose dimensions match the matrix."""
    matrix = np.asarray(matrix, dtype=complex)
    support = tuple(int(v) for v in support)
    if len(set(support)) != len(support):
        raise InputError(f"support {support} repeats a node")
    missing = sorted(set(support) - set(node_order))
    if missing:
        raise InputError(f"support nodes {missing} absent from node order")
    dims = [node_dims[v] for v in support]
    d = math.prod(dims)
    if matrix.shape != (d, d):
        raise InputError(f"matrix shape {matrix.shape} does not match support dimension {d}")
    return matrix, support, dims


def make_plan(matrix: np.ndarray, support: Sequence[int],
              node_order: Sequence[int], node_dims: NodeDims) -> ApplyPlan:
    """Compile a local operator into an ApplyPlan for the given node order.

    The matrix's tensor factors follow `support`.  A matrix that is real to
    REAL_TOL is stored real, so real vectors stay real.
    """
    order = tuple(int(v) for v in node_order)
    matrix, support, dims = _check_support(matrix, support, order, node_dims)
    if np.abs(matrix.imag).max(initial=0.0) <= REAL_TOL:
        matrix = matrix.real
    axes = [order.index(v) for v in support]
    perm = sorted(range(len(axes)), key=lambda i: axes[i])
    sorted_axes = tuple(axes[i] for i in perm)
    k = len(dims)
    tensor = matrix.reshape(tuple(dims) * 2)
    tensor = tensor.transpose(tuple(perm) + tuple(k + i for i in perm))
    d_e = math.prod(dims)
    compiled = np.ascontiguousarray(tensor.reshape(d_e, -1))
    shape = tuple(node_dims[v] for v in order)
    block = None
    if k and sorted_axes[-1] - sorted_axes[0] == k - 1:
        first, last = sorted_axes[0], sorted_axes[-1]
        block = (math.prod(shape[:first]), d_e, math.prod(shape[last + 1:]))
    return ApplyPlan(compiled, sorted_axes, shape, block)


def embed(matrix: np.ndarray, support: Sequence[int],
          node_order: Sequence[int], node_dims: NodeDims) -> np.ndarray:
    """Dense matrix of a local operator tensored with the identity on the
    other nodes of node_order, by kron: the independent oracle for `make_plan`.

    The matrix's tensor factors follow `support`; the result's follow node_order.
    """
    order = tuple(int(v) for v in node_order)
    matrix, support, _ = _check_support(matrix, support, order, node_dims)
    comp = [v for v in order if v not in support]
    big = np.kron(matrix, np.eye(math.prod(node_dims[v] for v in comp)))
    source = list(support) + comp
    tensor = big.reshape(tuple(node_dims[v] for v in source) * 2)
    perm = [source.index(v) for v in order]
    n = len(order)
    tensor = tensor.transpose(tuple(perm) + tuple(n + i for i in perm))
    total = math.prod(node_dims[v] for v in order)
    return tensor.reshape(total, total)


def eigh(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix (to HERMITIAN_TOL), eigenvalues
    ascending."""
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise InputError("eigh needs a square matrix")
    if matrix.size == 0:
        raise InputError("eigh needs a nonempty matrix")
    defect = hermiticity_defect(matrix)
    if defect > HERMITIAN_TOL:
        raise InputError(f"matrix is not Hermitian (defect {defect:.2e})")
    vals, vecs = scipy.linalg.eigh(matrix)
    return vals, vecs


def singular_values(matrix: np.ndarray) -> np.ndarray:
    """Singular values in descending order."""
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.size == 0:
        raise InputError("empty matrix")
    return scipy.linalg.svdvals(matrix)


def operator_norm(matrix: np.ndarray) -> float:
    """Largest singular value."""
    return float(singular_values(matrix)[0])


def commutator_norm(a: np.ndarray, b: np.ndarray) -> float:
    return operator_norm(a @ b - b @ a)


def is_projector(matrix: np.ndarray) -> bool:
    """Hermitian and idempotent, each to PROJECTOR_TOL."""
    matrix = np.asarray(matrix, dtype=complex)
    if hermiticity_defect(matrix) > PROJECTOR_TOL:
        return False
    return operator_norm(matrix @ matrix - matrix) < PROJECTOR_TOL


# ---------------------------------------------------------------------------
# matrix-free spectral helpers

def deflate(basis: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """(1 - Q) vec for the projector Q onto the orthonormal columns of basis."""
    return vec - basis @ (basis.conj().T @ vec)


@functools.cache
def _blas_thread_policy() -> None:
    """Run numpy's and scipy's OpenBLAS pools on one thread each, once.

    numpy (ILP64, the apply kernels' matmul) and scipy (LP64, ARPACK) load
    separate OpenBLAS copies, each with a pool of one thread per core; on the
    small BLAS calls of a Lanczos solve the two pools contend for the cores
    and slow the solve down, so one thread each is faster.  A thread count
    the user set in the environment is left alone.
    """
    if any(name in os.environ
           for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")):
        return
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:  # not Linux: no loaded libraries to look up
        return
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads"):
            setter = getattr(lib, symbol, None)
            if setter is not None:
                setter(1)


def _eigsh(matvec: Callable[[np.ndarray], np.ndarray], dim: int, k: int,
           which: str) -> tuple[np.ndarray, np.ndarray]:
    """k eigenpairs at the `which` end ("SA" or "LA") of a Hermitian operator
    given by its action, eigenvalues ascending; real if it keeps float64 real.

    Up to DENSE_EIG_LIMIT the operator is materialized column by column and
    diagonalized by LAPACK.  Above it ARPACK runs Lanczos (float64 takes the
    symmetric dsaupd path) within ARPACK_MAX_RESTARTS restarts; running out of
    them, or any other ARPACK failure, is a ResourceError.  The first Lanczos
    solve applies the BLAS thread policy (`_blas_thread_policy`).
    """
    if dim <= DENSE_EIG_LIMIT:
        matrix = np.column_stack([matvec(col) for col in np.eye(dim)])
        vals, vecs = scipy.linalg.eigh((matrix + matrix.conj().T) / 2)
        pick = slice(0, k) if which == "SA" else slice(max(dim - k, 0), dim)
        return vals[pick], vecs[:, pick]
    if k >= dim - 1:
        raise ResourceError(
            f"{k} eigenpairs of dimension {dim} saturate the iterative eigensolver")
    _blas_thread_policy()
    v0 = np.random.default_rng(7).standard_normal(dim)  # fixed: reproducible solves
    # one float64 probe: scipy's own inference probes with int8, kept by `2 * v`
    dtype = np.result_type(float, matvec(v0).dtype)
    op = scipy.sparse.linalg.LinearOperator((dim, dim), matvec=matvec, dtype=dtype)
    try:
        vals, vecs = scipy.sparse.linalg.eigsh(
            op, k=k, which=which, tol=LANCZOS_TOL, v0=v0, maxiter=ARPACK_MAX_RESTARTS)
    except scipy.sparse.linalg.ArpackNoConvergence as exc:
        raise ResourceError(
            f"Lanczos did not converge within {ARPACK_MAX_RESTARTS} restarts "
            f"(d={dim}, k={k}, {len(exc.eigenvalues)} of {k} converged)") from exc
    except scipy.sparse.linalg.ArpackError as exc:
        raise ResourceError(f"Lanczos failed (d={dim}, k={k}): {exc}") from exc
    order = np.argsort(vals)
    return vals[order], vecs[:, order]


def lowest_eigenpairs(matvec: Callable[[np.ndarray], np.ndarray], dim: int,
                      below: float) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs below `below` plus the lowest at or above it (all if none is),
    ascending; one dense solve up to DENSE_EIG_LIMIT, Lanczos k = 2, 4, 8... above."""
    k = dim if dim <= DENSE_EIG_LIMIT else 2
    while True:
        vals, vecs = _eigsh(matvec, dim, k, "SA")
        count = int(np.sum(vals < below)) + 1
        if count <= k or k == dim:
            return vals[:count], vecs[:, :count]
        k = min(2 * k, dim)


def largest_eigenpair(matvec: Callable[[np.ndarray], np.ndarray],
                      dim: int) -> tuple[float, np.ndarray]:
    vals, vecs = _eigsh(matvec, dim, 1, "LA")
    return float(vals[0]), vecs[:, 0]


def largest_eigenvalue(matvec: Callable[[np.ndarray], np.ndarray], dim: int) -> float:
    """Largest eigenvalue of a Hermitian operator given by its action."""
    return largest_eigenpair(matvec, dim)[0]


def product_operator_norm(apply_m: Callable[[np.ndarray], np.ndarray],
                          apply_m_adjoint: Callable[[np.ndarray], np.ndarray], dim: int) -> float:
    """Operator norm of M given the actions of M and M^dagger (via M^dagger M)."""
    def gram(v):
        return apply_m_adjoint(apply_m(v))

    top = largest_eigenvalue(gram, dim)
    return math.sqrt(max(top, 0.0))
