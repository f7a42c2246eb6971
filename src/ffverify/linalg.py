"""Linear algebra over labeled tensor-product spaces.

A local operator is a plain matrix together with its support, an ordered
tuple of nodes whose tensor factors the matrix follows, and a mapping from
node to dimension; `make_plan` and `embed` take the same four arguments
(matrix, support, node_order, node_dims) and check them alike.  Compiled
plans, and the operators built from them, act alike on one vector of length
n and on an (n, b) block of b column vectors.  Every spectral solve is
matrix-free (Lanczos iteration) above DENSE_EIG_LIMIT; at or below it the
operator is materialized by one apply to the identity.  The dense helpers
(`embed`, `eigh`, the norms) serve small local spaces on numpy's LAPACK and
refuse NaN and infinite entries; `embed` is also the kron oracle of
`make_plan`.  A yes/no tolerance test (`norm_below`, and `is_projector`
through it) is decided from the Frobenius norm F, since
||A|| <= F <= sqrt(rank) ||A||, with an SVD only when F falls inside that
bracket; a reported norm comes from an SVD or, for a Hermitian matrix, its
eigenvalues.  Dense full-space oracles live with the tests.  Matrices real to
REAL_TOL are applied and solved in real arithmetic, complex ones in complex.

`LocalOperators`, local operators by support, is the one place that decides
the space they act and are solved in: the `Sector` of lowest total S_z when
every matrix is SU(2)-invariant (`is_su2_invariant`, a node of dimension d
carrying spin (d - 1)/2 in the basis m = S, ..., -S), where every multiplet
has a member, else the full space.  `Sector.plan` compiles one local matrix
for sector vectors without a full-space vector or a sparse matrix;
`Sector.lift` and `Sector.multiplets` take sector vectors and kernels to the
full space, for callers that ask for it.

Every solve goes through `_eigsh`, which answers one question, the k lowest
eigenpairs (a top pair is the lowest of -A), and alone sets the solver
policy: the dense floor, LANCZOS_TOL, fixed start vectors from a
counter-based SplitMix64 stream (no random-number module is loaded),
LANCZOS_MAX_RESTARTS, solver failures as ResourceError, and real or complex
arithmetic as the operator returns it.  Above the dense floor `_lanczos`, a
thick-restart Lanczos on numpy alone, does the work, Hermitian throughout.
BLAS threads are numpy's: set OPENBLAS_NUM_THREADS to change them.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import InputError, InvariantViolation, ResourceError
from .tolerances import (COMMUTE_TOL, DENSE_EIG_LIMIT, HERMITIAN_TOL, LANCZOS_MAX_RESTARTS,
                         LANCZOS_TOL, PROJECTOR_TOL, REAL_TOL, SPIN_CLUSTER_TOL,
                         UNIT_SV_TOL)

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
        """The operator on a full-space vector, or on each column of an
        (n, b) block of them."""
        if self.block is not None:
            left, d_e, right = self.block
            if right == 1 and vec.ndim == 1:
                return (vec.reshape(left, d_e) @ self.matrix.T).reshape(-1)
            # a block's columns ride along as the minor part of `right`
            return np.matmul(self.matrix, vec.reshape(left, d_e, -1)).reshape(vec.shape)
        k = len(self.axes)
        sub = tuple(self.shape[a] for a in self.axes)
        t = vec.reshape(self.shape + vec.shape[1:])
        m = self.matrix.reshape(sub + sub)
        t = np.tensordot(m, t, axes=(tuple(range(k, 2 * k)), self.axes))
        t = np.moveaxis(t, tuple(range(k)), self.axes)
        return t.reshape(vec.shape)


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


def real_if_close(matrix: np.ndarray) -> np.ndarray:
    """The matrix's real part when every imaginary part is within REAL_TOL of
    zero, else the matrix: the one rule for what is applied and solved in real
    arithmetic."""
    return matrix.real if np.abs(matrix.imag).max(initial=0.0) <= REAL_TOL else matrix


def make_plan(matrix: np.ndarray, support: Sequence[int],
              node_order: Sequence[int], node_dims: NodeDims) -> ApplyPlan:
    """Compile a local operator into an ApplyPlan for the given node order.

    The matrix's tensor factors follow `support`.  It is stored through
    `real_if_close`, so real vectors stay real.
    """
    order = tuple(int(v) for v in node_order)
    matrix, support, dims = _check_support(matrix, support, order, node_dims)
    matrix = real_if_close(matrix)
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
    ascending; a real matrix keeps real eigenvectors."""
    matrix = np.asarray(matrix)
    matrix = matrix.astype(np.result_type(float, matrix.dtype), copy=False)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise InputError("eigh needs a square matrix")
    if matrix.size == 0:
        raise InputError("eigh needs a nonempty matrix")
    _check_finite(matrix)
    defect = hermiticity_defect(matrix)
    if defect > HERMITIAN_TOL:
        raise InputError(f"matrix is not Hermitian (defect {defect:.2e})")
    vals, vecs = np.linalg.eigh(matrix)
    return vals, vecs


def singular_values(matrix: np.ndarray) -> np.ndarray:
    """Singular values in descending order."""
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.size == 0:
        raise InputError("empty matrix")
    _check_finite(matrix)
    return np.linalg.svd(matrix, compute_uv=False)


def largest_nonunit_singular_value(matrix: np.ndarray) -> float:
    """Largest singular value below 1 - UNIT_SV_TOL, or 0.0 if there is none:
    the s of two projectors P, Q, read off PQ."""
    svals = singular_values(matrix)
    below = svals[svals < 1.0 - UNIT_SV_TOL]
    return float(below[0]) if len(below) else 0.0


def _check_finite(matrix: np.ndarray) -> None:
    """Refuse NaN and infinite entries, which LAPACK would turn into NaN
    results or a convergence failure."""
    if not np.isfinite(matrix).all():
        raise InputError("matrix has a NaN or infinite entry")


def operator_norm(matrix: np.ndarray) -> float:
    """Largest singular value."""
    return float(singular_values(matrix)[0])


# relative margin by which the Frobenius norm must clear either end of
# `norm_below`'s bracket, so rounding in it or in the SVD cannot split a decision
_BRACKET_MARGIN = 1e-12


def norm_below(matrix: np.ndarray, tol: float) -> bool:
    """Whether the operator norm of a matrix is below tol, as
    `operator_norm(matrix) < tol` decides it.

    ||A|| <= F <= sqrt(r) ||A|| for the Frobenius norm F and r = min(shape),
    so F < tol means yes and F >= tol sqrt(r) means no; only in between is
    the SVD taken.
    """
    matrix = np.asarray(matrix)
    if matrix.size == 0:
        raise InputError("empty matrix")
    _check_finite(matrix)
    frobenius = float(np.linalg.norm(matrix))
    if frobenius < tol * (1.0 - _BRACKET_MARGIN):
        return True
    if frobenius >= tol * math.sqrt(min(matrix.shape)) * (1.0 + _BRACKET_MARGIN):
        return False
    return operator_norm(matrix) < tol


def is_projector(matrix: np.ndarray) -> bool:
    """Square, Hermitian and idempotent, each to PROJECTOR_TOL."""
    matrix = np.asarray(matrix, dtype=complex)
    _check_finite(matrix)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        return False
    if hermiticity_defect(matrix) > PROJECTOR_TOL:
        return False
    return norm_below(matrix @ matrix - matrix, PROJECTOR_TOL)


# ---------------------------------------------------------------------------
# spins and the lowest total-S_z sector

@functools.lru_cache(maxsize=None)
def spin_operators(twice_s: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(S_x, S_y, S_z) in the basis m = S, S-1, ..., -S, for spin S = twice_s/2."""
    if twice_s < 1:
        raise InputError("spin must be at least 1/2")
    s = twice_s / 2
    d = twice_s + 1
    m = s - np.arange(d)
    sz = np.diag(m).astype(complex)
    # <m+1| S_+ |m> = sqrt(S(S+1) - m(m+1))
    raising = np.zeros((d, d), dtype=complex)
    for i in range(1, d):
        mm = m[i]
        raising[i - 1, i] = math.sqrt(s * (s + 1) - mm * (mm + 1))
    sx = (raising + raising.conj().T) / 2
    sy = (raising - raising.conj().T) / (2j)
    for a in (sx, sy, sz):
        a.setflags(write=False)
    return sx, sy, sz


@functools.lru_cache(maxsize=None)
def _total_spin(dims: tuple[int, ...], component: int) -> np.ndarray:
    """Component (0 = x, 2 = z) of the total spin of nodes with dimensions
    dims, node j carrying spin (d_j - 1)/2; read-only."""
    total = np.zeros((math.prod(dims),) * 2, dtype=complex)
    for j, d in enumerate(dims):
        if d > 1:
            one = np.kron(np.eye(math.prod(dims[:j])), spin_operators(d - 1)[component])
            total += np.kron(one, np.eye(math.prod(dims[j + 1:])))
    total.setflags(write=False)
    return total


def is_su2_invariant(matrix: np.ndarray, dims: Sequence[int]) -> bool:
    """Whether a local operator, whose tensor factors have dimensions dims,
    commutes with the total S_z and S_x of its support, node j carrying spin
    (d_j - 1)/2; commuting with both, it commutes with S_y too.  Each
    commutator is held to COMMUTE_TOL in the Frobenius norm, which bounds
    the operator norm and needs no SVD."""
    for component in (2, 0):
        total = _total_spin(tuple(dims), component)
        if np.linalg.norm(matrix @ total - total @ matrix) > COMMUTE_TOL:
            return False
    return True


@dataclass(frozen=True, eq=False)
class SectorPlan:
    """Precompiled application of one local operator, which conserves its
    support's total S_z, to sector vectors.

    A group's rows are its local states' sector positions, a (local states,
    rest states) view of the support's layout, which every plan on the
    support shares.  A call copies its input once and rewrites each group's
    rows in place with its block; 1 x 1 blocks scale, and a group whose block
    is 1 is left out, its rows as copied."""

    groups: tuple[tuple[np.ndarray, np.ndarray], ...]  # ((n, n) block, (n, rest) rows)
    dtype: np.dtype

    def __call__(self, vec: np.ndarray) -> np.ndarray:
        """The operator on a sector vector, or on each column of an (n, b)
        block of them."""
        x = vec.astype(np.result_type(self.dtype, vec.dtype), order="C")
        # x's rows (an entry, or a block's b columns) as opaque items: 1-D indexing
        item = np.dtype((np.void, x.nbytes // len(x)))
        items = x.view(item).reshape(len(x))
        for block, rows in self.groups:
            part = items[rows].view(x.dtype)  # the columns ride along in the rest
            part = part * block if len(block) == 1 else block @ part
            items[rows] = part.view(item)
        return x


@dataclass(frozen=True, eq=False)
class Sector:
    """The basis states of lowest total S_z, M0 = 0 or 1/2, of the nodes of
    node_order, node j carrying spin (d_j - 1)/2: the solve space of
    SU(2)-invariant operators, whose every multiplet has a member in it.

    A sector vector lists amplitudes in the order of `index`, the sorted
    full-space indices of the sector's states.  Build one with `Sector.of`.
    """

    node_order: tuple[int, ...]
    shape: tuple[int, ...]   # node dimensions in node order
    index: np.ndarray
    _layouts: dict = field(default_factory=dict, repr=False)

    @classmethod
    def of(cls, node_order: Sequence[int], node_dims: NodeDims) -> "Sector":
        order = tuple(int(v) for v in node_order)
        shape = tuple(int(node_dims[v]) for v in order)
        # S_z of a basis state is sum_j ((d_j - 1)/2 - digit_j): the sector holds
        # the digit sums floor(sum_j (d_j - 1) / 2), grown node by node and
        # pruned of prefixes that can no longer reach that sum
        target = sum(d - 1 for d in shape) // 2
        room = sum(d - 1 for d in shape)
        index = digit_sum = np.zeros(1, dtype=np.int64)
        for d in shape:
            room -= d - 1
            index = (index[:, None] * d + np.arange(d)).ravel()
            digit_sum = (digit_sum[:, None] + np.arange(d)).ravel()
            keep = (digit_sum <= target) & (digit_sum + room >= target)
            index, digit_sum = index[keep], digit_sum[keep]
        index.setflags(write=False)
        return cls(order, shape, index)

    @property
    def dim(self) -> int:
        return len(self.index)

    @property
    def twice_m(self) -> int:
        """2 M0: 0, or 1 when sum_j (d_j - 1) is odd."""
        return sum(d - 1 for d in self.shape) % 2

    def _layout(self, support: tuple[int, ...]) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """The layout of every SectorPlan on `support`, built once: for each
        total S_z of the support, its local states and their slice of one
        int64 array of sector positions."""
        if support not in self._layouts:
            axes = [self.node_order.index(v) for v in support]
            dims = [self.shape[a] for a in axes]
            strides = [math.prod(self.shape[a + 1:]) for a in axes]
            digits = [(self.index // s) % d for s, d in zip(strides, dims)]
            local = np.ravel_multi_index(digits, dims)
            local_sum = np.indices(dims).reshape(len(dims), -1).sum(axis=0)
            by_sum = np.argsort(local_sum, kind="stable")
            rank = np.empty(len(by_sum), dtype=np.min_scalar_type(len(by_sum)))
            rank[by_sum] = np.arange(len(by_sum))
            # index is sorted and the sort is stable, so each local state keeps its
            # positions in sector order, which is the order of their rest states:
            # the rows of a group's local states line up only because of it
            positions = np.argsort(rank[local], kind="stable")
            counts = np.bincount(local_sum[local], minlength=local_sum.max() + 1)
            totals = np.flatnonzero(counts)
            self._layouts[support] = tuple(
                (by_sum[local_sum[by_sum] == total], part) for total, part
                in zip(totals, np.split(positions, np.cumsum(counts[totals])[:-1])))
        return self._layouts[support]

    def plan(self, matrix: np.ndarray, support: Sequence[int]) -> SectorPlan:
        """Compile one local operator that conserves its support's total S_z.
        The matrix is stored through `real_if_close`, as in `make_plan`, and
        the plan indexes through the support's layout, built once."""
        matrix, support, dims = _check_support(matrix, support, self.node_order,
                                               dict(zip(self.node_order, self.shape)))
        matrix = real_if_close(matrix)
        local_sum = np.indices(dims).reshape(len(dims), -1).sum(axis=0)
        leak = np.abs(matrix[local_sum[:, None] != local_sum]).max(initial=0.0)
        if leak > COMMUTE_TOL:
            raise InputError(f"operator on {support} changes S_z ({leak:.2e})")
        groups = tuple((matrix[np.ix_(states, states)], positions.reshape(len(states), -1))
                       for states, positions in self._layout(support)
                       if len(states) > 1 or matrix[states[0], states[0]] != 1)
        return SectorPlan(groups, matrix.dtype)

    def lift(self, vecs: np.ndarray) -> np.ndarray:
        """Sector vectors (or the columns of a matrix of them) in the full space."""
        full = np.zeros((math.prod(self.shape),) + vecs.shape[1:], dtype=vecs.dtype)
        full[self.index] = vecs
        return full

    def multiplets(self, kernel: np.ndarray) -> np.ndarray:
        """Full-space orthonormal basis of the SU(2) multiplets through the
        orthonormal columns of `kernel`, sector vectors that span the sector
        part of an SU(2)-invariant space.

        S^+ S^- is (S + M0)(S - M0 + 1) on a spin-S vector of the sector, so
        its eigenvectors on the span give each multiplet's member in the
        sector and its spin; the ladder operators S^+ and S^- give the other
        members.  Real kernels give real bases."""
        node_dims = dict(zip(self.node_order, self.shape))
        up, down = [], []
        for v, d in node_dims.items():
            if d > 1:
                sx, sy, _ = spin_operators(d - 1)
                up.append(make_plan(sx + 1j * sy, (v,), self.node_order, node_dims))
                down.append(make_plan(sx - 1j * sy, (v,), self.node_order, node_dims))

        def ladder(plans, vec):
            out = sum(plan(vec) for plan in plans)
            return out / np.linalg.norm(out)

        full = self.lift(kernel)
        lowered = np.zeros_like(full)  # S^- is real in the S_z basis
        for i, plan in itertools.product(range(full.shape[1]), down):
            lowered[:, i] += plan(full[:, i])  # one plan output at a time
        # <a| S^+ S^- |b> = <S^- a|S^- b>; then only the rotated lift is kept
        vals, rot = eigh(lowered.conj().T @ lowered)
        del lowered
        full = full @ rot
        m0 = self.twice_m / 2
        basis = []
        for val, member in zip(vals, full.T):
            spin = math.sqrt(max(val, 0.0) + (m0 - 0.5) ** 2) - 0.5
            twice_s = 2 * round(spin - m0) + self.twice_m
            if abs(val - (twice_s / 2 + m0) * (twice_s / 2 - m0 + 1)) > SPIN_CLUSTER_TOL:
                raise InvariantViolation(
                    f"S^+ S^- eigenvalue {val:.6g} on the kernel belongs to no spin")
            above, below = [], []
            for steps, plans, out in (((twice_s - self.twice_m) // 2, up, above),
                                      ((twice_s + self.twice_m) // 2, down, below)):
                vec = member
                for _ in range(steps):
                    vec = ladder(plans, vec)
                    out.append(vec)
            basis += above[::-1] + [member] + below
        return np.column_stack(basis)


@dataclass(frozen=True, eq=False)
class LocalOperators:
    """Local operators, one matrix per support, on the nodes of node_order,
    with their dtype, their solve space and the plans of each space, all
    built on first use.  Built with `sector_of`, the set shares that set's
    Sector object, and so its layouts, when both sets are invariant."""

    matrices: Mapping[tuple[int, ...], np.ndarray]
    node_order: tuple[int, ...]
    node_dims: NodeDims
    sector_of: LocalOperators | None = None

    @property
    def dim(self) -> int:
        return math.prod(self.node_dims[v] for v in self.node_order)

    @functools.cached_property
    def dtype(self) -> np.dtype:
        """float64 when every matrix is real to REAL_TOL, else complex128."""
        return np.result_type(float, *(real_if_close(m).dtype
                                       for m in self.matrices.values()))

    @functools.cached_property
    def sector(self) -> Sector | None:
        """The lowest total-S_z sector when every matrix is SU(2)-invariant,
        else None (the full space)."""
        if not all(is_su2_invariant(m, [self.node_dims[v] for v in support])
                   for support, m in self.matrices.items()):
            return None
        if self.sector_of is not None:
            return self.sector_of.sector
        return Sector.of(self.node_order, self.node_dims)

    @functools.cached_property
    def _full_plans(self) -> dict[tuple[int, ...], ApplyPlan]:
        return {support: make_plan(m, support, self.node_order, self.node_dims)
                for support, m in self.matrices.items()}

    @functools.cached_property
    def _sector_plans(self) -> dict[tuple[int, ...], SectorPlan]:
        return {support: self.sector.plan(m, support) for support, m in self.matrices.items()}

    def plans(self, vec: np.ndarray) -> dict:
        """The plans by support for vec, one vector or an (n, b) block, picked
        by its length: the full space's or the sector's, else an InputError."""
        if len(vec) == self.dim:
            return self._full_plans
        if self.sector is not None and len(vec) == self.sector.dim:
            return self._sector_plans
        sector = "" if self.sector is None else f" or {self.sector.dim} (sector)"
        raise InputError(f"vector of length {len(vec)}: expected {self.dim} (full space){sector}")


# ---------------------------------------------------------------------------
# matrix-free spectral helpers

def deflate(basis: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """(1 - Q) vec for the projector Q onto the orthonormal columns of basis."""
    return vec - basis @ (basis.conj().T @ vec)


#: SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): its state increment and
#: the multipliers of its output mix
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_SPLITMIX_MIX = (0xBF58476D1CE4E5B9, 0x94D049BB133111EB)


def _start_vector(dim: int, block: int) -> np.ndarray:
    """Unit vector number `block` of `_lanczos`'s start stream.

    Entry i is SplitMix64 output number block * dim + i from seed 0 (the seed
    of its published reference outputs), mapped to [-1, 1): a counter-based
    generator in a few numpy uint64 array operations.  Solves so stay
    reproducible without loading a random-number module."""
    z = np.arange(block * dim + 1, (block + 1) * dim + 1, dtype=np.uint64)
    z *= _SPLITMIX_GAMMA  # the state that output number block * dim + i is mixed from
    for shift, mix in zip((30, 27), _SPLITMIX_MIX):
        z ^= z >> shift
        z *= mix
    z ^= z >> 31
    vec = (z >> 11).astype(float)  # the top 53 bits
    vec *= 2.0 ** -52
    vec -= 1.0
    return vec / np.linalg.norm(vec)


def _lanczos(matvec: Callable[[np.ndarray], np.ndarray], dim: int,
             k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k lowest eigenpairs of a Hermitian operator of dimension
    dim > k + 1, eigenvalues ascending, by thick-restart Lanczos
    with full reorthogonalization (Wu & Simon, SIAM J. Matrix Anal. Appl. 22,
    602, 2000).

    The basis holds m = min(dim, max(2k + 1, 20)) rows plus the residual
    direction, in float64 unless the operator returns complex vectors.  A
    pair has converged when its Ritz residual estimate is at most
    LANCZOS_TOL max(|theta|, eps^(2/3)), ARPACK's test.  Each restart keeps
    the lowest Ritz vectors, rotated into the basis in place,
    and the projected matrix becomes their Ritz values bordered by an arrow
    of couplings to the residual direction.  That matrix stays exactly
    tridiagonal plus the arrow: Gram-Schmidt's other coefficients, couplings
    at the rounding level, are dropped.  The convergence test relies on it, as
    a pair near zero must bring its residual estimate down to LANCZOS_TOL
    eps^(2/3), about 3.7e-23: with those couplings kept in T, the sector solve
    of the closed chain of 6 (d = 141, k = 2) ends its LANCZOS_MAX_RESTARTS
    restarts with the pair at theta ~ -4e-16 still at an estimate of 3e-17.
    The basis starts from the first vector of a fixed start stream
    (`_start_vector`); its next vector, made orthogonal to the basis, goes on
    only when no Gram-Schmidt pass keeps 0.717 of the remainder before it,
    else the last remainder, rounding residue or not, does.  Running out of
    LANCZOS_MAX_RESTARTS restarts, or a NaN or infinite operator output, is a
    ResourceError.
    """
    m = min(dim, max(2 * k + 1, 20))
    stream = itertools.count()  # the number of the next start-stream vector
    v = _start_vector(dim, next(stream))
    w = matvec(v)
    basis = np.empty((m + 1, dim), dtype=np.result_type(float, w.dtype))
    basis[0] = v
    real = basis.dtype == np.float64

    def coefficients(rows: np.ndarray, vec: np.ndarray) -> np.ndarray:
        """rows^dagger vec, without a conjugated copy of the rows."""
        return rows @ vec if real else (rows @ vec.conj()).conj()

    def fresh(j: int) -> np.ndarray:
        """The next start-stream vector, made orthogonal to the first j basis
        rows and normalized."""
        vec = _start_vector(dim, next(stream))
        for _ in range(2):
            vec = vec - coefficients(basis[:j], vec) @ basis[:j]
        return vec / np.linalg.norm(vec)

    diag = np.zeros(m)      # T[j, j]
    beta = np.zeros(m)      # T[j + 1, j] from the recurrence; beta[m - 1] couples to the residual
    kept, arrow = 0, np.zeros(0)  # Ritz pairs kept at a restart, their couplings to row `kept`
    eps23 = np.finfo(float).eps ** (2 / 3)
    restarts = 0
    while True:
        for j in range(kept, m):
            if j > 0 or restarts:  # the first product is the dtype probe's
                w = matvec(basis[j])
            w_norm = np.linalg.norm(w)
            if not np.isfinite(w_norm):
                raise ResourceError(f"Lanczos failed (d={dim}, k={k}): the operator "
                                    "returned a NaN or infinite entry")
            # classical Gram-Schmidt against the whole basis, repeated up to
            # twice where it cancels (ARPACK's DGKS test); only h[j] enters T
            diag[j], norm = 0.0, w_norm
            for _ in range(3):
                h = coefficients(basis[:j + 1], w)
                w = w - h @ basis[:j + 1]
                diag[j] += h[j].real
                w_norm, norm = norm, np.linalg.norm(w)
                if norm > 0.717 * w_norm:
                    break
            else:  # w lies in the basis: an invariant subspace
                norm = 0.0
            beta[j] = norm
            if norm > 0.0:
                basis[j + 1] = w / norm
            elif j + 1 < m:
                basis[j + 1] = fresh(j + 1)
        t = np.diag(diag)
        t[kept, :kept] = t[:kept, kept] = arrow
        steps = np.arange(kept, m - 1)
        t[steps + 1, steps] = t[steps, steps + 1] = beta[kept:m - 1]
        theta, y = np.linalg.eigh(t)
        residual = np.abs(beta[m - 1] * y[m - 1, :k])
        done = int(np.sum(residual <= LANCZOS_TOL * np.maximum(np.abs(theta[:k]), eps23)))
        if done == k:
            return theta[:k], basis[:m].T @ y[:, :k]
        if restarts == LANCZOS_MAX_RESTARTS:
            raise ResourceError(
                f"Lanczos did not converge within {LANCZOS_MAX_RESTARTS} restarts "
                f"(d={dim}, k={k}, {done} of {k} converged)")
        restarts += 1
        # keep the wanted pairs and half the others: keeping only the wanted
        # ones stalls on degenerate clusters, whose copies fall out of the basis
        kept = (m + k) // 2
        # rotate in column chunks: one chunk of temporaries, not kept x dim
        chunk = -(-dim // m)
        for first in range(0, dim, chunk):
            cols = slice(first, first + chunk)
            basis[:kept, cols] = y[:, :kept].T @ basis[:m, cols]
        basis[kept] = basis[m]
        diag[:kept] = theta[:kept]
        arrow = beta[m - 1] * y[m - 1, :kept]


def _eigsh(matvec: Callable[[np.ndarray], np.ndarray], dim: int, k: int,
           vectors: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
    """The k lowest eigenpairs of a Hermitian operator given by its action,
    eigenvalues ascending; real if it keeps float64 real.

    Up to DENSE_EIG_LIMIT the operator is materialized by one apply to the
    identity, a block of dim columns, and diagonalized by numpy's LAPACK:
    every pair comes back, whatever k, and with `vectors` false None stands
    for the eigenvectors.  Above it `_lanczos` runs thick-restart Lanczos
    within LANCZOS_MAX_RESTARTS restarts; running out of restarts, or a NaN
    or infinite operator output, is a ResourceError, as is asking for
    k >= dim - 1 pairs.  BLAS runs on the threads numpy started with.
    """
    if dim <= DENSE_EIG_LIMIT:
        matrix = matvec(np.eye(dim))
        matrix = (matrix + matrix.conj().T) / 2
        return np.linalg.eigh(matrix) if vectors else (np.linalg.eigvalsh(matrix), None)
    if k >= dim - 1:
        raise ResourceError(
            f"{k} eigenpairs of dimension {dim} saturate the iterative eigensolver")
    return _lanczos(matvec, dim, k)


def lowest_eigenpairs(matvec: Callable[[np.ndarray], np.ndarray], dim: int,
                      below: float) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs below `below` plus the lowest at or above it (all if none is),
    ascending: `_eigsh` with k = 2, 4, 8... until they fit in what it returns."""
    k = 2
    while True:
        vals, vecs = _eigsh(matvec, dim, k)
        count = int(np.sum(vals < below)) + 1
        if count <= len(vals) or len(vals) == dim:
            return vals[:count], vecs[:, :count]
        k = min(2 * k, dim)


def largest_eigenpair(matvec: Callable[[np.ndarray], np.ndarray],
                      dim: int) -> tuple[float, np.ndarray]:
    """Largest eigenpair of a Hermitian operator: the lowest of -A, negated."""
    vals, vecs = _eigsh(lambda v: -matvec(v), dim, 1)
    return -float(vals[0]), vecs[:, 0]


def largest_eigenvalue(matvec: Callable[[np.ndarray], np.ndarray], dim: int) -> float:
    """Largest eigenvalue of a Hermitian operator given by its action; a
    dense solve computes no eigenvectors."""
    vals, _ = _eigsh(lambda v: -matvec(v), dim, 1, vectors=False)
    return -float(vals[0])


def product_operator_norm(apply_m: Callable[[np.ndarray], np.ndarray],
                          apply_m_adjoint: Callable[[np.ndarray], np.ndarray], dim: int) -> float:
    """Operator norm of M given the actions of M and M^dagger (via M^dagger M)."""
    top = largest_eigenvalue(lambda v: apply_m_adjoint(apply_m(v)), dim)
    return math.sqrt(max(top, 0.0))
