import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ffverify import linalg
from ffverify.errors import InputError, ResourceError
from ffverify.tolerances import DENSE_EIG_LIMIT

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def random_hermitian(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (a + a.conj().T) / 2


def random_local(rng, support, dims):
    d = int(np.prod([dims[v] for v in support]))
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


class TestEmbed:
    def test_identity_embeds_to_identity(self):
        full = linalg.embed(np.eye(2), (0,), (0, 1, 2), {0: 2, 1: 3, 2: 2})
        assert np.allclose(full, np.eye(12))

    def test_pauli_z_on_first_of_two_qubits(self):
        full = linalg.embed(PAULI_Z, (1,), (1, 2), {1: 2, 2: 2})
        assert np.allclose(full, np.kron(PAULI_Z, np.eye(2)))

    def test_disjoint_embeds_commute(self):
        rng = np.random.default_rng(0)
        dims = {0: 2, 1: 3, 2: 2}
        a = linalg.embed(random_local(rng, (0,), dims), (0,), (0, 1, 2), dims)
        b = linalg.embed(random_local(rng, (2,), dims), (2,), (0, 1, 2), dims)
        assert linalg.operator_norm(a @ b - b @ a) < 1e-12

    def test_permuted_order_matches_kron_oracle(self):
        rng = np.random.default_rng(1)
        dims = {0: 2, 1: 3}
        op = random_local(rng, (1,), dims)
        # order (1, 0): op acts on the first factor
        left = linalg.embed(op, (1,), (1, 0), dims)
        assert np.allclose(left, np.kron(op, np.eye(2)))
        # order (0, 1): op acts on the second factor
        right = linalg.embed(op, (1,), (0, 1), dims)
        assert np.allclose(right, np.kron(np.eye(2), op))

    def test_two_site_reversed_support(self):
        rng = np.random.default_rng(2)
        dims = {0: 2, 1: 3}
        mat = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        # support listed as (1, 0): first tensor factor of mat belongs to node 1
        full = linalg.embed(mat, (1, 0), (0, 1), dims)
        swap = np.zeros((6, 6))
        for i in range(2):
            for j in range(3):
                swap[i * 3 + j, j * 2 + i] = 1  # (0,1) index <- (1,0) index
        assert np.allclose(full, swap @ mat @ swap.T)

    def test_spectrum_preserved_up_to_multiplicity(self):
        rng = np.random.default_rng(3)
        dims = {0: 3, 1: 2, 2: 2}
        herm = random_hermitian(rng, 3)
        full = linalg.embed(herm, (0,), (0, 1, 2), dims)
        small = np.sort(np.linalg.eigvalsh(herm))
        big = np.sort(np.linalg.eigvalsh(full))
        assert np.allclose(big, np.repeat(small, 4))

    def test_hermiticity_and_positivity_preserved(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        psd = a @ a.conj().T
        full = linalg.embed(psd, (0, 1), (0, 1, 2), {0: 2, 1: 2, 2: 3})
        assert linalg.hermiticity_defect(full) < 1e-12
        assert np.min(np.linalg.eigvalsh(full)) > -1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            linalg.embed(np.eye(2), (0,), (0, 1), {0: 3, 1: 2})

    def test_support_outside_order(self):
        with pytest.raises(InputError):
            linalg.embed(np.eye(2), (5,), (0, 1), {0: 2, 1: 2, 5: 2})


class TestApplyPlan:
    @pytest.mark.parametrize("support", [(0,), (1,), (2,), (0, 1), (1, 2), (0, 2), (2, 0)])
    def test_plan_matches_dense_embed(self, support):
        rng = np.random.default_rng(hash(support) % 2 ** 32)
        dims = {0: 2, 1: 3, 2: 2}
        op = random_local(rng, support, dims)
        order = (0, 1, 2)
        dense = linalg.embed(op, support, order, dims)
        plan = linalg.make_plan(op, support, order, dims)
        for _ in range(3):
            v = rng.standard_normal(12) + 1j * rng.standard_normal(12)
            assert np.allclose(plan(v), dense @ v)

    @pytest.mark.parametrize("support", [(0,), (1,), (2,), (0, 1), (1, 2), (0, 2), (2, 0)])
    def test_real_matrix_keeps_real_vectors_real(self, support):
        rng = np.random.default_rng(hash(support) % 2 ** 32 + 1)
        dims = {0: 2, 1: 3, 2: 2}
        op = random_local(rng, support, dims).real + 1e-15j
        order = (0, 1, 2)
        dense = linalg.embed(op, support, order, dims)
        plan = linalg.make_plan(op, support, order, dims)
        assert plan.matrix.dtype == np.float64
        v = rng.standard_normal(12)
        out = plan(v)
        assert out.dtype == np.float64
        assert np.allclose(out, dense @ v)
        w = v + 1j * rng.standard_normal(12)
        assert np.allclose(plan(w), dense @ w)

    def test_imaginary_part_above_tolerance_stays_complex(self):
        m = np.diag([1.0, 1.0]) + 1e-12j * np.array([[0, 1], [-1, 0]])
        plan = linalg.make_plan(m, (0,), (0,), {0: 2})
        assert plan.matrix.dtype == np.complex128


class TestEigh:
    def test_pauli_x(self):
        vals, _ = linalg.eigh(PAULI_X)
        assert np.allclose(vals, [-1, 1])

    def test_projector_spectrum(self):
        v = np.array([1, 1j]) / np.sqrt(2)
        p = np.outer(v, v.conj())
        vals, _ = linalg.eigh(p)
        assert np.allclose(np.sort(vals), [0, 1], atol=1e-12)

    def test_reconstruction(self):
        rng = np.random.default_rng(5)
        a = random_hermitian(rng, 17)
        vals, vecs = linalg.eigh(a)
        rebuilt = vecs @ np.diag(vals) @ vecs.conj().T
        assert np.max(np.abs(rebuilt - a)) < 1e-9 * linalg.operator_norm(a)

    def test_orthonormality(self):
        rng = np.random.default_rng(6)
        _, vecs = linalg.eigh(random_hermitian(rng, 23))
        assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(23))) < 1e-9

    def test_ascending(self):
        rng = np.random.default_rng(7)
        vals, _ = linalg.eigh(random_hermitian(rng, 9))
        assert np.all(np.diff(vals) >= 0)

    def test_rejects_non_hermitian(self):
        with pytest.raises(InputError):
            linalg.eigh(np.array([[0, 1], [0, 0]], dtype=complex))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(InputError, match="NaN or infinite"):
            linalg.eigh(np.array([[bad, 0], [0, 1]]))

    def test_rejects_non_square(self):
        with pytest.raises(InputError, match="eigh needs a square matrix"):
            linalg.eigh(np.ones((2, 3)))

    def test_idempotent_non_hermitian_is_no_projector(self):
        assert not linalg.is_projector(np.array([[1, 1], [0, 0]], dtype=complex))

    def test_non_square_is_no_projector(self):
        assert not linalg.is_projector(np.ones((2, 3)))


class TestNorms:
    def test_projector_norm_one(self):
        v = np.array([1, 2, 2j]) / 3
        p = np.outer(v, v.conj())
        assert abs(linalg.operator_norm(p) - 1) < 1e-12

    def test_rank_one_product_norm_is_overlap(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            b = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            a /= np.linalg.norm(a)
            b /= np.linalg.norm(b)
            p = np.outer(a, a.conj())
            q = np.outer(b, b.conj())
            c = abs(np.vdot(a, b))
            assert abs(linalg.operator_norm(p @ q) - c) < 1e-12

    def test_submultiplicative(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
            b = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
            assert (linalg.operator_norm(a @ b)
                    <= linalg.operator_norm(a) * linalg.operator_norm(b) + 1e-10)

    def test_singular_values_descending(self):
        rng = np.random.default_rng(10)
        sv = linalg.singular_values(rng.standard_normal((5, 5)))
        assert np.all(np.diff(sv) <= 0)

    @pytest.mark.parametrize("check", [linalg.singular_values, linalg.operator_norm,
                                       linalg.is_projector,
                                       pytest.param(lambda matrix: linalg.norm_below(
                                           matrix, 1e-10), id="norm_below")])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
    def test_non_finite_rejected(self, check, bad):
        matrix = np.eye(3, dtype=complex)
        matrix[0, 2] = bad
        with pytest.raises(InputError, match="NaN or infinite"):
            check(matrix)

    def test_empty_matrix_rejected(self):
        with pytest.raises(InputError):
            linalg.singular_values(np.zeros((0, 0)))
        with pytest.raises(InputError):
            linalg.eigh(np.zeros((0, 0)))
        with pytest.raises(InputError):
            linalg.norm_below(np.zeros((0, 0)), 1e-10)


@pytest.fixture
def svd_shapes(monkeypatch) -> list[tuple[int, ...]]:
    """The shape of every np.linalg.svd argument, in call order."""
    shapes = []
    svd = np.linalg.svd

    def recording(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    return shapes


@pytest.fixture
def no_svd(monkeypatch):
    def refusing(*args, **kwargs):
        raise AssertionError("np.linalg.svd called")

    monkeypatch.setattr(np.linalg, "svd", refusing)


def _diagonal(shape, entries):
    matrix = np.zeros(shape, dtype=complex)
    matrix[np.arange(len(entries)), np.arange(len(entries))] = entries
    return matrix


TOL = 1e-10
UNDER, OVER = TOL * (1 - 1e-6), TOL * (1 + 1e-6)
#: (matrix, whether its norm is below TOL, SVDs norm_below takes): the
#: Frobenius norm F below TOL, inside [TOL, TOL sqrt(r)) either way, and at
#: or above TOL sqrt(r)
NORM_BELOW_CASES = {
    "F-below": (np.full((4, 4), 0.2 * TOL), True, 0),
    "bracket-equal-entries": (_diagonal((6, 6), [UNDER] * 6), True, 1),
    "bracket-unequal-under": (_diagonal((6, 6), [UNDER, UNDER / 2]), True, 1),
    "bracket-unequal-over": (_diagonal((6, 6), [OVER, TOL / 2, TOL / 2]), False, 1),
    "bracket-rectangular": (_diagonal((3, 7), [UNDER] * 3), True, 1),
    "above-equal-entries": (_diagonal((6, 6), [OVER] * 6), False, 0),
    "above-rectangular": (_diagonal((3, 7), [OVER] * 3), False, 0),
    "above-order-one": (PAULI_X @ PAULI_Z - PAULI_Z @ PAULI_X, False, 0),
}


class TestNormBelow:
    @pytest.mark.parametrize("name", sorted(NORM_BELOW_CASES))
    def test_agrees_with_operator_norm(self, name, svd_shapes):
        matrix, expected, svds = NORM_BELOW_CASES[name]
        below = linalg.norm_below(matrix, TOL)
        assert len(svd_shapes) == svds
        assert below == expected == (linalg.operator_norm(matrix) < TOL)

    def test_projector_validated_without_svd(self, no_svd):
        v = np.array([1, 2, 2j]) / 3
        assert linalg.is_projector(np.outer(v, v.conj()))
        assert linalg.is_projector(np.kron(np.eye(3), np.diag([1.0, 0.0])))

    def test_order_one_commutator_flagged_without_svd(self, no_svd):
        p = np.diag([1.0, 0.0])         # onto |0>
        q = np.full((2, 2), 0.5)        # onto |+>
        assert not linalg.norm_below(p @ q - q @ p, TOL)


class TestMatrixFree:
    def test_lowest_eigenpairs_match_dense(self):
        rng = np.random.default_rng(11)
        a = random_hermitian(rng, 40)
        dense_vals = np.linalg.eigvalsh(a)
        below = (dense_vals[1] + dense_vals[2]) / 2  # two below, the third above
        vals, vecs = linalg.lowest_eigenpairs(lambda v: a @ v, 40, below)
        assert np.allclose(vals, dense_vals[:3], atol=1e-8)
        for i in range(3):
            resid = a @ vecs[:, i] - vals[i] * vecs[:, i]
            assert np.linalg.norm(resid) < 1e-8

    def test_largest_eigenvalue_matches_dense(self):
        rng = np.random.default_rng(12)
        a = random_hermitian(rng, 40)
        top = linalg.largest_eigenvalue(lambda v: a @ v, 40)
        assert abs(top - np.linalg.eigvalsh(a)[-1]) < 1e-8

    @pytest.mark.parametrize("dim", [40, 100], ids=["dense", "lanczos"])
    @pytest.mark.parametrize("field, expected", [(float, np.float64), (complex, np.complex128)],
                             ids=["real", "complex"])
    def test_arithmetic_follows_the_operator(self, dim, field, expected):
        """No dtype argument: the solve is real exactly when the operator keeps
        float64 vectors real, on both sides of the dense floor."""
        assert (dim <= DENSE_EIG_LIMIT) == (dim == 40)
        rng = np.random.default_rng(14)
        a = random_hermitian(rng, dim)
        a = a.real if field is float else a
        dense_vals = np.linalg.eigvalsh(a)
        vals, vecs = linalg.lowest_eigenpairs(lambda v: a @ v, dim, below=-np.inf)
        top, vec = linalg.largest_eigenpair(lambda v: a @ v, dim)
        assert vecs.dtype == vec.dtype == expected
        assert abs(vals[0] - dense_vals[0]) < 1e-8 and abs(top - dense_vals[-1]) < 1e-8

    def test_identity_like_operator_is_real(self):
        """The solve reads its arithmetic from the operator's output on a
        float64 vector, which `2 * v` keeps real."""
        vals, vecs = linalg.lowest_eigenpairs(lambda v: 2 * v, 100, below=1.0)
        top, vec = linalg.largest_eigenpair(lambda v: 2 * v, 100)
        assert vecs.dtype == vec.dtype == np.float64
        assert np.allclose(vals, [2.0]) and abs(top - 2.0) < 1e-12

    def test_dense_floor_returns_every_pair(self, monkeypatch):
        """At or below the dense floor one `_eigsh` call asked for k = 2
        returns all d pairs, so `lowest_eigenpairs` solves once, however many
        eigenvalues lie below its cutoff."""
        a = random_hermitian(np.random.default_rng(15), DENSE_EIG_LIMIT)
        dense_vals = np.linalg.eigvalsh(a)
        vals, vecs = linalg._eigsh(lambda v: a @ v, DENSE_EIG_LIMIT, 2)
        assert vals.shape == (DENSE_EIG_LIMIT,) and vecs.shape == (DENSE_EIG_LIMIT,) * 2
        assert np.allclose(vals, dense_vals, atol=1e-10)
        solver, ks = linalg._eigsh, []

        def recording(matvec, dim, k, **options):
            ks.append(k)
            return solver(matvec, dim, k, **options)

        monkeypatch.setattr(linalg, "_eigsh", recording)
        for below, count in (((dense_vals[39] + dense_vals[40]) / 2, 41),
                             (np.inf, DENSE_EIG_LIMIT)):
            ks.clear()
            vals, vecs = linalg.lowest_eigenpairs(lambda v: a @ v, DENSE_EIG_LIMIT, below)
            assert ks == [2] and vals.shape == (count,) and vecs.shape == (DENSE_EIG_LIMIT, count)
            assert np.allclose(vals, dense_vals[:count], atol=1e-10)

    def test_saturating_request_is_a_resource_error(self):
        """Every eigenvalue of the zero operator lies below 1, so k doubles
        until it reaches dim - 1 pairs, more than Lanczos can deliver."""
        with pytest.raises(ResourceError, match="saturate the iterative eigensolver"):
            linalg.lowest_eigenpairs(lambda v: 0.0 * v, 70, below=1.0)

    def test_product_operator_norm_matches_svd(self):
        rng = np.random.default_rng(13)
        m = rng.standard_normal((30, 30)) + 1j * rng.standard_normal((30, 30))
        norm = linalg.product_operator_norm(
            lambda v: m @ v, lambda v: m.conj().T @ v, 30)
        assert abs(norm - linalg.operator_norm(m)) < 1e-8


def planted_cluster(rng, dim, field) -> np.ndarray:
    """A Hermitian matrix with eigenvalue -2 three times, the others spread
    over [-1, 1], in a random orthonormal basis."""
    q = rng.standard_normal((dim, dim))
    if field is complex:
        q = q + 1j * rng.standard_normal((dim, dim))
    q, _ = np.linalg.qr(q)
    return (q * np.concatenate([[-2.0] * 3, np.linspace(-1, 1, dim - 3)])) @ q.conj().T


class TestLanczos:
    """`linalg._lanczos`, and the top pair as the lowest of -a, against
    np.linalg.eigh just above the dense floor."""

    DIMS = (DENSE_EIG_LIMIT + 1, DENSE_EIG_LIMIT + 36)

    @staticmethod
    def check(a, k):
        dim = len(a)
        vals, vecs = linalg._lanczos(lambda v: a @ v, dim, k)
        exact = np.linalg.eigvalsh(a)[:k]
        scale = np.abs(exact).max()
        assert vecs.shape == (dim, k) and vecs.dtype == np.result_type(float, a.dtype)
        assert np.abs(vals - exact).max() < 1e-11 * scale
        assert np.linalg.norm(a @ vecs - vecs * vals, axis=0).max() < 1e-9 * scale
        assert np.abs(vecs.conj().T @ vecs - np.eye(k)).max() < 1e-10

    @staticmethod
    def check_top(a):
        """`largest_eigenpair` and `largest_eigenvalue`, the lowest of -a,
        held to `check`'s tolerances at k = 1."""
        dim = len(a)
        top, vec = linalg.largest_eigenpair(lambda v: a @ v, dim)
        exact = np.linalg.eigvalsh(a)[-1]
        scale = abs(exact)
        assert vec.shape == (dim,) and vec.dtype == np.result_type(float, a.dtype)
        assert abs(top - exact) < 1e-11 * scale
        assert abs(linalg.largest_eigenvalue(lambda v: a @ v, dim) - exact) < 1e-11 * scale
        assert np.linalg.norm(a @ vec - top * vec) < 1e-9 * scale
        assert abs(np.vdot(vec, vec) - 1.0) < 1e-10

    # the ids name the end of the spectrum checked: SA the k lowest pairs from
    # `_lanczos`, LA the top pair from `largest_eigenpair`, which takes no k
    @pytest.mark.parametrize("k", [1, 2, 4, 8])
    @pytest.mark.parametrize("top", [False, True], ids=["SA", "LA"])
    @pytest.mark.parametrize("field", [float, complex], ids=["real", "complex"])
    def test_random_hermitian(self, field, top, k):
        for dim in self.DIMS:
            a = random_hermitian(np.random.default_rng(dim + k), dim)
            a = a.real if field is float else a
            if top:
                self.check_top(a)
            else:
                self.check(a, k)

    @pytest.mark.parametrize("k", [1, 2, 4, 8])
    @pytest.mark.parametrize("top", [False, True], ids=["SA", "LA"])
    @pytest.mark.parametrize("field", [float, complex], ids=["real", "complex"])
    def test_planted_degenerate_cluster(self, field, top, k):
        """Three copies of the end eigenvalue: single-vector Lanczos sees one
        in exact arithmetic, and the restarts recover the others."""
        for dim in self.DIMS:
            a = planted_cluster(np.random.default_rng(dim), dim, field)
            if top:
                self.check_top(-a)
            else:
                self.check(a, k)

    @pytest.mark.parametrize("k", [1, 4])
    def test_identity_breaks_down_at_once(self, k):
        """Every product of the identity lies in the basis, so one basis of
        20 products converges.  The remainder after Gram-Schmidt is rounding
        residue, and the DGKS test compares it with the remainder before it,
        not with ||A v||, so it is accepted as the next direction: `fresh`
        never runs, and the solve draws only start-stream vector 0."""
        calls = []

        def identity(v):
            calls.append(1)
            return v  # the basis row itself: the solver must not write to it

        vals, vecs = linalg._lanczos(identity, 100, k)
        assert len(calls) == 20
        assert np.array_equal(vals, np.ones(k)) and vecs.dtype == np.float64
        assert np.abs(vecs.T @ vecs - np.eye(k)).max() < 1e-12

    @pytest.mark.parametrize("field", [float, complex], ids=["real", "complex"])
    def test_solves_are_bitwise_reproducible(self, field):
        a = random_hermitian(np.random.default_rng(5), self.DIMS[1])
        a = a.real if field is float else a
        first, second = (linalg._lanczos(lambda v: a @ v, len(a), 4) for _ in range(2))
        assert all(np.array_equal(x, y) for x, y in zip(first, second))

    def test_start_stream_is_splitmix64(self):
        """Entry i of start vector b is SplitMix64 output b * dim + i from seed
        0, whose first output is the published 0xE220A8397B1DCDAF, mapped to
        [-1, 1) by its top 53 bits and normalized."""
        mask, state, outputs = 2 ** 64 - 1, 0, []
        for _ in range(3 * 7):
            state = (state + 0x9E3779B97F4A7C15) & mask
            z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & mask
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
            outputs.append(z ^ (z >> 31))
        assert outputs[0] == 0xE220A8397B1DCDAF
        for block in range(3):
            raw = np.array([(z >> 11) * 2.0 ** -52 - 1.0 for z in outputs[7 * block:][:7]])
            assert np.array_equal(linalg._start_vector(7, block), raw / np.linalg.norm(raw))

    def test_start_and_fresh_vectors_differ(self):
        """The zero operator ends every Lanczos step in an invariant subspace:
        the solve starts from start vector 0 and continues from vectors 1, 2,
        ... of the stream, each made orthogonal to the basis, and no two of
        the stream's vectors align."""
        dim, seen = 100, []

        def zero(v):
            seen.append(v.copy())
            return np.zeros_like(v)

        linalg._lanczos(zero, dim, 1)
        assert len(seen) == 20
        stream = np.array([linalg._start_vector(dim, b) for b in range(len(seen))])
        assert np.array_equal(seen[0], stream[0])
        overlaps = np.abs(stream @ stream.T - np.eye(len(stream)))
        assert overlaps.max() < 0.5
        basis = np.array(seen)
        assert np.abs(basis @ basis.T - np.eye(len(basis))).max() < 1e-12
        # row j is stream vector j with its parts along the rows before it removed
        for j in range(1, len(basis)):
            rest = stream[j] - (basis[:j] @ stream[j]) @ basis[:j]
            assert np.abs(basis[j] - rest / np.linalg.norm(rest)).max() < 1e-12


@pytest.mark.parametrize("build", [linalg.make_plan, linalg.embed],
                         ids=["make_plan", "embed"])
class TestSupportCheck:
    """make_plan and embed refuse the same malformed (matrix, support) pairs."""

    def test_dimension_validation(self, build):
        with pytest.raises(InputError, match="shape"):
            build(np.eye(3), (0,), (0, 1), {0: 2, 1: 2})

    def test_repeated_support(self, build):
        with pytest.raises(InputError, match="repeats"):
            build(np.eye(4), (0, 0), (0, 1), {0: 2, 1: 2})

    def test_support_outside_order(self, build):
        with pytest.raises(InputError, match="absent"):
            build(np.eye(2), (5,), (0, 1), {0: 2, 1: 2, 5: 2})


class TestHermiticityDefect:
    def test_hermitian_flag(self):
        assert linalg.hermiticity_defect(PAULI_X) < 1e-12
        skew = np.array([[0, 1], [-1, 0]], dtype=complex)
        assert linalg.hermiticity_defect(skew) >= 1e-12


#: child process: numpy's OpenBLAS pool size at start, after importing
#: ffverify and building a protocol, and after `gap --chain 8 --closed`
#: (d = 6561, Lanczos), and the scipy modules loaded before and after the solve
POOL_PROBE = """
import contextlib, ctypes, io, json, sys
import numpy

def pools():
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return {}
    found = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                found[symbol] = getter()
    return found

start = pools()
from ffverify import aklt, cli, graph, protocol
h = aklt.aklt_hamiltonian(graph.chain(6, closed=True))
protocol.build_protocol(h, graph.edge_coloring(h.graph), aklt.design_catalog("icosahedron"))
built = pools()
scipy_built = sorted(name for name in sys.modules if name.startswith("scipy"))
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = cli.main(["gap", "--chain", "8", "--closed"])
scipy_solved = sorted(name for name in sys.modules if name.startswith("scipy"))
print(json.dumps({"start": start, "built": built, "scipy_built": scipy_built,
                  "solved": pools(), "scipy_solved": scipy_solved, "code": code,
                  "row": json.loads(out.getvalue())[0]}))
"""

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def probe_pools(**extra_env) -> dict:
    src = str(Path(linalg.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env.update(extra_env, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    env.pop("FFV_MAX_DIM", None)
    out = subprocess.run([sys.executable, "-c", POOL_PROBE], env=env, capture_output=True,
                         text=True, check=True, timeout=120).stdout
    result = json.loads(out)
    if not result["start"]:
        pytest.skip("no scipy-openblas library is loaded, so there is no pool to set")
    assert result["code"] == 0
    return result


@pytest.fixture(scope="module")
def default_pools():
    return probe_pools()


@pytest.fixture(scope="module")
def user_pools():
    return probe_pools(OPENBLAS_NUM_THREADS="2")


@pytest.fixture(scope="module")
def one_thread_pools():
    return probe_pools(OPENBLAS_NUM_THREADS="1")


class TestBlasThreadPolicy:
    """ffverify leaves numpy's BLAS threads as numpy started them."""

    def test_import_and_build_leave_pools_alone(self, default_pools):
        assert default_pools["built"] == default_pools["start"]
        assert default_pools["scipy_built"] == []

    def test_solve_leaves_pools_alone(self, default_pools, user_pools):
        # the solve loads no other BLAS: numpy's pool is the only one
        for pools in (default_pools, user_pools):
            assert pools["solved"] == pools["start"]
            assert pools["scipy_solved"] == []

    def test_user_thread_count_wins(self, user_pools):
        # OpenBLAS caps the variable at the cores it may run on
        solved = user_pools["solved"]
        assert {name: solved[name] for name in user_pools["start"]} == user_pools["start"]
        if len(os.sched_getaffinity(0)) >= 2:
            assert set(solved.values()) == {2}

    def test_results_independent_of_thread_count(self, default_pools, one_thread_pools):
        for key in ("gamma", "nu_measured"):
            assert default_pools["row"][key] == pytest.approx(one_thread_pools["row"][key],
                                                              abs=1e-10)
