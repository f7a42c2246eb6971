import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ffverify import linalg
from ffverify.errors import InputError
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
        assert linalg.commutator_norm(a, b) < 1e-12

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

    def test_empty_matrix_rejected(self):
        with pytest.raises(InputError):
            linalg.singular_values(np.zeros((0, 0)))
        with pytest.raises(InputError):
            linalg.eigh(np.zeros((0, 0)))


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
        """scipy's own dtype inference probes with int8, which `2 * v` keeps."""
        vals, vecs = linalg.lowest_eigenpairs(lambda v: 2 * v, 100, below=1.0)
        top, vec = linalg.largest_eigenpair(lambda v: 2 * v, 100)
        assert vecs.dtype == vec.dtype == np.float64
        assert np.allclose(vals, [2.0]) and abs(top - 2.0) < 1e-12

    def test_product_operator_norm_matches_svd(self):
        rng = np.random.default_rng(13)
        m = rng.standard_normal((30, 30)) + 1j * rng.standard_normal((30, 30))
        norm = linalg.product_operator_norm(
            lambda v: m @ v, lambda v: m.conj().T @ v, 30)
        assert abs(norm - linalg.operator_norm(m)) < 1e-8


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


#: child process: OpenBLAS pool sizes at start, after importing ffverify and
#: building a protocol, and after `gap --chain 8 --closed` (d = 6561, Lanczos)
POOL_PROBE = """
import contextlib, ctypes, io, json
import numpy, scipy.linalg, scipy.sparse.linalg

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
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = cli.main(["gap", "--chain", "8", "--closed"])
print(json.dumps({"start": start, "built": built, "solved": pools(), "code": code,
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


class TestBlasThreadPolicy:
    def test_import_and_build_leave_pools_alone(self, default_pools):
        assert default_pools["built"] == default_pools["start"]

    def test_lanczos_solve_sets_one_thread_per_pool(self, default_pools):
        assert default_pools["solved"] == {name: 1 for name in default_pools["start"]}

    def test_user_thread_count_wins(self, user_pools):
        # OpenBLAS caps the variable at the cores it may run on
        assert user_pools["solved"] == user_pools["start"]
        if len(os.sched_getaffinity(0)) >= 2:
            assert set(user_pools["solved"].values()) == {2}

    def test_results_independent_of_thread_count(self, default_pools, user_pools):
        for key in ("gamma", "nu_measured"):
            assert default_pools["row"][key] == pytest.approx(user_pools["row"][key],
                                                              abs=1e-10)
