"""Differential tests: the cached low-spectrum solve, nu and the DL product
norm against dense oracles, on real and complex instances on both sides of
DENSE_EIG_LIMIT."""

import numpy as np
import pytest
import scipy.sparse

from ffverify import aklt, cli, detectability, graph as G, hamiltonian as ham, linalg
from ffverify import protocol as proto, simulate as sim
from ffverify.errors import DegenerateSpectrum, ResourceError
from ffverify.tolerances import DENSE_EIG_LIMIT, GROUND_TOL

import oracles
from conftest import open_spin_one_chain


def dense_low_spectrum(vals: np.ndarray) -> tuple[int, float]:
    """Ground rank and gamma from a full ascending eigenvalue list."""
    rank = int(np.sum(vals < GROUND_TOL))
    return rank, float(vals[rank])


def sparse_chain_hamiltonian(h) -> scipy.sparse.csr_matrix:
    """H of an open chain assembled from Kronecker products, independent of
    the apply plans."""
    n = len(h.node_order)
    total = scipy.sparse.csr_matrix((h.dim, h.dim), dtype=complex)
    for i in range(n - 1):
        p = scipy.sparse.csr_matrix(h.projectors[(i, i + 1)])
        total = total + scipy.sparse.kron(
            scipy.sparse.kron(scipy.sparse.identity(3 ** i), p),
            scipy.sparse.identity(3 ** (n - i - 2)), format="csr")
    return total


def sector_spectrum(h) -> np.ndarray:
    """Every eigenvalue of a spin-1 chain's H, one dense eigh per total-S_z
    sector (H conserves S_z; site basis m = 1, 0, -1)."""
    n = len(h.node_order)
    digits = np.indices((3,) * n).reshape(n, -1)
    total_m = (1 - digits).sum(axis=0)
    big = sparse_chain_hamiltonian(h)
    vals = []
    for m in np.unique(total_m):
        idx = np.flatnonzero(total_m == m)
        vals.append(np.linalg.eigvalsh(big[idx][:, idx].toarray()))
    return np.sort(np.concatenate(vals))


class TestClosedChainsReal:
    @pytest.mark.parametrize("n", [5, 6])
    def test_rank_gamma_nu_match_dense(self, n, icosahedron):
        h = aklt.aklt_hamiltonian(G.chain(n, closed=True))
        protocol = proto.build_protocol(h, G.edge_coloring(h.graph), icosahedron)
        assert h.local.dtype == np.float64 and protocol.local.dtype == np.float64
        rank, basis = ham.ground_space(h)
        gamma = ham.spectral_gap_gamma(h)
        assert basis.dtype == np.float64

        vals, _ = linalg.eigh(oracles.hamiltonian(h))
        dense_rank, dense_gamma = dense_low_spectrum(vals)
        q0 = oracles.ground_projector(h)
        dense_nu = oracles.nu(oracles.omega(protocol), q0)
        assert rank == dense_rank == 1
        assert abs(gamma - dense_gamma) < 1e-8
        assert np.max(np.abs(basis @ basis.T - q0)) < 1e-8
        assert abs(proto.measured_gap(protocol) - dense_nu) < 1e-8


class TestOpenChainsDegenerate:
    """Rank 4 (singlet + triplet) found by doubling k: in the full space on
    a basis-rotated copy, whose eigenpairs below gamma are 4 (k = 2, 4, 8),
    and in the S_z = 0 sector, which holds 2 of them (k = 2, 4; at n = 5 the
    sector's 51 states are below the dense floor: one dense solve, asked for
    k = 2, returns all 51 pairs)."""

    @staticmethod
    def check_doubling(chain, h, expected_ks, monkeypatch, rotations=None):
        ks = []
        solver = linalg._eigsh

        def recording(matvec, dim, k):
            ks.append(k)
            return solver(matvec, dim, k)

        monkeypatch.setattr(linalg, "_eigsh", recording)
        rank, basis = ham.ground_space(h)
        gamma = ham.spectral_gap_gamma(h)
        oracle_rank, oracle_gamma = dense_low_spectrum(sector_spectrum(chain))
        assert ks == expected_ks
        assert rank == oracle_rank == 4
        assert abs(gamma - oracle_gamma) < 1e-8
        if rotations is not None:  # back to the basis of the sparse oracle
            basis = oracles.rotate(chain, rotations, basis, inverse=True)
        assert np.linalg.norm(sparse_chain_hamiltonian(chain) @ basis) < 1e-8
        assert np.allclose(basis.T @ basis, np.eye(4), atol=1e-10)

    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_rank_four_found_by_doubling(self, n, monkeypatch):
        chain = open_spin_one_chain(n)
        self.check_doubling(chain, oracles.basis_rotated(chain, seed=3), [2, 4, 8],
                            monkeypatch, oracles.site_rotations(chain, seed=3))

    @pytest.mark.parametrize("n, expected_ks", [(5, [2]), (6, [2, 4]), (7, [2, 4]),
                                                (8, [2, 4])], ids=["5", "6", "7", "8"])
    def test_rank_four_found_in_the_sector(self, n, expected_ks, monkeypatch):
        chain = open_spin_one_chain(n)
        self.check_doubling(chain, chain, expected_ks, monkeypatch)

    def test_sector_oracle_matches_dense(self):
        h = open_spin_one_chain(5)
        vals, _ = linalg.eigh(oracles.hamiltonian(h))
        assert np.allclose(sector_spectrum(h), vals, atol=1e-10)


class TestDenseFloorOneSolve:
    def test_degenerate_cluster_from_one_dense_solve(self, monkeypatch):
        """Below the dense floor the whole ground cluster and gamma come from
        one block apply of H (to the d x d identity) and one eigh, however
        large the rank."""
        h = ham.random_ff_instance(0, nodes=range(3), dims=[3] * 3,
                                   edges=((0, 1), (1, 2)), ground_rank=2)
        assert h.dim <= DENSE_EIG_LIMIT
        applies, solves = [], []
        apply, eigh = ham.FFHamiltonian.apply, np.linalg.eigh

        def counted_apply(self, vec):
            applies.append(vec.shape)
            return apply(self, vec)

        def counted_eigh(*args, **kwargs):
            solves.append(1)
            return eigh(*args, **kwargs)

        monkeypatch.setattr(ham.FFHamiltonian, "apply", counted_apply)
        monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
        rank, basis = ham.ground_space(h)
        gamma = ham.spectral_gap_gamma(h)
        assert (applies, len(solves)) == ([(h.dim, h.dim)], 1)
        monkeypatch.undo()
        dense = oracles.hamiltonian(h)
        oracle_rank, oracle_gamma = dense_low_spectrum(np.linalg.eigvalsh(dense))
        assert rank == oracle_rank >= 2
        assert abs(gamma - oracle_gamma) < 1e-8
        assert np.linalg.norm(dense @ basis) < 1e-8


def complex_instance() -> ham.FFHamiltonian:
    """Random complex FF instance on 5 qutrits (d = 243 > DENSE_EIG_LIMIT)
    with three-body terms, one of them on non-adjacent nodes."""
    return ham.random_ff_instance(2, nodes=range(5), dims=[3] * 5,
                                  edges=((0, 1, 2), (1, 2, 3), (2, 3, 4), (0, 2, 4)),
                                  ground_rank=1)


class TestComplexInstance:
    def test_stays_complex_and_matches_dense(self):
        h = complex_instance()
        assert h.dim > DENSE_EIG_LIMIT
        assert h.local.dtype == np.complex128
        rank, basis = ham.ground_space(h)
        gamma = ham.spectral_gap_gamma(h)
        assert basis.dtype == np.complex128
        vals, _ = linalg.eigh(oracles.hamiltonian(h))
        dense_rank, dense_gamma = dense_low_spectrum(vals)
        assert rank == dense_rank == 1
        assert abs(gamma - dense_gamma) < 1e-8
        q0 = oracles.ground_projector(h)
        assert np.max(np.abs(basis @ basis.conj().T - q0)) < 1e-8


class TestProductNorm:
    @pytest.mark.parametrize("make", [
        lambda: aklt.aklt_hamiltonian(G.chain(5, closed=True)), complex_instance],
        ids=["real-chain5", "complex-qutrits"])
    def test_dl_product_norm_matches_dense(self, make):
        h = make()
        ordering = h.graph.edges
        comp = np.eye(h.dim) - oracles.ground_projector(h)
        # comp (1 - P_1) ... (1 - P_q) comp: the last factor acts first
        product = comp @ oracles.local_product(
            h, [(np.eye(len(h.projectors[e])) - h.projectors[e], e)
                for e in reversed(ordering)]) @ comp
        expected = linalg.operator_norm(product) ** 2
        assert abs(detectability.dl_norm_check(h, ordering).measured - expected) < 1e-8


class TestAtTheFloor:
    @pytest.mark.parametrize("seed, node_dim, rank_expected", [(11, 3, 3), (3, 4, 4)],
                             ids=["d27", "d64"])
    def test_dense_branch_matches_oracle(self, seed, node_dim, rank_expected, monkeypatch):
        h = ham.random_ff_instance(seed, nodes=range(3), dims=[node_dim] * 3,
                                   edges=((0, 1), (1, 2)), ground_rank=1)
        assert h.dim <= DENSE_EIG_LIMIT

        def no_lanczos(*args, **kwargs):
            raise AssertionError("Lanczos called at or below the dense floor")

        monkeypatch.setattr(linalg, "_lanczos", no_lanczos)
        rank, basis = ham.ground_space(h)
        gamma = ham.spectral_gap_gamma(h)
        vals, _ = linalg.eigh(oracles.hamiltonian(h))
        dense_rank, dense_gamma = dense_low_spectrum(vals)
        assert rank == dense_rank == rank_expected
        assert abs(gamma - dense_gamma) < 1e-8
        q0 = oracles.ground_projector(h)
        assert np.max(np.abs(basis @ basis.conj().T - q0)) < 1e-8


class TestOneSolve:
    """Closed chain 7: its S_z = 0 sector (393 states) is above the dense floor."""

    def test_ground_space_then_gamma_is_one_krylov_call(self, monkeypatch):
        h = aklt.aklt_hamiltonian(G.chain(7, closed=True))
        calls = []
        lanczos = linalg._lanczos

        def counting(matvec, dim, k):
            calls.append(k)
            return lanczos(matvec, dim, k)

        monkeypatch.setattr(linalg, "_lanczos", counting)
        rank, _ = ham.ground_space(h)
        gamma = ham.spectral_gap_gamma(h)
        assert rank == 1 and gamma > 0
        assert calls == [2]

    def test_worst_case_state_then_nu_is_one_omega_call(self, icosahedron, monkeypatch):
        h = aklt.aklt_hamiltonian(G.chain(7, closed=True))
        protocol = proto.build_protocol(h, G.edge_coloring(h.graph), icosahedron)
        assert (h.dim, h.local.sector.dim) == (2187, 393)
        ham.ground_space(h)  # the H solve
        calls = []
        lanczos = linalg._lanczos

        def counting(matvec, dim, k):
            calls.append(k)
            return lanczos(matvec, dim, k)

        monkeypatch.setattr(linalg, "_lanczos", counting)
        state = sim.prepare_state(protocol, "worst_case", 0.1)
        nu = proto.measured_gap(protocol)
        assert calls == [1]
        lam, phi = proto.top_excited_pair(protocol)
        assert nu == 1.0 - lam
        assert state.ensemble[-1][1] is phi


class TestRestartBudget:
    def test_exhausted_budget_is_resource_error(self, monkeypatch):
        monkeypatch.setattr(linalg, "LANCZOS_MAX_RESTARTS", 1)
        h = aklt.aklt_hamiltonian(G.chain(6, closed=True))
        # the solve runs in the S_z = 0 sector: 141 of the 729 states
        with pytest.raises(ResourceError, match=r"d=141, k=2, \d+ of 2 converged"):
            ham.spectral_gap_gamma(h)

    def test_cli_exit_code(self, monkeypatch, capsys):
        monkeypatch.setattr(linalg, "LANCZOS_MAX_RESTARTS", 1)
        code = cli.main(["gap", "--chain", "6", "--closed"])
        err = capsys.readouterr().err
        assert code == 3
        assert "did not converge" in err

    def test_nan_matvec_is_resource_error(self):
        """An operator that returns NaN, from the dtype probe on or only after
        the first restart (20 products), ends the solve there, naming d and k."""
        a = np.diag(np.arange(100.0)) + np.eye(100, k=1) + np.eye(100, k=-1)
        for first_bad in (1, 25):
            calls = []

            def nan_from(v):
                calls.append(1)
                return np.full_like(v, np.nan) if len(calls) >= first_bad else a @ v

            with pytest.raises(ResourceError,
                               match=r"d=100, k=2\): the operator returned a NaN"):
                linalg.lowest_eigenpairs(nan_from, 100, below=0.5)
            assert len(calls) == first_bad


class TestZeroHamiltonian:
    """Every projector zero: H = 0 is refused as degenerate on both sides of
    the dense floor, like an edgeless H, without a solve."""

    @pytest.mark.parametrize("n, ground_rank", [(5, 1), (3, 3)], ids=["d243", "d27"])
    def test_degenerate_spectrum(self, n, ground_rank):
        h = ham.random_ff_instance(0, nodes=range(n), dims=[3] * n,
                                   edges=tuple((i, i + 1) for i in range(n - 1)),
                                   ground_rank=ground_rank)
        assert not any(p.any() for p in h.projectors.values())
        with pytest.raises(DegenerateSpectrum):
            detectability.dl_norm_check(h)
        rank, basis = ham.ground_space(h)
        assert rank == h.dim and basis.shape == (h.dim, h.dim)


class TestDimensionCap:
    """Under a lowered cap the spectral entry points refuse with a message
    naming FFV_MAX_DIM."""

    ENTRY_POINTS = {
        "ground_space": lambda: ham.ground_space(
            aklt.aklt_hamiltonian(G.chain(4, closed=True))),
    }

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_refused_naming_the_cap(self, entry, monkeypatch):
        monkeypatch.setenv("FFV_MAX_DIM", "50")
        with pytest.raises(ResourceError, match="FFV_MAX_DIM=50"):
            self.ENTRY_POINTS[entry]()

    def test_depolarized_state_is_matrix_free(self, icosahedron, monkeypatch):
        h = aklt.aklt_hamiltonian(G.chain(4, closed=True))
        protocol = proto.build_protocol(h, G.edge_coloring(h.graph), icosahedron)
        ham.ground_space(h)  # the H solve, under the default cap
        monkeypatch.setenv("FFV_MAX_DIM", "50")
        state = sim.prepare_state(protocol, "depolarizing", 0.1)
        exact = sim.acceptance_probability(protocol, state)
        expected = np.trace(oracles.omega(protocol) @ oracles.density_matrix(h, state))
        assert abs(exact - float(np.real(expected))) < 1e-12

    def test_edgeless_refused_before_allocation(self, monkeypatch):
        h = ham.FFHamiltonian(G.Hypergraph(tuple(range(6)), ()), {}, {v: 2 for v in range(6)})
        monkeypatch.setenv("FFV_MAX_DIM", "50")

        def no_eye(*args, **kwargs):
            raise AssertionError("allocated before the cap check")

        monkeypatch.setattr(np, "eye", no_eye)
        with pytest.raises(ResourceError, match="dimension 64 exceeds FFV_MAX_DIM=50"):
            ham.ground_space(h)


class TestPlantedKernels:
    """`ground_space` and gamma on planted-kernel instances (`oracles.planted_kernel`,
    d <= 300, 1-6 planted states, real and complex) against the dense
    spectrum: the right rank and gamma, or a ResourceError, never a wrong
    number."""

    @pytest.mark.parametrize("seed", range(24))
    def test_rank_and_gamma_or_refusal(self, seed):
        h = oracles.planted_kernel(seed, r=1 + seed % 6, real=seed // 6 % 2 == 0, max_dim=300)
        vals = np.linalg.eigvalsh(oracles.hamiltonian(h))
        rank = int(np.sum(vals < GROUND_TOL))
        try:
            got_rank, basis = ham.ground_space(h)
        except ResourceError:
            return  # refused: allowed, and counted in CHANGES.md
        assert got_rank == rank == basis.shape[1]
        if rank == h.dim:
            with pytest.raises(DegenerateSpectrum):
                ham.spectral_gap_gamma(h)
        else:
            assert abs(ham.spectral_gap_gamma(h) - vals[rank]) < 1e-8
