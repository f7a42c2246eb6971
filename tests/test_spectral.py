"""Differential tests: the cached low-spectrum solve, nu and the DL product
norm against dense oracles, on real and complex instances on both sides of
DENSE_EIG_LIMIT."""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from ffverify import aklt, cli, detectability, graph as G, hamiltonian as ham, linalg
from ffverify import protocol as proto, simulate as sim
from ffverify.errors import DegenerateSpectrum, ResourceError
from ffverify.tolerances import DENSE_EIG_LIMIT, GROUND_TOL

import oracles


def dense_low_spectrum(vals: np.ndarray) -> tuple[int, float]:
    """Ground rank and gamma from a full ascending eigenvalue list."""
    rank = int(np.sum(vals < GROUND_TOL))
    return rank, float(vals[rank])


def open_spin_one_chain(n: int) -> ham.FFHamiltonian:
    """AKLT projectors on an open chain of spin-1 sites: the two free edge
    spins-1/2 leave a rank-4 ground space."""
    g = G.chain(n)
    p = aklt.coupled_spin_projector(2, 2)
    projectors = {e: p for e in g.edges}
    return ham.FFHamiltonian(g, projectors, {v: 3 for v in g.vertices})


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
        assert h.dtype == np.float64 and protocol.dtype == np.float64
        rank, basis, gamma = ham.low_spectrum(h)
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
    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_rank_four_found_by_doubling(self, n, monkeypatch):
        h = open_spin_one_chain(n)
        ks = []
        solver = linalg._eigsh

        def recording(matvec, dim, k, which):
            ks.append(k)
            return solver(matvec, dim, k, which)

        monkeypatch.setattr(linalg, "_eigsh", recording)
        rank, basis, gamma = ham.low_spectrum(h)
        oracle_rank, oracle_gamma = dense_low_spectrum(sector_spectrum(h))
        assert ks == [2, 4, 8]
        assert rank == oracle_rank == 4
        assert abs(gamma - oracle_gamma) < 1e-8
        assert np.linalg.norm(sparse_chain_hamiltonian(h) @ basis) < 1e-8
        assert np.allclose(basis.T @ basis, np.eye(4), atol=1e-10)

    def test_sector_oracle_matches_dense(self):
        h = open_spin_one_chain(5)
        vals, _ = linalg.eigh(oracles.hamiltonian(h))
        assert np.allclose(sector_spectrum(h), vals, atol=1e-10)


class TestDenseFloorOneSolve:
    def test_degenerate_cluster_from_one_dense_solve(self, monkeypatch):
        """Below the dense floor the whole ground cluster and gamma come from
        d applies of H and one eigh, however large the rank."""
        h = ham.random_ff_instance(0, nodes=range(3), dims=[3] * 3,
                                   edges=((0, 1), (1, 2)), ground_rank=2)
        assert h.dim <= DENSE_EIG_LIMIT
        applies, solves = [], []
        apply, eigh = ham.FFHamiltonian.apply, scipy.linalg.eigh

        def counted_apply(self, vec):
            applies.append(1)
            return apply(self, vec)

        def counted_eigh(*args, **kwargs):
            solves.append(1)
            return eigh(*args, **kwargs)

        monkeypatch.setattr(ham.FFHamiltonian, "apply", counted_apply)
        monkeypatch.setattr(scipy.linalg, "eigh", counted_eigh)
        rank, basis, gamma = ham.low_spectrum(h)
        assert (len(applies), len(solves)) == (h.dim, 1)
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
        assert h.dtype == np.complex128
        rank, basis, gamma = ham.low_spectrum(h)
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

        def no_arpack(*args, **kwargs):
            raise AssertionError("ARPACK called at or below the dense floor")

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_arpack)
        rank, basis, gamma = ham.low_spectrum(h)
        vals, _ = linalg.eigh(oracles.hamiltonian(h))
        dense_rank, dense_gamma = dense_low_spectrum(vals)
        assert rank == dense_rank == rank_expected
        assert abs(gamma - dense_gamma) < 1e-8
        q0 = oracles.ground_projector(h)
        assert np.max(np.abs(basis @ basis.conj().T - q0)) < 1e-8


class TestOneSolve:
    def test_ground_space_then_gamma_is_one_krylov_call(self, monkeypatch):
        h = aklt.aklt_hamiltonian(G.chain(5, closed=True))
        calls = []
        eigsh = scipy.sparse.linalg.eigsh

        def counting(*args, **kwargs):
            calls.append(kwargs.get("k"))
            return eigsh(*args, **kwargs)

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", counting)
        rank, _ = ham.ground_space(h)
        gamma = ham.spectral_gap_gamma(h)
        assert rank == 1 and gamma > 0
        assert calls == [2]

    def test_worst_case_state_then_nu_is_one_omega_call(self, icosahedron, monkeypatch):
        h = aklt.aklt_hamiltonian(G.chain(5, closed=True))
        protocol = proto.build_protocol(h, G.edge_coloring(h.graph), icosahedron)
        assert h.dim == 243
        ham.ground_space(h)  # the H solve
        calls = []
        eigsh = scipy.sparse.linalg.eigsh

        def counting(*args, **kwargs):
            calls.append(kwargs.get("k"))
            return eigsh(*args, **kwargs)

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", counting)
        state = sim.prepare_state(protocol, sim.NoiseSpec("worst_case", 0.1))
        nu = proto.measured_gap(protocol)
        assert calls == [1]
        lam, phi = proto.top_excited_pair(protocol)
        assert nu == 1.0 - lam
        assert state.ensemble[-1][1] is phi


class TestRestartBudget:
    def test_exhausted_budget_is_resource_error(self, monkeypatch):
        monkeypatch.setattr(linalg, "ARPACK_MAX_RESTARTS", 1)
        h = aklt.aklt_hamiltonian(G.chain(6, closed=True))
        with pytest.raises(ResourceError, match=r"d=729, k=2, \d+ of 2 converged"):
            ham.spectral_gap_gamma(h)

    def test_cli_exit_code(self, monkeypatch, capsys):
        monkeypatch.setattr(linalg, "ARPACK_MAX_RESTARTS", 1)
        code = cli.main(["gap", "--chain", "6", "--closed"])
        err = capsys.readouterr().err
        assert code == 3
        assert "did not converge" in err


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

    def test_arpack_error_is_resource_error(self, monkeypatch):
        def failing(*args, **kwargs):
            raise scipy.sparse.linalg.ArpackError(-9)

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", failing)
        with pytest.raises(ResourceError, match=r"d=100, k=2"):
            linalg.lowest_eigenpairs(lambda v: v, 100, below=0.5)


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
        state = sim.prepare_state(protocol, sim.NoiseSpec("depolarizing", 0.1))
        exact = sim.acceptance_probability(protocol, state)
        expected = np.trace(oracles.omega(protocol) @ oracles.density_matrix(state))
        assert abs(exact - float(np.real(expected))) < 1e-12

    def test_edgeless_refused_before_allocation(self, monkeypatch):
        h = ham.FFHamiltonian(G.Hypergraph(tuple(range(6)), ()), {}, {v: 2 for v in range(6)})
        monkeypatch.setenv("FFV_MAX_DIM", "50")

        def no_eye(*args, **kwargs):
            raise AssertionError("allocated before the cap check")

        monkeypatch.setattr(np, "eye", no_eye)
        with pytest.raises(ResourceError, match="dimension 64 exceeds FFV_MAX_DIM=50"):
            ham.ground_space(h)
