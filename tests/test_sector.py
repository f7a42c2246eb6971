"""The lowest total-S_z sector: its states and apply plans, and the sector
solves of gamma, the ground space, nu and the detectability-lemma product
norm against the full-space solves of basis-rotated copies, which fail the
SU(2) check."""

import itertools
import math

import numpy as np
import pytest

from ffverify import aklt, detectability as dl, graph as G, hamiltonian as ham, linalg, \
    protocol as proto
from ffverify.errors import InputError, InvariantViolation

import oracles
from test_spectral import complex_instance, open_spin_one_chain


def majumdar_ghosh_chain(n: int) -> ham.FFHamiltonian:
    """Open spin-1/2 chain with the projector onto total spin 3/2 on every
    three consecutive sites; an odd n puts the sector at M0 = 1/2."""
    sx, sy, sz = linalg.spin_operators(1)
    total = sum(np.linalg.matrix_power(sum(
        np.kron(np.kron(np.eye(2 ** j), s), np.eye(2 ** (2 - j))) for j in range(3)), 2)
        for s in (sx, sy, sz))
    vals, vecs = np.linalg.eigh(total)
    top = vecs[:, np.abs(vals - 15 / 4) < 1e-8]
    g = G.Hypergraph(tuple(range(n)), tuple((i, i + 1, i + 2) for i in range(n - 2)))
    return ham.FFHamiltonian(g, {e: top @ top.conj().T for e in g.edges}, {v: 2 for v in range(n)})


INSTANCES = {
    **{f"closed-{n}": (lambda n=n: aklt.aklt_hamiltonian(G.chain(n, closed=True)))
       for n in range(5, 11)},
    **{f"open-{n}": (lambda n=n: aklt.aklt_hamiltonian(G.chain(n))) for n in range(5, 10)},
    **{f"spin-one-open-{n}": (lambda n=n: open_spin_one_chain(n)) for n in range(5, 9)},
    "honeycomb-2x1": lambda: aklt.aklt_hamiltonian(G.honeycomb_lattice(2, 1)),
    "square-3x2": lambda: aklt.aklt_hamiltonian(G.square_lattice(3, 2)),
    "honeycomb-2x2-periodic": lambda: aklt.aklt_hamiltonian(
        G.honeycomb_lattice(2, 2, periodic=True)),
    "majumdar-ghosh-9": lambda: majumdar_ghosh_chain(9),
}
#: not in the nu comparison: the Majumdar-Ghosh terms are not bonds, and the
#: icosahedron is no 6-design, so spin-3 bond operators keep Omega full-space
NO_NU = {"majumdar-ghosh-9", "honeycomb-2x2-periodic"}


@pytest.fixture(autouse=True)
def cap_above_closed_chain_ten(monkeypatch):
    monkeypatch.setenv("FFV_MAX_DIM", "65536")


@pytest.fixture
def solve_dims(monkeypatch) -> list[int]:
    """The dimension of every eigensolve, in call order."""
    dims = []
    solver = linalg._eigsh

    def recording(matvec, dim, k, **options):
        dims.append(dim)
        return solver(matvec, dim, k, **options)

    monkeypatch.setattr(linalg, "_eigsh", recording)
    return dims


def deflated_omega_top(protocol, basis: np.ndarray) -> float:
    """Largest eigenvalue of (1 - Q0) Omega (1 - Q0) in the full space."""
    def deflated(v):
        return linalg.deflate(basis, protocol.apply_omega(linalg.deflate(basis, v)))

    return linalg.largest_eigenvalue(deflated, protocol.hamiltonian.dim)


class TestSectorAgainstRotatedCopy:
    @pytest.mark.parametrize("name", sorted(INSTANCES))
    def test_rank_gamma_ground_projector(self, name, solve_dims):
        h = INSTANCES[name]()
        rotated = oracles.basis_rotated(h, seed=1)
        rank, basis = ham.ground_space(h)
        gamma = ham.spectral_gap_gamma(h)
        assert solve_dims == [h.local.sector.dim] * len(solve_dims)
        solve_dims.clear()
        oracle_rank, oracle_basis = ham.ground_space(rotated)
        oracle_gamma = ham.spectral_gap_gamma(rotated)
        assert rotated.local.sector is None
        assert solve_dims == [h.dim] * len(solve_dims)

        assert rank == oracle_rank == basis.shape[1]
        assert abs(gamma - oracle_gamma) < 1e-10
        assert basis.dtype == np.float64
        assert np.max(np.abs(basis.T @ basis - np.eye(rank))) < 1e-10
        # equal ranks and range(back) inside range(basis): equal projectors
        back = oracles.rotate(h, oracles.site_rotations(h, seed=1), oracle_basis, inverse=True)
        assert np.max(np.abs(back - basis @ (basis.T @ back))) < 1e-10

    @pytest.mark.parametrize("name", sorted(set(INSTANCES) - NO_NU))
    def test_nu(self, name, icosahedron, solve_dims):
        h = INSTANCES[name]()
        protocol = proto.build_protocol(h, G.edge_coloring(h.graph), icosahedron)
        nu = proto.measured_gap(protocol)
        sector_solves = list(solve_dims)
        rotated = oracles.basis_rotated(h, seed=1)
        _, oracle_basis = ham.ground_space(rotated)
        back = oracles.rotate(h, oracles.site_rotations(h, seed=1), oracle_basis, inverse=True)
        assert abs(nu - (1.0 - deflated_omega_top(protocol, back))) < 1e-10
        omega_dim = h.dim if protocol.local.sector is None else h.local.sector.dim
        assert sector_solves[-1] == omega_dim

    @pytest.mark.parametrize("name", sorted(INSTANCES))
    def test_dl_product_norm(self, name, solve_dims):
        """The detectability-lemma product commutes with total spin, so its
        norm, solved in H's sector, is the full-space one."""
        h = INSTANCES[name]()
        measured = dl.dl_norm_check(h).measured
        # the low-spectrum solves, then the product's
        assert len(solve_dims) >= 2 and solve_dims == [h.local.sector.dim] * len(solve_dims)
        oracle = dl.dl_norm_check(oracles.basis_rotated(h, seed=1)).measured
        assert abs(measured - oracle) < 1e-10


class TestPaths:
    def test_random_instance_takes_full_path(self, solve_dims):
        h = complex_instance()
        ham.ground_space(h)
        assert h.local.sector is None and solve_dims == [h.dim]

    @pytest.mark.parametrize("design", ["tetrahedron", "octahedron"])
    def test_nu_of_low_order_designs_takes_full_path(self, design, solve_dims):
        h = aklt.aklt_hamiltonian(G.chain(5, closed=True))
        protocol = proto.build_protocol(h, G.edge_coloring(h.graph), aklt.design_catalog(design))
        nu = proto.measured_gap(protocol)
        assert h.local.sector is not None and protocol.local.sector is None
        assert solve_dims == [h.local.sector.dim, h.dim]
        dense_nu = oracles.nu(oracles.omega(protocol), oracles.ground_projector(h))
        assert abs(nu - dense_nu) < 1e-10

    @pytest.mark.parametrize("design", ["icosahedron", "isotropic"])
    def test_nu_of_invariant_bond_operators_takes_sector(self, design, solve_dims):
        h = aklt.aklt_hamiltonian(G.chain(7, closed=True))
        mu = None if design == "isotropic" else aklt.design_catalog(design)
        protocol = proto.build_protocol(h, G.edge_coloring(h.graph), mu)
        lam, vec = proto.top_excited_pair(protocol)
        assert protocol.local.sector is h.local.sector
        assert solve_dims == [h.local.sector.dim] * 2
        assert vec.shape == (h.dim,) and abs(np.linalg.norm(vec) - 1.0) < 1e-12
        omega_vec = protocol.apply_omega(vec)
        assert np.linalg.norm(omega_vec - lam * vec) < 1e-9


def test_protocol_refuses_an_edge_of_three_nodes():
    """A bond joins two nodes; the Majumdar-Ghosh terms act on three."""
    h = majumdar_ghosh_chain(9)
    with pytest.raises(InputError, match=r"\(0, 1, 2\) is not a bond"):
        proto.build_protocol(h, G.edge_coloring(h.graph), None)


class TestSector:
    @pytest.mark.parametrize("dims", [(3, 3, 3, 3), (2, 3, 4), (2, 2, 2), (4, 1, 3), (5,)])
    def test_states_of_lowest_total_sz(self, dims):
        sector = linalg.Sector.of(range(len(dims)), dict(enumerate(dims)))
        twice_sz = [sum(d - 1 - 2 * k for d, k in zip(dims, digits))
                    for digits in itertools.product(*map(range, dims))]
        lowest = min(abs(t) for t in twice_sz)
        assert sector.twice_m == lowest == sum(d - 1 for d in dims) % 2
        assert sector.index.tolist() == [i for i, t in enumerate(twice_sz) if t == lowest]

    def test_multiplets_refuse_a_vector_of_no_spin(self, chain4):
        """A random sector vector mixes spins, so S^+ S^- on its span has an
        eigenvalue of no multiplet."""
        sector = linalg.Sector.of(chain4.node_order, chain4.node_dims)
        v = np.random.default_rng(3).standard_normal(sector.dim)
        with pytest.raises(InvariantViolation, match="on the kernel belongs to no spin"):
            sector.multiplets((v / np.linalg.norm(v))[:, None])

    NODE_DIMS = {0: 3, 1: 2, 2: 4, 3: 3}
    #: more node dimensions, by id prefix: a node of one state, an odd total
    #: (M0 = 1/2), a node of five states
    MORE_NODE_DIMS = {"one-state-": {0: 3, 1: 1, 2: 3, 3: 3},
                      "half-": {0: 3, 1: 2, 2: 4, 3: 2},
                      "five-state-": {0: 5, 1: 2, 2: 4, 3: 3}}
    SUPPORTS = [(0, 1), (1, 3), (3, 0), (2,), (0, 2, 3)]

    @staticmethod
    def conserving(rng, dims, real=False) -> np.ndarray:
        """A random matrix that conserves the total S_z of nodes with dims."""
        local_sum = np.indices(dims).reshape(len(dims), -1).sum(axis=0)
        d_e = len(local_sum)
        matrix = rng.standard_normal((d_e, d_e))
        if not real:
            matrix = matrix + 1j * rng.standard_normal((d_e, d_e))
        matrix[local_sum[:, None] != local_sum] = 0
        return matrix

    @staticmethod
    def layout_oracle(sector, support) -> np.ndarray:
        """The sector positions sorted by (rank of the support's local state
        by S_z, rest of the full-space index), as one composite key."""
        axes = [sector.node_order.index(v) for v in support]
        dims = [sector.shape[a] for a in axes]
        digits = np.unravel_index(sector.index, sector.shape)
        digits = [digits[a] for a in axes]
        local = np.ravel_multi_index(digits, dims)
        rest = sector.index - sum(g * math.prod(sector.shape[a + 1:])
                                  for g, a in zip(digits, axes))
        local_sum = np.indices(dims).reshape(len(dims), -1).sum(axis=0)
        rank = np.argsort(np.argsort(local_sum, kind="stable"))
        return np.argsort(rank[local] * math.prod(sector.shape) + rest)

    @pytest.mark.parametrize("node_dims, support", [
        pytest.param(dims, support, id=f"{name}support{i}")
        for (name, dims), (i, support) in itertools.product(
            {"": NODE_DIMS, **MORE_NODE_DIMS}.items(), enumerate(SUPPORTS))])
    def test_plan_matches_full_space_plan(self, node_dims, support):
        """Any operator that conserves its support's S_z, on adjacent,
        distant, reversed and three-node supports; its rows are the layout,
        each local state's positions ascending in sector order."""
        rng = np.random.default_rng(5)
        order = tuple(node_dims)
        sector = linalg.Sector.of(order, node_dims)
        matrix = self.conserving(rng, [node_dims[v] for v in support])
        plan = sector.plan(matrix, support)
        vec = rng.standard_normal(sector.dim)
        full = linalg.make_plan(matrix, support, order, node_dims)(sector.lift(vec))
        assert np.max(np.abs(plan(vec) - full[sector.index])) < 1e-12
        assert np.linalg.norm(np.delete(full, sector.index)) < 1e-12
        (layout,) = {id(rows.base): rows.base for _, rows in plan.groups}.values()
        assert np.array_equal(layout, self.layout_oracle(sector, support))
        assert all((np.diff(rows, axis=1) > 0).all() for _, rows in plan.groups)

    def test_sum_of_plans_matches_full_space_sum(self):
        """A sum of one-term plans, real and complex, some on one support
        (which then share its layout), as H's apply adds them up."""
        rng = np.random.default_rng(6)
        order = tuple(self.NODE_DIMS)
        sector = linalg.Sector.of(order, self.NODE_DIMS)
        supports = [(0, 1), (0, 1), (0, 3), (3, 0), (3, 0), (1, 2), (2,), (0, 2, 3)]
        terms = [(self.conserving(rng, [self.NODE_DIMS[v] for v in sup], real=k % 2 == 0), sup)
                 for k, sup in enumerate(supports)]
        plans = [sector.plan(m, sup) for m, sup in terms]
        assert {plan.dtype for plan in plans} == {np.dtype(float), np.dtype(complex)}
        # a plan's rows all view one sector-length array, its support's layout
        layouts = [{id(rows.base) for _, rows in plan.groups} for plan in plans]
        assert all(len(ids) == 1 for ids in layouts) and layouts[3] == layouts[4]
        for plan in plans:
            for block, rows in plan.groups:
                assert block.shape == (len(rows), len(rows))
                assert rows.base.shape == (sector.dim,)
        vec = rng.standard_normal(sector.dim)
        full = sum(linalg.make_plan(m, sup, order, self.NODE_DIMS)(sector.lift(vec))
                   for m, sup in terms)
        got = sum(plan(vec) for plan in plans)
        assert np.max(np.abs(got - full[sector.index])) < 1e-12

    def test_index_bytes_are_one_layout_per_support(self, icosahedron):
        """H's P_e and Omega's Omega_e on an edge share its one int64 layout,
        so all sector plans together index 8 bytes per sector state per edge."""
        h = aklt.aklt_hamiltonian(G.chain(8, closed=True))
        protocol = proto.build_protocol(h, G.edge_coloring(h.graph), icosahedron)
        sector = h.local.sector
        assert sector.dim == 1107 and protocol.local.sector is sector
        vec = np.zeros(sector.dim)
        owners = {id(rows.base): rows.base
                  for plan in [*h.local.plans(vec).values(), *protocol.local.plans(vec).values()]
                  for _, rows in plan.groups}
        assert sum(a.nbytes for a in owners.values()) == 8 * sector.dim * len(h.graph.edges)

    @pytest.mark.parametrize("columns, memory", [((), "C"), ((3,), "C"), ((3,), "F")],
                             ids=["vector", "block", "fortran-block"])
    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    def test_call_leaves_its_input_unchanged(self, columns, memory, real):
        """Groups rewritten in place write to the call's own copy: on a
        matrix with a 1 x 1 group scaled by 0.5 and one left out (exactly 1),
        a read-only input stays as it was, and the output is the operator's."""
        rng = np.random.default_rng(7)
        node_dims = {0: 2, 1: 2, 2: 3}
        order = tuple(node_dims)
        sector = linalg.Sector.of(order, node_dims)
        matrix = self.conserving(rng, [2, 2], real=real)
        matrix[0, 0], matrix[3, 3] = 0.5, 1.0
        plan = sector.plan(matrix, (0, 1))
        assert sorted(block.size for block, _ in plan.groups) == [1, 4]
        vec = rng.standard_normal((sector.dim,) + columns)
        if not real:
            vec = vec + 1j * rng.standard_normal(vec.shape)
        vec = np.asarray(vec, order=memory)
        before = vec.copy()
        vec.setflags(write=False)
        got = plan(vec)
        assert np.array_equal(vec, before)
        full = linalg.make_plan(matrix, (0, 1), order, node_dims)(sector.lift(vec))
        assert np.max(np.abs(got - full[sector.index])) < 1e-12

    def test_plan_refuses_sz_changing_operator(self):
        sector = linalg.Sector.of((0, 1), {0: 2, 1: 2})
        sx, _, _ = linalg.spin_operators(1)
        with pytest.raises(InputError, match="changes S_z"):
            sector.plan(np.kron(sx, np.eye(2)), (0, 1))
