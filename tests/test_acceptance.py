"""Acceptance suite.

Each test exercises one acceptance criterion at its stated tolerance and
prints one PASS/FAIL line (visible with `pytest -s` or on failure).
"""

import contextlib
import math
import time

import numpy as np
import pytest

from ffverify import aklt, detectability as dl, graph as G, hamiltonian as ham
from ffverify import protocol as proto, simulate as sim

import oracles
from conftest import random_state, random_unit_vector


@contextlib.contextmanager
def criterion(number, description, budget_seconds=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d} ({description}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    if budget_seconds is not None and elapsed > budget_seconds:
        print(f"criterion {number:2d} ({description}): FAIL (runtime {elapsed:.2f}s)")
        raise AssertionError(
            f"criterion {number} exceeded its {budget_seconds}s budget: {elapsed:.2f}s")
    print(f"criterion {number:2d} ({description}): PASS [{elapsed:.2f}s]")


def test_criterion_01_sample_cost_table():
    with criterion(1, "closed-chain sample-cost table", budget_seconds=1.0):
        n_strong, _ = proto.sample_count_from_bounds(
            m=2, nu_e=2 / 5, epsilon=0.01, delta=0.01, gamma=0.350, s=0.5, g=2)
        assert n_strong == 16525

        hkse = proto.hkse_cost(100, 0.350, 0.01, 0.01)
        assert abs(hkse - 3.76e11) / 3.76e11 <= 0.01

        bhsre = proto.bhsre_lower(100, 0.350, 0.01, 0.01, kappa=2)
        assert abs(bhsre - 2.32e9) / 2.32e9 <= 0.01

        # the coloring-protocol count does not depend on the chain length;
        # every competitor cost on a closed chain of n edges grows with n
        sizes = range(20, 201, 20)
        costs = []
        for n in sizes:
            again, _ = proto.sample_count_from_bounds(
                m=2, nu_e=2 / 5, epsilon=0.01, delta=0.01, gamma=0.350, s=0.5, g=2)
            assert again == n_strong
            exact = proto.hkse_cost(n, 0.350, 0.01, 0.01)
            assert abs(proto.hkse_cost_approx(n, 0.350, 0.01, 0.01) - exact) <= 0.01 * exact
            costs.append((exact, proto.bhsre_lower(n, 0.350, 0.01, 0.01, kappa=2),
                          proto.tm_lower(n, 1.0), *proto.gkea_costs(n, 0.01, 0.01)))
        for column in zip(*costs):
            assert n_strong < column[0] and all(a < b for a, b in zip(column, column[1:]))


def test_criterion_02_honeycomb_numbers():
    with criterion(2, "honeycomb closed-form numbers", budget_seconds=1.0):
        strong, _ = proto.matching_gap_bounds(m=3, nu_e=2 / 7, gamma=0.10,
                                              s=0.5, g=4)
        assert abs(strong - 5.88e-4) < 0.005e-4  # 5.88e-4 to three significant figures

        n_strong, _ = proto.sample_count_from_bounds(
            m=3, nu_e=2 / 7, epsilon=0.01, delta=0.01, gamma=0.10, s=0.5, g=4)
        assert abs(n_strong - 7.9e5) / 7.9e5 <= 0.01


def test_criterion_03_bond_operator_equivalences(chain4, icosahedron, tetrahedron):
    with criterion(3, "bond-operator equivalence suite", budget_seconds=1.0):
        b = aklt.bond(chain4, (0, 1))
        assert b.twice_se == 4

        op = aklt.bond_operator(b, icosahedron)
        closed_form = b.ground_projector + (3 / 5) * b.top_projector
        assert np.max(np.abs(op.matrix - closed_form)) < 1e-10
        assert abs(op.gap - 2 / 5) < 1e-10

        rep = aklt.bond_design_report(b, tetrahedron)
        assert not rep.gap_is_maximal
        assert not rep.matches_closed_form
        assert not rep.is_homogeneous
        assert not rep.is_design
        assert rep.statements_agree
        assert rep.passed


def test_criterion_04_frame_potentials(icosahedron):
    with criterion(4, "frame potentials and design tests", budget_seconds=1.0):
        assert abs(aklt.frame_potential(icosahedron, 2) - 1 / 3) < 1e-12
        assert abs(aklt.frame_potential(icosahedron, 4) - 1 / 5) < 1e-12
        assert aklt.is_design(aklt.design_catalog("dodecahedron"), 5)
        cube = aklt.design_catalog("cube")
        assert aklt.is_design(cube, 3)
        assert not aklt.is_design(cube, 4)


def test_criterion_05_trace_floor(chain4, icosahedron, tetrahedron):
    with criterion(5, "trace-floor saturation", budget_seconds=1.0):
        b = aklt.bond(chain4, (0, 1))
        floor = aklt.trace_floor(b.twice_se)
        assert abs(floor - 9 / 5) < 1e-15

        rep_ico = aklt.bond_design_report(b, icosahedron)
        assert abs(rep_ico.trace_sq - 9 / 5) < 1e-10

        rep_tet = aklt.bond_design_report(b, tetrahedron)
        assert rep_tet.trace_sq - floor > 1e-3


def test_criterion_06_overlap_trace_identity():
    with criterion(6, "overlap-trace closed form vs matrices", budget_seconds=5.0):
        rng = np.random.default_rng(606)
        for twice_sj, twice_sk in ((1, 1), (1, 2), (2, 2), (3, 3)):
            b = aklt.Bond((0, 1), twice_sj, twice_sk)
            for _ in range(20):
                r, s = random_unit_vector(rng), random_unit_vector(rng)
                direct = oracles.overlap_trace_matrix(b, r, s)
                closed = aklt.overlap_trace(b.twice_se, float(r @ s))
                assert abs(direct - closed) < 1e-9


@pytest.mark.parametrize("n", [4, 6, 8])
def test_criterion_07_exact_diagonalization_suite(n, icosahedron):
    with criterion(7, f"exact-diagonalization bound suite, n={n}",
                   budget_seconds=300.0):
        h = aklt.aklt_hamiltonian(G.chain(n, closed=True))
        cover = G.edge_coloring(h.graph)
        assert len(cover) == 2
        protocol = proto.build_protocol(h, cover, icosahedron)

        structure = ham.commutation_structure(h)
        gamma = ham.spectral_gap_gamma(h)
        nu = proto.measured_gap(protocol)
        strong, weak = proto.matching_gap_bounds(
            m=2, nu_e=protocol.nu_e, gamma=gamma, s=structure.s, g=structure.g)
        assert nu >= strong - 1e-9
        assert nu >= weak - 1e-9

        # uniform probabilities equal |M_l|/|E| for the balanced 2-coloring
        thm2 = proto.coloring_gap_bound(protocol.nu_e, gamma, n)
        assert nu >= thm2 - 1e-9

        report = dl.dl_norm_check(h)
        chain = (report.measured,) + report.bounds
        for lo, hi in zip(chain, chain[1:]):
            assert lo <= hi + 1e-9


def test_criterion_08_coloring_bound_saturation(chain4):
    with criterion(8, "coloring-bound saturation", budget_seconds=30.0):
        protocol = proto.build_protocol(chain4, G.trivial_cover(chain4.graph), None)
        gamma = ham.spectral_gap_gamma(chain4)
        nu = proto.measured_gap(protocol)
        bound = proto.coloring_gap_bound(protocol.nu_e, gamma, 4)
        assert abs(nu - bound) < 1e-9


def test_criterion_09_union_bound_sweep():
    with criterion(9, "projector-average gap bound sweep", budget_seconds=120.0):
        rng = np.random.default_rng(909)
        for trial in range(200):
            m = int(rng.integers(2, 6))
            dim = int(rng.integers(2, 33))
            ps = [dl.random_projector(rng, dim, int(rng.integers(1, dim)))
                  for _ in range(m)]
            check = dl.union_gap_check(ps)
            assert check.gap >= check.rhs - 1e-10, f"trial {trial}"
            if m == 2:
                assert abs(check.gap - (1 - check.product_norm) / 2) <= 1e-10

        # rank-1 orthogonal configuration saturates the bound
        for m in (2, 3, 4, 5):
            p1 = np.zeros((4, 4), dtype=complex)
            p1[0, 0] = 1
            p2 = np.zeros((4, 4), dtype=complex)
            p2[1, 1] = 1
            check = dl.union_gap_check([p1] + [p2] * (m - 1))
            assert abs((1 - check.gap) - (m - 1) / m) < 1e-12
            assert abs(check.gap - check.rhs) < 1e-12


def test_criterion_10_statistical_law(chain4, icosahedron):
    with criterion(10, "statistical verification law", budget_seconds=120.0):
        epsilon = 0.05
        delta = 0.01
        protocol = proto.build_protocol(chain4, G.edge_coloring(chain4.graph),
                                        icosahedron)
        state = sim.prepare_state(protocol, "worst_case", epsilon)
        nu = proto.measured_gap(protocol)

        exact = sim.acceptance_probability(protocol, state)
        assert abs(exact - (1 - nu * epsilon)) < 1e-10

        rate, stderr = sim.estimate_pass_rate(protocol, state, 100_000, seed=1010)
        assert abs(rate - exact) <= 3 * stderr

        n_tests = proto.sample_count(nu, epsilon, delta)
        passed = sim.run_many(sim.acceptance_probability(protocol, state), n_tests,
                              runs=10_000, seed=2020)
        acceptance = sim.aggregate(passed, n_tests)["acceptance_rate"]
        assert acceptance <= delta + 3 * math.sqrt(delta / 10_000)


def aklt_protocols(design):
    """The AKLT protocols of criteria 11 and 13: closed chains 4, 6 and 8 and
    the open honeycomb 2x1, each with its edge coloring."""
    graphs = [G.chain(n, closed=True) for n in (4, 6, 8)] + [G.honeycomb_lattice(2, 1)]
    for g in graphs:
        h = aklt.aklt_hamiltonian(g)
        yield proto.build_protocol(h, G.edge_coloring(g), design)


def test_criterion_11_dl_state_bound(icosahedron):
    with criterion(11, "energy-resolved DL bound on the top excited state",
                   budget_seconds=30.0):
        for protocol in aklt_protocols(icosahedron):
            _, phi = proto.top_excited_pair(protocol)
            check = dl.dl_state_check(protocol.hamiltonian, None, phi)
            assert check.energy is not None and check.phi_norm_sq > 0
            assert check.passed


def test_criterion_12_projector_pair_inequality():
    with criterion(12, "two-projector inequality on random pairs", budget_seconds=5.0):
        rng = np.random.default_rng(1212)
        for trial in range(200):
            dim = int(rng.integers(2, 17))
            p = dl.random_projector(rng, dim, int(rng.integers(1, dim)))
            q = dl.random_projector(rng, dim, int(rng.integers(1, dim)))
            check = dl.projector_pair_check(p, q, random_state(rng, dim))
            assert check.passed, f"trial {trial}"


def test_criterion_13_aklt_gap_floor_and_zeta_ordering(icosahedron):
    with criterion(13, "AKLT gap floor and zeta-optimal ordering", budget_seconds=30.0):
        for protocol in aklt_protocols(icosahedron):
            h = protocol.hamiltonian
            gamma = ham.spectral_gap_gamma(h)
            floor = proto.aklt_protocol_bounds(h.graph, gamma)["gap_floor"]
            assert floor <= proto.measured_gap(protocol)
            ordering, zeta = ham.best_zeta_ordering(h)
            assert zeta <= ham.commutation_structure(h).zeta
            # the zeta-optimal ordering tightens the product-norm bound
            report = dl.dl_norm_check(h, ordering)
            assert report.passed
            assert report.bounds[0] <= dl.dl_norm_check(h).bounds[0]

        # the sample ceiling does not grow with the lattice; the large-degree
        # variant's does
        ceilings = [proto.aklt_protocol_bounds(G.chain(n, closed=True), 0.350, 0.01, 0.01)
                    for n in range(20, 201, 20)]
        assert len({c["n_ceiling"] for c in ceilings}) == 1
        large = [c["large_degree_n"] for c in ceilings]
        assert all(a < b for a, b in zip(large, large[1:]))
