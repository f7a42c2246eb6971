"""Block applies: every operator a dense solve materializes acts on an (n, b)
block of column vectors as on each column alone, in real and complex
arithmetic.  Below DENSE_EIG_LIMIT `linalg._eigsh` builds the operator from
one apply to the identity, so these are the differential tests of that path."""

import numpy as np
import pytest

from ffverify import aklt, graph as G, linalg, protocol as proto

import test_sector
from test_spectral import complex_instance

FIELDS = ("real", "complex")
COLUMNS = 5


def random_block(rng, n: int, field: str, columns: int = COLUMNS) -> np.ndarray:
    block = rng.standard_normal((n, columns))
    return block if field == "real" else block + 1j * rng.standard_normal((n, columns))


def assert_columnwise(apply, block: np.ndarray) -> None:
    """apply(block) equals the column-by-column applies, to 1e-12."""
    got = apply(block)
    want = np.column_stack([apply(np.ascontiguousarray(col)) for col in block.T])
    assert got.shape == block.shape and got.dtype == want.dtype
    assert np.max(np.abs(got - want)) < 1e-12


class TestApplyPlan:
    NODE_DIMS = {0: 2, 1: 3, 2: 2}

    # the block each support compiles to pins the branch it takes
    @pytest.mark.parametrize("support, block", [((0, 1), (1, 6, 2)), ((1, 2), (2, 6, 1)),
                                                ((2,), (6, 2, 1)), ((0, 2), None),
                                                ((2, 0), None)],
                             ids=["adjacent", "last-node-pair", "last-node", "non-adjacent",
                                  "non-adjacent-reversed"])
    @pytest.mark.parametrize("field", FIELDS)
    def test_block_matches_columns(self, support, block, field):
        rng = np.random.default_rng(len(support) + 10 * support[0])
        d_e = int(np.prod([self.NODE_DIMS[v] for v in support]))
        matrix = random_block(rng, d_e, field, columns=d_e)
        plan = linalg.make_plan(matrix, support, (0, 1, 2), self.NODE_DIMS)
        assert plan.block == block
        assert_columnwise(plan, random_block(rng, 12, field))


class TestSectorPlan:
    NODE_DIMS = test_sector.TestSector.NODE_DIMS

    @pytest.mark.parametrize("support", [(0, 1), (3, 0), (2,), (0, 2, 3), (0, 3), (1, 2)])
    @pytest.mark.parametrize("field", FIELDS)
    def test_one_term_block_matches_columns(self, support, field):
        rng = np.random.default_rng(3)
        sector = linalg.Sector.of(tuple(self.NODE_DIMS), self.NODE_DIMS)
        matrix = test_sector.TestSector.conserving(
            rng, [self.NODE_DIMS[v] for v in support], real=field == "real")
        assert_columnwise(sector.plan(matrix, support), random_block(rng, sector.dim, field))


@pytest.fixture(scope="module")
def closed_chain_five():
    return aklt.aklt_hamiltonian(G.chain(5, closed=True))


class TestOperators:
    @pytest.mark.parametrize("space", ["full", "sector", "complex-full"])
    @pytest.mark.parametrize("field", FIELDS)
    def test_hamiltonian_apply(self, closed_chain_five, space, field):
        h = complex_instance() if space == "complex-full" else closed_chain_five
        n = h.local.sector.dim if space == "sector" else h.dim
        assert_columnwise(h.apply, random_block(np.random.default_rng(5), n, field))

    @pytest.mark.parametrize("space", ["full", "sector"])
    @pytest.mark.parametrize("field", FIELDS)
    def test_apply_omega(self, closed_chain_five, icosahedron, space, field):
        h = closed_chain_five
        p = proto.build_protocol(h, G.edge_coloring(h.graph), icosahedron)
        assert p.local.sector is not None
        n = p.local.sector.dim if space == "sector" else h.dim
        assert_columnwise(p.apply_omega, random_block(np.random.default_rng(6), n, field))

    @pytest.mark.parametrize("basis_field", FIELDS)
    @pytest.mark.parametrize("field", FIELDS)
    def test_deflate(self, basis_field, field):
        rng = np.random.default_rng(7)
        basis, _ = np.linalg.qr(random_block(rng, 30, basis_field, columns=3))
        assert_columnwise(lambda v: linalg.deflate(basis, v), random_block(rng, 30, field))
