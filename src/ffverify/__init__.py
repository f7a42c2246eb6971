"""Verification protocols for ground states of frustration-free Hamiltonians.

Builds matching/coloring protocols from bond tests, computes their spectral
gaps exactly on desk-scale systems, evaluates the closed-form gap and
sample-count bounds, and simulates the statistical verification procedure.
"""

from .errors import (DegenerateSpectrum, InputError, InvariantViolation,
                     NotFrustrationFree, ResourceError)
from .graph import (Hypergraph, MatchingCover, chain, degree, edge_coloring,
                    honeycomb_lattice, max_degree, square_lattice, trivial_cover)
from .linalg import eigh, embed, operator_norm, singular_values, spin_operators
from .hamiltonian import (FFHamiltonian, best_zeta_ordering, commutation_structure,
                          ground_space, random_ff_instance, spectral_gap_gamma)
from .detectability import (DLReport, dl_norm_check, dl_state_check,
                            projector_pair_check, union_gap_check)
from .aklt import (Bond, BondOperator, DirectionDistribution,
                   aklt_hamiltonian, bond, bond_design_report, bond_operator,
                   bond_test_projector, coherent_extremes, design_catalog,
                   frame_potential, is_design, isotropic_bond_operator,
                   overlap_trace, symmetrize, trace_floor)
from .protocol import (GapReport, Protocol, aklt_protocol_bounds, build_protocol,
                       coloring_gap_bound, gap_factor, gap_report,
                       matching_gap_bounds, measured_gap, sample_count,
                       sample_count_from_bounds)
from .simulate import (PreparedState, acceptance_probability, estimate_pass_rate,
                       prepare_state, run_many)

__version__ = "0.1.0"
