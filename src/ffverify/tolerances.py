"""Numeric cutoffs used throughout the package.

The underlying statements are exact; floating point needs explicit
thresholds, collected here so every module classifies the same way.
"""

import math
import os

from .errors import InputError, ResourceError

# Hermiticity / projector validation
HERMITIAN_TOL = 1e-10
PROJECTOR_TOL = 1e-10

# ||[P_j, P_k]|| above this counts as "does not commute"
COMMUTE_TOL = 1e-10

# singular values >= 1 - UNIT_SV_TOL are treated as exactly 1
UNIT_SV_TOL = 1e-9

# eigenvalues below this belong to the ground cluster
GROUND_TOL = 1e-9

# frame-potential and bond-operator equalities of the design checks
DESIGN_TOL = 1e-9

# eigenvalue clustering of total-spin operators: building total-spin subspace
# projectors, and reading the spins of a sector kernel's multiplets
SPIN_CLUSTER_TOL = 1e-8

UNIT_VECTOR_TOL = 1e-12
PROB_SUM_TOL = 1e-12

# instances with Hilbert dimension above this are refused outright
DEFAULT_MAX_DIM = 8192

# operators whose local matrices have |Im| at most this run in real arithmetic
REAL_TOL = 1e-14

# dense eigendecomposition up to this dimension, Lanczos iteration above: up
# to it one block apply and one LAPACK call cost less than the 20 applies of
# a single Lanczos basis
DENSE_EIG_LIMIT = 64

# thick restarts one Lanczos solve may take before it gives up
LANCZOS_MAX_RESTARTS = 300

# relative accuracy of every Lanczos solve: the bound on a Ritz pair's
# residual estimate, relative to max(|eigenvalue|, eps^(2/3))
LANCZOS_TOL = 1e-12

# slack of the bound checks (protocol gap, detectability-lemma chain)
BOUND_CHECK_TOL = 1e-9

# slack of the two-projector and union-gap inequalities
PROJECTOR_INEQ_TOL = 1e-10


def _echo(value: str) -> str:
    """value quoted, or its first 20 characters and its length when longer."""
    return repr(value) if len(value) <= 20 else f"{value[:20]!r}... ({len(value)} characters)"


def _magnitude(n: int) -> int | str:
    """n, or n named as a power of ten when it has 16 digits or more."""
    return n if n < 10 ** 15 else f"about 10^{math.log10(n):.1f}"


def max_dim() -> int:
    """Hard cap on Hilbert-space dimension, overridable via FFV_MAX_DIM."""
    value = os.environ.get("FFV_MAX_DIM")
    if value is None:
        return DEFAULT_MAX_DIM
    try:
        parsed = int(value)
    except ValueError:
        raise InputError(f"FFV_MAX_DIM must be an integer, got {_echo(value)}") from None
    if parsed <= 0:
        raise InputError(f"FFV_MAX_DIM must be positive, got {_echo(value)}")
    return parsed


def check_dim(d: int, what: str) -> None:
    """Refuse `what` (e.g. "low-spectrum solve") of dimension d above the cap."""
    cap = max_dim()
    if d > cap:
        raise ResourceError(f"{what} of dimension {_magnitude(d)} exceeds FFV_MAX_DIM="
                            f"{_magnitude(cap)}; use a smaller instance or raise the cap")


def check_nodes(n: int) -> None:
    """Refuse, before it is built, a space of n nodes of dimension at least 2
    each: its dimension of 2^n or more exceeds the cap once n reaches the
    cap's bit length."""
    cap = max_dim()
    if n >= cap.bit_length():
        raise ResourceError(f"a Hilbert space of {_magnitude(n)} nodes of dimension 2 or more "
                            f"exceeds FFV_MAX_DIM={_magnitude(cap)}; use a smaller instance "
                            "or raise the cap")
