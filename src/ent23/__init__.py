"""Entanglement measures for qubit-qubit and qubit-qutrit pure states.

Concurrence computed along three independent routes (amplitude minors, Bloch
vector norm, Schmidt coefficients), the Schmidt decomposition itself, the
entanglement of formation, the coherence-vector codec for 6x6 density
matrices, deterministic random-state sampling, and a verification suite that
requires all routes to agree numerically.
"""

from .bases import (
    CoherenceDecomposition,
    DensityMatrix,
    GELL_MANN,
    PAULI,
    decompose,
    reconstruct,
    reduced_a,
    reduced_b,
)
from .errors import (
    ConsistencyError,
    StateFileError,
    UnsupportedDimensionError,
    ValidationError,
)
from .linalg import hermitian_eig2, hermitian_eig3, hermitian_eigvecs2
from .measures import (
    EntanglementReport,
    PureState,
    SchmidtForm,
    binary_entropy,
    concurrence_amplitudes,
    concurrence_bloch,
    concurrence_schmidt,
    eof_from_concurrence,
    full_report,
    schmidt_decompose,
    von_neumann_entropy,
)
from .rng import RandomStream
from .sampling import (
    haar_random,
    product_state,
    random_unitary,
    rotate_local,
    schmidt_pair_state,
)
from .statefile import parse_state_file, render_state_file
from .verify import CheckResult, VerifyOutcome, run_verification

__version__ = "0.1.0"
