"""Krylov complexity of operator growth in a pentadiagonal natural basis.

The library studies the Hermitian evolution generator
L = alpha (a^dag + a) + (beta/2) ((a^dag)^2 + a^2) on a truncated Fock
space, three ways that must agree:

* closed forms for the number-basis amplitudes of the evolved vacuum
  (displaced-squeezed coherent states) and their moments (:mod:`coherent`),
* brute-force dense evolution by Hermitian eigendecomposition (:mod:`fock`),
* conventional Lanczos tridiagonalization and chain propagation
  (:mod:`lanczos`),

plus the group-element factorization machinery connecting them
(:mod:`bch`, imported on its own as ``krylovgrowth.bch``: it needs scipy,
which no CLI mode does), the symmetry-algebra generators (:mod:`algebra`),
and a sweep/verification CLI (:mod:`cli`).
"""

from .algebra import (
    LiouvillianSpec,
    QuadraticHamiltonian,
    build_generators,
    build_liouvillian,
    commutator,
    hamiltonian_to_matrix,
)
from .coherent import (
    AmplitudeSeries,
    DisplacementParams,
    SL2RWeight,
    amplitude_deviation,
    autocorrelator_alt_closed_form,
    autocorrelator_t,
    closed_form_params,
    complexity_closed,
    hermite_closed_form,
    late_time_growth_exponent,
    mehler_normalization_check,
    moment_identity_value,
    moment_n,
    phi_series,
    phi_zero,
    schrodinger_complexity_t,
    scrambling_time,
    sl2r_profile,
    variance_alt_closed_form,
)
from .errors import (
    Breakdown,
    DecompositionFailure,
    DimensionMismatch,
    EdgeLeak,
    KrylovGrowthError,
    NonConvergent,
    TruncationOverflow,
)
from .fock import (
    FockVector,
    OperatorMatrix,
    TruncationConfig,
    build_ladders,
    evolve_state,
    guard_band_mass,
)
from .lanczos import (
    ChainWavefunction,
    KrylovChain,
    chain_complexity,
    lanczos_tridiagonalize,
    project_onto_chain,
    propagate_chain,
)

__version__ = "0.1.0"
