"""Krylov complexity of operator growth in a pentadiagonal natural basis.

The library studies the Hermitian evolution generator
L = alpha (a^dag + a) + (beta/2) ((a^dag)^2 + a^2) on a truncated Fock
space, three ways that must agree:

* closed forms for the number-basis amplitudes of the evolved vacuum
  (displaced-squeezed coherent states) and their moments (:mod:`coherent`),
* brute-force dense evolution by Hermitian eigendecomposition (:mod:`fock`),
* conventional Lanczos tridiagonalization and chain propagation
  (:mod:`lanczos`),

plus L itself and the sizing of the oracle and chain routes
(:mod:`algebra`), the dense symmetry-algebra generators and the
group-element factorization machinery connecting the routes (:mod:`bch`,
imported on its own as ``krylovgrowth.bch``: it needs scipy, which no CLI
mode does), and a sweep/verification CLI (:mod:`cli`).
"""

from .algebra import (
    LiouvillianSpec,
    build_liouvillian,
    chain_states,
    oracle_states,
    sized_oracle_states,
)
from .coherent import (
    AmplitudeSeries,
    DisplacementParams,
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
    variance_t,
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
    evolve_grid,
)
from .lanczos import (
    KrylovChain,
    chain_complexity,
    lanczos_tridiagonalize,
    propagate_chain,
)

__version__ = "0.1.0"
