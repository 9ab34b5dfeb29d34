"""Numerical laboratory for the Maxwell-Dirac system with data varying in one
spatial direction.

The package builds the mollified charge-class data family, evolves the reduced
transport/wave system on a characteristic grid, verifies the a-priori
inequalities that control it, and runs the eps-sweeps that exhibit the
logarithmic blow-up of the Coulomb-type potential next to bounded transverse
potentials and a persistent spinor modulus.
"""

from .gamma_algebra import (
    coupling,
    spinor_components,
    spinor_rhs,
    wave_sources,
)
from .initial_data import (
    CutoffSpec,
    DataFamily,
    GridSpec,
    PotentialMode,
    chi,
    f_eps,
    hs_norm,
    lp_norm,
    potential_data,
    spinor_datum,
)
from .cone_solver import (
    SolverAbort,
    Trajectory,
    evolve,
    wave_solve,
)
from .estimates import (
    EstimateReport,
    bootstrap_threshold,
    nullform_refinement,
    run_energy_suite,
    run_nullform_suite,
    run_wave_suite,
)
from .experiments import (
    BlowupFit,
    SweepPlan,
    a0_lower_bound,
    check_claim1,
    check_claim2,
    check_claim3,
    gauss_divergence,
    grid_for_eps,
    run_sweep,
)

__version__ = "0.1.0"
