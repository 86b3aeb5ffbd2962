"""Monte Carlo verification lab for demimartingale inequalities.

The package generates seeded discrete-time stochastic sequences, tests the
defining inequalities of association and demimartingales statistically,
evaluates closed-form maximal and discrete Gronwall bounds (including a
fractional variant built on the L1-Caputo difference operator and the
Mittag-Leffler function), simulates the backward Euler-Maruyama scheme for
coercive SDE systems, and checks every stated inequality by Monte Carlo
estimation against its closed-form bound.
"""

from .bem import (
    BemBatch,
    BemConfig,
    SdeModel,
    apriori_moment_bound,
    bounded_diffusion_model,
    coercivity_probe,
    frozen_model,
    ou_model,
    simulate_bem,
    verify_apriori_bound,
    z_sequence,
)
from .demi import (
    Constant1,
    CoordinateRamp,
    ProductRamp,
    ShiftedIdentityLast,
    TestFunctionFamily,
    check_association,
    check_demimartingale,
    two_point_stats,
)
from .fractional import (
    FractionalModel,
    caputo_l1_forms,
    effective_rate,
    kernel_mass,
    l1_a,
    l1_b_row,
    mittag_leffler,
    ml_growth_factor,
    multi_term_table,
    verify_fractional_gronwall,
)
from .generators import (
    GeneratorSpec,
    TrajectoryBatch,
    associated_increment_matrix,
    associated_increments,
    generate_paths,
)
from .gronwall import (
    GronwallInstance,
    HolderPair,
    build_instance,
    holder_bound,
    maximal_moment_bound,
    neg_inf_mean,
    sup_moment,
    verify_gronwall,
    verify_maximal_inequality,
)
from .reporting import VerificationReport
from .rng import normal_matrix, uniform_matrix

__version__ = "0.1.0"
