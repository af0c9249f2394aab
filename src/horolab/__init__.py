"""Numerical laboratory for horospherical equidistribution at desk scale.

Modules: algebra (flows, unipotents, constants), farey (primitive lattice
enumeration and counting), coords (matrix decompositions and the sphere
chart), targets (shrinking-target membership and measures), experiments
(equidistribution sweeps), cli (command-line front end).
"""

from .algebra import Constants, cd_lower, diagonal_flow, h0, unipotent_stable, unipotent_unstable, zeta
from .coords import (
    Chart,
    GrenierCoords,
    HRdCoords,
    IwasawaNAK,
    antipode,
    chart_matrix,
    grenier_reduce,
    hrd_coords,
    iwasawa,
    reverse_cholesky,
    reverse_cholesky_recursive,
    rotation_factor,
    section_coords,
)
from .farey import (
    DuplicateRegion,
    TranslatedFareyPoint,
    count_farey,
    duplicate_region,
    enumerate_farey,
    is_gamma_duplicate,
)
from .targets import (
    GrenierBoxSpherical,
    GrenierBoxStable,
    MembershipWitness,
    SphericalSection,
    StableSection,
    disjointness_budget,
    disjointness_property_sample,
    member_direct,
    member_dual,
)
from .experiments import (
    ExperimentConfig,
    ExperimentResult,
    convergence_report,
    marklof_average,
    sthe_run,
)

__version__ = "0.1.0"
