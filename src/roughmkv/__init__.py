"""Numerical laboratory for interacting particle systems sharing a rough signal.

The package is organised bottom-up:

``grids``          time grids everything lives on
``roughpath``      level-2 signals: lifts, accumulation, geometricity checks
``measures``       empirical measures, flows, transport distances
``coefficients``   drift/diffusion/signal coefficient bundles with measure
                   derivatives
``simulate``       the one-step expansion scheme for particle ensembles
``weakcheck``      weak-form residuals of simulated flows and order scans
``backward``       sampled backward value functions and the duality probe
``scenario``       text scenario format for reproducible runs
``experiments``    the five runnable experiments
``cli``            the ``roughmkv`` command
"""

from .grids import TimeGrid
from .roughpath import (
    GridRoughPath,
    brownian_lift,
    chen_extend,
    chen_residual,
    holder_norms,
    ito_from_stratonovich,
    lift_piecewise_linear,
    restrict,
    stratonovich_from_ito,
    sym_defect,
)
from .measures import (
    EmpiricalMeasure,
    MeasureFlow,
    pairing,
    wasserstein2_1d,
    wasserstein2_exact_small,
)
from .coefficients import (
    CoefficientSet,
    RoughFamily,
    area_coefficient,
    coefficient_set,
    constant_rough,
    convolution_family,
    lions_fd_check,
    measure_free_family,
    moment_family,
)
from .simulate import (
    NumericalBlowup,
    SimulationConfig,
    controlled_diagnostics,
    initial_states,
    simulate,
    step_davie,
)
from .weakcheck import (
    TestFunction,
    default_bank,
    residual_order_scan,
    weak_residual,
)
from .backward import BackwardSolution, duality_drift, solve_backward_fk
from .scenario import Scenario, ScenarioError, parse_scenario_file, parse_scenario_text

__version__ = "0.1.0"
