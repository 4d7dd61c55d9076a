"""Numerical workbench for Bergman-Orlicz spaces on the complex unit ball.

Growth-function calculus, weighted quadrature on the ball, Luxembourg norms,
kernel test functions, the Cesaro-type averaging operator, and a harness of
verification suites that measure the constants in the underlying estimates.
"""

from .errors import (
    ConjugateInfiniteError,
    DegenerateFunctionError,
    DivergentNormError,
    DomainError,
    FunctionSpecError,
    NonFiniteIntegrandError,
    SymbolInvariantError,
    UnboundedInverseError,
    UnsupportedRuleError,
    WorkbenchError,
)
from .growth import (
    GrowthFunction,
    complementary,
    delta2_constant,
    equivalence_constants,
    indices,
    interpolate_growth,
    nabla2_check,
    power_growth,
    power_inv_log_growth,
    power_log_growth,
    resolve_growth,
    rho_power,
    rho_power_log,
    shipped_growth_ids,
)
from .harness import (
    VerificationReport,
    default_family,
    default_symbols,
    verify_cesaro_boundedness,
    verify_cesaro_compactness,
    verify_derivative_equivalence,
    verify_interpolation_power,
    verify_pointwise_estimates,
    verify_small_type,
    verify_test_functions,
)
from .holo import (
    KernelPower,
    Series,
    Sum,
    Product,
    cauchy_gradient,
    chain_inequality_check,
    function_from_spec,
    function_to_spec,
    invariant_gradient,
    on_rule,
    test_function,
    to_series,
)
from .measure import (
    QuadratureRule,
    WeightedMeasure,
    build_rule,
    integrate,
    kernel_factor,
    make_measure,
    mobius_apply,
)
from .norms import (
    LuxNorm,
    derivative_modulars,
    derivative_pointwise_constant,
    luxemburg_norm,
    modular,
    pointwise_bound_constant,
    rule_for_function,
    small_type_estimate_check,
)
from .operators import (
    BlochReport,
    CesaroSymbol,
    bloch_seminorm,
    cesaro_apply_exact,
    cesaro_apply_numeric,
    cesaro_norm_lower_bound,
    cesaro_upper_bound_check,
    radial_derivative_identity_check,
)

__version__ = "0.1.0"
