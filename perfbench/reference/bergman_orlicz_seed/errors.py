"""Exception hierarchy shared across the workbench."""

from __future__ import annotations


class WorkbenchError(Exception):
    """Base class for all package-specific failures."""


class DomainError(WorkbenchError, ValueError):
    """An argument left the mathematical domain of an operation."""


class DegenerateFunctionError(WorkbenchError, ValueError):
    """A growth function vanishes or misbehaves where it must not."""


class ConjugateInfiniteError(WorkbenchError, ArithmeticError):
    """The convex conjugate is +infinity at the requested point."""


class UnboundedInverseError(WorkbenchError, ArithmeticError):
    """Bracket expansion for a monotone inverse hit its cap."""


class DivergentNormError(WorkbenchError, ArithmeticError):
    """Luxembourg bisection could not bracket a finite norm."""


class SymbolInvariantError(WorkbenchError, ValueError):
    """A Cesaro symbol violates g(0) = 0 or a coefficient invariant."""


class UnsupportedRuleError(WorkbenchError, ValueError):
    """No quadrature construction exists for the requested parameters."""


class NonFiniteIntegrandError(WorkbenchError, ArithmeticError):
    """An integrand produced a non-finite value at a quadrature node."""

    def __init__(self, message: str, node_index: int | None = None):
        super().__init__(message)
        self.node_index = node_index


class FunctionSpecError(WorkbenchError, ValueError):
    """A structured function or growth spec failed to parse."""
