"""Exception types shared across the package.

The CLI maps these onto distinct exit codes, so raising the right class
matters: ShapeError-family problems are "the data does not fit the spaces",
DiagramError-family problems are "the wiring itself is ill-formed".
"""

from __future__ import annotations

__all__ = [
    "ShapeError", "ParameterError", "EvalError", "ExprSyntaxError",
    "ExprTypeError", "ModelSyntaxError", "DiagramError",
]


class ShapeError(ValueError):
    """A value, descriptor, or map does not fit the Space it was used with."""


class ParameterError(ShapeError):
    """A distribution parameter violates its precondition (e.g. p outside [0,1])."""


class EvalError(ShapeError):
    """A deterministic expression failed at evaluation time (division by zero, ln(0), ...)."""


class ExprSyntaxError(ValueError):
    """Malformed expression text."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at offset {pos})")
        self.pos = pos


class ExprTypeError(ShapeError):
    """Expression does not shape-check against the declared Spaces."""

    def __init__(self, message: str, pos: int = -1):
        suffix = f" (at offset {pos})" if pos >= 0 else ""
        super().__init__(message + suffix)
        self.pos = pos


class ModelSyntaxError(ValueError):
    """A model file is not structurally well-formed (bad JSON, missing or
    unresolved fields). Distinct from shape errors: the file cannot even be
    read as a model, let alone checked."""


class DiagramError(ValueError):
    """A diagram or model failed structural validation."""

    def __init__(self, message: str, violations: list[str] | None = None):
        super().__init__(message)
        self.violations = violations or []
