"""Exception types shared across the package."""


class CollapseLabError(Exception):
    """Base class for all collapse-lab errors."""


class InvalidSpec(CollapseLabError):
    """A synthetic data specification violates its invariants."""


class ParseError(CollapseLabError):
    """A dataset file is malformed.

    Carries the offending row/column when known (0-based, header excluded).
    """

    def __init__(self, message: str, row: int | None = None, col: int | None = None):
        loc = []
        if row is not None:
            loc.append(f"row {row}")
        if col is not None:
            loc.append(f"col {col}")
        if loc:
            message = f"{message} ({', '.join(loc)})"
        super().__init__(message)
        self.row = row
        self.col = col


class DegenerateInput(CollapseLabError):
    """Input data carries no usable signal (e.g. zero second moment)."""


class ShapeError(CollapseLabError):
    """Array dimensions are inconsistent with the model configuration."""


class DomainError(CollapseLabError):
    """A scalar argument lies outside its mathematical domain."""


class DegenerateVariance(CollapseLabError):
    """A variance hit exactly zero: the data-dependent encoder std on some
    sample, or the learnable decoder variance."""


class DivergenceError(CollapseLabError):
    """Training produced a non-finite loss."""

    def __init__(self, step: int):
        super().__init__(f"loss became non-finite at step {step}")
        self.step = step
