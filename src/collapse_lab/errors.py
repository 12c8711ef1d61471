"""Exception types shared across the package."""


class CollapseLabError(Exception):
    """Base class for all collapse-lab errors."""


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


class DegenerateVariance(CollapseLabError):
    """A variance hit exactly zero: the data-dependent encoder std on some
    sample, or the learnable decoder variance."""


class DivergenceError(CollapseLabError):
    """Training left the float range at the point reached by step ``step``: a loss
    it took became non-finite or, for Adam, which reads only the gradient, the
    gradient or its square did."""

    def __init__(self, step: int, what: str = "loss became non-finite"):
        super().__init__(f"{what} at step {step}")
        self.step = step
