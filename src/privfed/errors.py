"""Exception types shared across the simulator."""


class ConfigurationError(ValueError):
    """A task, mechanism, or experiment was configured with invalid parameters."""


class ConfigValidationError(ConfigurationError):
    """Experiment config failed validation; ``errors`` lists every violated field."""

    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        super().__init__("invalid config: " + "; ".join(self.errors))


class ShapeError(ValueError):
    """Vector or matrix dimensions do not agree."""


class NumericError(ValueError):
    """Non-finite values where finite reals are required."""


class EvaluationError(ValueError):
    """Metric or attack evaluation on an empty or malformed sample set."""


class ProtocolError(RuntimeError):
    """A federation or secure-aggregation protocol contract was broken."""


class LedgerError(RuntimeError):
    """Privacy-ledger misuse (out-of-order rounds, an unscheduled round)."""


class BudgetExhausted(RuntimeError):
    """A charge would push an institution past its privacy budget cap.

    The ledger is left unchanged; the signal names the institution.
    """

    def __init__(self, institution_id: str, requested_epsilon: float,
                 total_epsilon: float, cap_epsilon: float):
        self.institution_id = institution_id
        self.requested_epsilon = requested_epsilon
        self.total_epsilon = total_epsilon
        self.cap_epsilon = cap_epsilon
        super().__init__(
            f"privacy budget exhausted for {institution_id}: "
            f"spent {total_epsilon:.6g}, requested {requested_epsilon:.6g}, "
            f"cap {cap_epsilon:.6g}"
        )


class FormatError(ValueError):
    """A file read from outside the program could not be parsed; ``line_no``,
    when given, is the 1-based line of its first malformed record."""

    def __init__(self, message: str, line_no: int | None = None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


class ChainFormatError(FormatError):
    """Audit chain / proof / policy file could not be parsed."""


class RecordsFormatError(FormatError):
    """A report records file could not be parsed."""


class ProvabilityError(RuntimeError):
    """Ledger and audit chain disagree; a compliance proof cannot be built."""
