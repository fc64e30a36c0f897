"""Exception types shared across the package.

The CLI maps these onto exit codes: ingest/I/O problems and unreadable
checkpoints exit 1, bad configuration (including a checkpoint used with
other run or network settings than it was trained for) exits 2, numerical
failures exit 3.  A ``MemoryError`` from any stage also exits 1, and an
interrupt 130, each with one ``error:`` line.
"""


class SumlifeError(Exception):
    """Base class for all package errors."""


class IngestError(SumlifeError):
    """Fatal I/O problem while reading snapshot data or a result matrix."""


class CheckpointError(SumlifeError):
    """A file that cannot be read as a checkpoint: bad magic, unsupported
    version, truncated or undecodable header, a missing, ill-typed or
    out-of-range header field, truncated payload, a mismatched vocabulary."""


class ConfigError(SumlifeError):
    """Invalid or unknown configuration."""


class NumericalError(SumlifeError):
    """Non-finite value detected in a tensor or loss."""


class TrainingDivergence(NumericalError):
    """Training produced NaN/Inf; carries the offending task and step."""

    def __init__(self, task_index: int, step: int, detail: str):
        self.task_index = task_index
        self.step = step
        super().__init__(f"divergence at task {task_index}, step {step}: {detail}")
