"""Exception taxonomy shared across the package.

CLI exit codes map onto these: usage errors exit 1, data errors exit 2,
training divergence exits 3.
"""


class DentalMeshError(Exception):
    """Base class for all package errors."""


class MeshFormatError(DentalMeshError):
    """Mesh file cannot be parsed; message carries the offending line number."""


class SchemaError(DentalMeshError):
    """Annotation violates the label range or the landmark naming schema."""


class CheckpointError(DentalMeshError):
    """Checkpoint file is truncated, malformed, or incompatible with the model."""


class ShapeError(DentalMeshError):
    """Tensor operands have incompatible shapes; message names both shapes."""


class DecimationError(DentalMeshError):
    """Decimation target invalid or unreachable."""


class GenerationError(DentalMeshError):
    """Synthetic arch specification produces invalid geometry."""


class ConfigError(DentalMeshError):
    """Run configuration file or value is invalid."""


class NonFiniteGradientError(DentalMeshError):
    """A parameter gradient contains NaN or Inf; the optimizer step was aborted."""


class TrainingDivergenceError(DentalMeshError):
    """Training loss became non-finite; carries the last good state."""

    def __init__(self, message, last_good_state=None, loss_curve=None):
        super().__init__(message)
        self.last_good_state = last_good_state
        self.loss_curve = loss_curve if loss_curve is not None else []
