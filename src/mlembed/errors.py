"""Exception taxonomy shared across the package."""


class MlembedError(Exception):
    """Base of every package error; each subclass keeps ValueError or RuntimeError too."""


class ShapeError(MlembedError, ValueError):
    """Operand shapes are incompatible."""


class DegenerateInputError(MlembedError, ValueError):
    """Input is numerically degenerate (e.g. a near-zero vector fed to a normalizer)."""


class DegenerateGroupError(MlembedError, ValueError):
    """A loss was handed a group with an empty positive or negative set."""


class DataFormatError(MlembedError, ValueError):
    """A dataset file or record violates the expected format."""


class SamplingError(MlembedError, RuntimeError):
    """The sampler cannot satisfy a draw (e.g. a label with no candidates).

    Raised for step j of a block of steps, it carries the batch of the
    first j steps as ``batch``."""

    batch = None


class GroupRejected(SamplingError):
    """A single anchor group could not be completed; the caller may retry with a new anchor."""


class ContractError(MlembedError, ValueError):
    """A caller violated an API precondition."""


class ConfigError(MlembedError, ValueError):
    """A configuration value or key is invalid."""


class EvaluationError(MlembedError, RuntimeError):
    """A function under numerical test produced a non-finite value."""


class TrainingAbort(MlembedError, RuntimeError):
    """Training stopped early; carries the report accumulated so far."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report
