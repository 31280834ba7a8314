"""Error types raised by the embnum package.

Every domain failure maps to one named exception so callers (and the CLI,
which turns them into exit code 1) can tell failure modes apart without
string matching.
"""


class EmbnumError(Exception):
    """Base class for all package errors."""


# dataset
class MissingDirectory(EmbnumError):
    pass


class EmptyAttribute(EmbnumError):
    pass


class MalformedValue(EmbnumError):
    pass


class InvalidSpec(EmbnumError):
    pass


# sampling
class EmptyInput(EmbnumError):
    pass


class InvalidWidth(EmbnumError):
    pass


# nn
class ShapeMismatch(EmbnumError):
    pass


class NonScalarLoss(EmbnumError):
    pass


# embnet
class InvalidArch(EmbnumError):
    pass


class WidthMismatch(EmbnumError):
    pass


class FormatVersionMismatch(EmbnumError):
    pass


class ChecksumMismatch(EmbnumError):
    pass


class MalformedCheckpoint(EmbnumError):
    pass


# metric learning
class DegenerateBatch(EmbnumError):
    pass


class InsufficientSamples(EmbnumError):
    pass


class NonFiniteLoss(EmbnumError):
    pass


# baselines
class SingleClassTraining(EmbnumError):
    pass


class MalformedDslModel(EmbnumError):
    pass


# labeling
class EmptyLabeledData(EmbnumError):
    pass


class MissingModel(EmbnumError):
    pass


class EmptyStore(EmbnumError):
    pass


class EmptyRanking(EmbnumError):
    pass


class NoQueries(EmbnumError):
    pass


class TooFewSources(EmbnumError):
    pass


class MalformedStore(EmbnumError):
    pass
