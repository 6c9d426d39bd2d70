"""Exception types shared across the toolkit.

Every error raised by canids derives from CanidsError so callers can catch
the whole family at once; the CLI maps parse-side errors to exit code 2 and
model-side errors to exit code 3.
"""


class CanidsError(Exception):
    """Base class for all canids errors."""


# --- log parsing ---------------------------------------------------------

class ParseError(CanidsError):
    """A CAN log line could not be turned into a valid record."""


class MalformedLine(ParseError):
    """Wrong column count, out-of-range field, or unknown class label."""


class BadHex(ParseError):
    """A hex field contains a non-hex digit or a malformed byte token."""


class DlcMismatch(ParseError):
    """Payload byte count disagrees with the DLC field (or DLC out of [0,8])."""


class NonFiniteTimestamp(ParseError):
    """Timestamp is NaN, infinite, or negative."""


# --- synthetic traffic ---------------------------------------------------

class EmptyProfile(CanidsError):
    """A traffic profile with no message IDs."""


class WindowOutOfRange(CanidsError):
    """An attack window lies outside the generated traffic horizon."""


# --- features ------------------------------------------------------------

class NegativeInterval(CanidsError):
    """Timestamps regress within one arbitration ID — corrupt input."""


class WrongWidth(CanidsError):
    """A matrix, query or array does not have the width the model, net or
    file expects."""


# --- metrics -------------------------------------------------------------

class LengthMismatch(CanidsError):
    """Parallel sequences differ in length."""


class DegenerateLabels(CanidsError):
    """ROC AUC requested with only one class present."""


# --- models --------------------------------------------------------------

class EmptyData(CanidsError):
    """A model was asked to fit on zero rows."""


class NonBinaryLabels(CanidsError):
    """Labels outside {0, 1} passed to a binary classifier."""


class UnfitModel(CanidsError):
    """score/predict called before fit."""


class KTooLarge(CanidsError):
    """k exceeds the number of reference points."""


class TooFewSamples(CanidsError):
    """Fewer rows than the estimator's minimum (e.g. rows <= dimensions)."""


class SingularCovariance(CanidsError):
    """Covariance not invertible even after ridge regularization."""


class BadSubsample(CanidsError):
    """Isolation-forest subsample size invalid for the data."""


class NonFiniteActivation(CanidsError):
    """A network forward pass produced NaN or infinity."""


class DivergedTraining(CanidsError):
    """Training loss became non-finite."""


class EmptyLosses(CanidsError):
    """A cut-off requested over no normal scores."""


class DegenerateValidation(CanidsError):
    """Cut-off tuning needs both classes in the validation set and a
    non-empty grid."""


class MissingLabels(CanidsError):
    """A supervised model was fitted without labels."""


# --- harness -------------------------------------------------------------

class EmptySplit(CanidsError):
    """A requested split would leave a partition empty."""


class EmptyGrid(CanidsError):
    """Grid search over zero parameter combinations."""


class ReportInconsistent(CanidsError):
    """A report row's metrics do not recompute from its stored counts."""


class IoError(CanidsError):
    """Report or model file could not be read or written."""


class ConfigError(CanidsError, ValueError):
    """A config value is invalid: an experiment config file, a model's
    params, or a traffic profile or attack setting. Also a ValueError, so
    callers that catch ValueError keep working."""
