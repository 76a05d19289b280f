"""Exception hierarchy for the toolkit, and its helpers at boundaries."""

from contextlib import contextmanager
from dataclasses import fields
from numbers import Real
from typing import Iterator


class VoxidError(Exception):
    """Base class for all errors raised by this package."""


class EmptyInput(VoxidError):
    """An operation received an empty signal or feature set."""


class AllSilence(VoxidError):
    """No block of the utterance carries usable energy."""


class TooShort(VoxidError):
    """Signal shorter than a single analysis frame."""


class LagTooLarge(VoxidError):
    """Requested autocorrelation lag is not covered by the signal."""


class DegenerateFrame(VoxidError):
    """Frame energy is zero or not finite: nothing for linear prediction to model."""


class NumericalFailure(VoxidError):
    """A recursion or iteration produced non-finite or unstable values."""


class UnstableFilter(VoxidError):
    """Predictor polynomial is not minimum phase."""


class DegenerateResidual(VoxidError):
    """Residual is constant after mean removal; it cannot be peak-normalized."""


class NoFeatures(VoxidError):
    """No frame survived feature extraction."""


class InsufficientData(VoxidError):
    """Fewer training vectors than mixture components."""


class DimError(VoxidError):
    """Vector dimension does not match the model or matrix."""


class FeatureKindMismatch(VoxidError):
    """Operands carry different feature kinds."""


class BadFileFormat(VoxidError):
    """A serialized artifact has a corrupt or unknown layout."""


class AudioFormatError(VoxidError):
    """Unsupported or malformed WAV input."""


@contextmanager
def named(prefix: str | None, catch=VoxidError, raise_as: type | None = None) -> Iterator[None]:
    """Re-raise a ``catch`` error from the block as ``raise_as`` (by default
    its own type), with ``prefix: `` before its message when ``prefix`` is
    given, and without its chain; any other error passes as it is."""
    try:
        yield
    except catch as exc:
        message = str(exc) if prefix is None else f"{prefix}: {exc}"
        raise (raise_as or type(exc))(message) from None


def check_types(settings, section: str | None = None) -> None:
    """Refuse a setting its declared type does not admit: an int setting an
    int alone (not True, 80.0 or np.int64), a float one a real number (kept
    as a float: equal settings write one header) or None if `float | None`,
    and none a boolean. Errors name the key `section.name`, else the field."""
    for setting in fields(settings):
        name, kind, value = setting.name, setting.type, getattr(settings, setting.name)
        key = f"config key '{section}.{name}'" if section else name
        if kind == "int" and type(value) is not int:
            raise TypeError(f"{key} must be an integer, got {value!r}")
        if isinstance(value, bool):
            raise TypeError(f"{key} must not be a boolean, got {value!r}")
        if kind == "float" or (kind == "float | None" and value is not None):
            if not isinstance(value, Real):
                raise TypeError(f"{key} must be a number, got {value!r}")
            object.__setattr__(settings, name, float(value))
