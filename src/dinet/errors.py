"""Exception hierarchy shared across the package."""

from contextlib import contextmanager


class DinetError(Exception):
    """Base class for all package errors."""


class ValidationError(DinetError, ValueError):
    """A probability object, symbol vector or argument violates its contract."""


class ConfigError(DinetError, ValueError):
    """An experiment configuration or topology request is invalid."""


class SchemaMismatchError(DinetError, ValueError):
    """A dataset does not match the schema a model or operation expects."""


class DatasetFormatError(DinetError, ValueError):
    """A CSV/ARFF file could not be parsed; message carries line/column."""


class ModelFormatError(DinetError, ValueError):
    """A model file is corrupt or fails its integrity checksum."""


class ModelVersionError(ModelFormatError):
    """A model file was written by an unsupported format version."""


class ResourceError(DinetError):
    """A file or URL could not be read or written, or memory ran out; the message says which."""


@contextmanager
def naming_os_errors(action: str, target):
    """Re-raise an ``OSError`` of the block as a ``ResourceError`` naming ``target``."""
    try:
        yield
    except OSError as exc:
        # a URLError carries its cause in ``reason``, a plain OSError in ``strerror``
        reason = getattr(exc, "reason", None) or exc.strerror or exc
        raise ResourceError(f"cannot {action} {target}: {reason}") from None
