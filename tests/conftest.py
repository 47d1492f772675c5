"""Session set-up shared by every test module."""

import contextlib
import warnings

# hypothesis imports its patch writer only after a property test fails, to
# print a patch for the failing example.  That import reaches libcst, whose
# use of mypy_extensions.TypedDict warns, and error::DeprecationWarning then
# ends the whole run with INTERNALERROR.  Importing it once here, with that
# warning ignored for this import only, lets the failure report like any
# other.  Like the plugin, go on without it when libcst is not installed.
with warnings.catch_warnings(), contextlib.suppress(ImportError):
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401
