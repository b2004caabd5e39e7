"""Test-session set-up shared by every test module.

When a Hypothesis test fails, Hypothesis imports its patch writer,
``hypothesis.extra._patching``, which imports ``libcst`` where that is
installed, and ``libcst`` imports ``mypy_extensions``, which warns with a
DeprecationWarning.  Under ``-W error::DeprecationWarning`` that warning is
raised inside pytest's failure report and ends the session with
INTERNALERROR, so one failing test hides the rest of the run.  Importing the
patch writer once here, with that one warning category ignored for this one
import only, leaves every other DeprecationWarning an error.
"""

import warnings

try:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        import hypothesis.extra._patching  # noqa: F401
except ImportError:
    pass
