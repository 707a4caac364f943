"""Test-suite settings: property tests draw the same examples on every run,
and hypothesis writes nothing into the checkout."""

import shutil
import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("ddlab", derandomize=True, database=None)
settings.load_profile("ddlab")

# with no example database, what hypothesis still stores is its cache of the
# constants it reads from the source files; it lives for one session only
_HOME = tempfile.mkdtemp(prefix="ddlab-hypothesis-")
set_hypothesis_home_dir(_HOME)


def pytest_sessionfinish(session, exitstatus):
    shutil.rmtree(_HOME, ignore_errors=True)
