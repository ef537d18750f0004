import os
import sys

import pytest

# Keep BLAS single-threaded during tests: determinism checks compare
# results across process boundaries and thread counts must match.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture(scope="session")
def musec_table():
    # the full 86x86 reassessment table of the default design, shared by
    # every module that replays trials in bulk
    from deeptest.ssr import DesignParams, n2_lookup_table

    return n2_lookup_table(DesignParams())
