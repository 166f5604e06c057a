import os
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# the checkout under test and its tools/ (check_oracles' comparator)
sys.path[:0] = [REPO, os.path.join(REPO, "tools")]


@pytest.fixture(scope="session")
def ray_session():
    """One Ray session for the whole pytest run (driver contract)."""
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    yield
    ray.shutdown()


@pytest.fixture(scope="session")
def sf_dir():
    return os.environ.get("GRAFT_SF_DIR_TEST", "/root/testdata/sf0.001")
