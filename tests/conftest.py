import pytest

from nonclass import verify


@pytest.fixture(scope="session", autouse=True)
def _warm_kernels():
    # make the first kernel calls here, so timed tests do not pay first-call costs
    verify.warm_up()
