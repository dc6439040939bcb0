import pathlib

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "default", max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
# more examples for the bit-for-bit draw and forest properties in CI:
# pytest --hypothesis-profile=ci
settings.register_profile(
    "ci", max_examples=400, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("default")

ZOO = pathlib.Path(__file__).resolve().parent.parent / "zoo"


@pytest.fixture(scope="session")
def zoo() -> pathlib.Path:
    return ZOO
