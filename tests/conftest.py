"""Shared test configuration.

Hypothesis profiles: "ci" (default) runs enough examples to be useful,
"fast" trims the example count for quick local iteration.  Select with
HYPOTHESIS_PROFILE=fast pytest.

pytest imports flatcert from src/ (pythonpath in pyproject.toml); the
PYTHONPATH set here makes the `python -m flatcert` subprocesses of the
tests do the same.
"""

import os
from pathlib import Path

from hypothesis import HealthCheck, settings

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))

settings.register_profile(
    "ci",
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile(
    "fast",
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))
