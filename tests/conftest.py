"""Shared pytest configuration.

``pyproject.toml`` puts this repository's ``src`` on ``sys.path`` ahead of
``PYTHONPATH``, so the tests import this tree's ``qgeo`` whatever
``PYTHONPATH`` says.  The report header names the imported package's
directory, so a run that meant to test another tree shows which one it
tested.
"""

from pathlib import Path


def pytest_report_header(config):
    import qgeo

    return f"qgeo: {Path(qgeo.__file__).resolve().parent}"
