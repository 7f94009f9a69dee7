import functools
import os

import pytest

from hartorus import equilibrium, field


@pytest.fixture
def cpus(monkeypatch):
    """cpus(n) makes the package see n CPUs and start its worker pool afresh
    on first use; every pool started after a cpus call is shut down, and the
    pool from before the first one is back after the test."""
    patched = []

    def drop():
        if patched and field._POOL is not None:
            field._POOL.shutdown()

    def use(n):
        drop()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
        monkeypatch.setattr(field, "_POOL", None)
        patched.append(n)

    yield use
    drop()


@pytest.fixture
def table_builds(monkeypatch):
    """The list of profiles whose h table is built during the test, one entry
    per build."""
    builds = []
    build = equilibrium.CovarianceProfile.__dict__["_table"].func

    def counting(self):
        builds.append(self)
        return build(self)

    table = functools.cached_property(counting)
    table.__set_name__(equilibrium.CovarianceProfile, "_table")
    monkeypatch.setattr(equilibrium.CovarianceProfile, "_table", table)
    return builds
