"""The central REPRO_* registry and its typed accessors."""

import pytest

from repro.analysis import envvars
from repro.analysis.envvars import (
    ENV_DEADLINE,
    ENV_ENGINE,
    ENV_WORKERS,
    EnvVar,
    REGISTRY,
    read_float,
    read_int,
    read_str,
)
from repro.errors import ConfigurationError


def test_registry_covers_every_exported_declaration():
    declared = [getattr(envvars, name) for name in envvars.__all__
                if name.startswith("ENV_")]
    assert {v.name for v in declared} == set(REGISTRY)
    for var in declared:
        assert REGISTRY[var.name] is var


def test_declarations_are_validated():
    with pytest.raises(ConfigurationError):
        EnvVar(name="NOT_NAMESPACED", kind="str", description="x",
               consumer="y")
    with pytest.raises(ConfigurationError):
        EnvVar(name="REPRO_X", kind="bool", description="x", consumer="y")


def test_unset_reads_as_none(monkeypatch):
    monkeypatch.delenv(ENV_ENGINE.name, raising=False)
    assert read_str(ENV_ENGINE) is None


@pytest.mark.parametrize("raw", ["", "   ", "\t"])
def test_empty_and_whitespace_read_as_unset(monkeypatch, raw):
    monkeypatch.setenv(ENV_ENGINE.name, raw)
    assert read_str(ENV_ENGINE) is None
    monkeypatch.setenv(ENV_WORKERS.name, raw)
    assert read_int(ENV_WORKERS) is None
    monkeypatch.setenv(ENV_DEADLINE.name, raw)
    assert read_float(ENV_DEADLINE) is None


def test_values_are_stripped(monkeypatch):
    monkeypatch.setenv(ENV_ENGINE.name, "  thread  ")
    assert read_str(ENV_ENGINE) == "thread"


def test_typed_reads_parse(monkeypatch):
    monkeypatch.setenv(ENV_WORKERS.name, " 4 ")
    assert read_int(ENV_WORKERS) == 4
    monkeypatch.setenv(ENV_DEADLINE.name, "2.5")
    assert read_float(ENV_DEADLINE) == 2.5


def test_junk_values_raise_configuration_error(monkeypatch):
    monkeypatch.setenv(ENV_WORKERS.name, "four")
    with pytest.raises(ConfigurationError, match="REPRO_WORKERS"):
        read_int(ENV_WORKERS)
    monkeypatch.setenv(ENV_DEADLINE.name, "soon")
    with pytest.raises(ConfigurationError, match="REPRO_DEADLINE"):
        read_float(ENV_DEADLINE)


def test_unregistered_variable_is_rejected():
    rogue = EnvVar(name="REPRO_ROGUE", kind="str", description="x",
                   consumer="y")
    with pytest.raises(ConfigurationError, match="REPRO_ROGUE"):
        read_str(rogue)


def test_registry_rows_are_sorted_and_complete():
    rows = envvars.registry_rows()
    names = [row[0] for row in rows]
    assert names == sorted(REGISTRY)
    assert all(len(row) == 4 for row in rows)
