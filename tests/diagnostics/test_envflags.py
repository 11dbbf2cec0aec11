"""Environment knobs: one boolean parser, and a census of the knob set."""

import re
from pathlib import Path

import pytest

from repro import autotune, diskcache
from repro.backend.batch import batching_request
from repro.diagnostics import ReproWarning
from repro.passes import pass_manager

ROOT = Path(__file__).resolve().parents[2]

#: Boolean knob -> reader of its effective value (all default to off).
BOOLEAN_KNOBS = {
    "REPRO_AUTOTUNE": autotune.enabled,
    "REPRO_DISK_CACHE": diskcache.enabled,
    "REPRO_NO_BATCH": lambda: batching_request() == 0,
    "REPRO_PARANOID": pass_manager.paranoid_enabled,
}


@pytest.fixture
def no_overrides(monkeypatch):
    """Programmatic overrides beat the environment; park them."""
    monkeypatch.setattr(autotune, "_ENABLED", None)
    monkeypatch.setattr(diskcache, "_ENABLED", None)
    monkeypatch.setattr(pass_manager, "_paranoid_override", None)
    monkeypatch.delenv("REPRO_BATCH", raising=False)


@pytest.mark.parametrize("value,expected", [
    ("1", True), ("true", True), ("yes", True), ("TRUE", True),
    ("0", False), ("false", False), ("garbage", None),
])
@pytest.mark.parametrize("name", sorted(BOOLEAN_KNOBS))
def test_boolean_knob_spellings(name, value, expected, monkeypatch,
                                no_overrides):
    """``expected is None``: unparsable, so a warning plus the default."""
    monkeypatch.setenv(name, value)
    if expected is None:
        with pytest.warns(ReproWarning, match=name):
            assert BOOLEAN_KNOBS[name]() is False
    else:
        assert BOOLEAN_KNOBS[name]() is expected


def _knobs_read_under(directory: Path) -> set:
    names = set()
    for path in directory.rglob("*.py"):
        names.update(re.findall(r"\bREPRO_[A-Z_]+\b", path.read_text()))
    return names


def test_knob_census_matches_readme():
    """Every ``REPRO_*`` name the code reads is a row of the README knob
    table and vice versa, so a knob cannot appear (or linger) unnoticed."""
    readme = (ROOT / "README.md").read_text()
    table = readme[readme.index("### Environment knobs"):]
    table = table[:table.index("\n## ")]
    documented = set(re.findall(r"^\| `(REPRO_[A-Z_]+)`", table, re.M))
    in_src = _knobs_read_under(ROOT / "src")
    assert len(in_src) == 10, sorted(in_src)
    assert in_src | {"REPRO_FUZZ_N"} == documented
    assert "REPRO_FUZZ_N" in _knobs_read_under(ROOT / "tests")
