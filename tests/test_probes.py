"""The probes under ``tools/`` reject a run count below 1 before doing any work."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "probe, first_work",
    [("chain_probe", "build_standard"), ("check_probe", "build_standard"), ("confluence_probe", "perturb"),
     ("load_probe", "build_standard")],
)
@pytest.mark.parametrize("repeat", ["0", "-2"])
def test_probes_reject_a_repeat_below_one(probe, first_work, repeat, monkeypatch, capsys):
    """A best of no runs was ``inf`` ms, after every chain had run."""
    module = _load(probe)

    def no_work(*args):
        raise AssertionError("the probe started work")

    monkeypatch.setattr(module, first_work, no_work)
    with pytest.raises(SystemExit) as exit_info:
        module.main(["--repeat", repeat])
    assert exit_info.value.code == 2
    assert "--repeat: must be at least 1" in capsys.readouterr().err
