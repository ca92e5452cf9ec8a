"""``tools/probe.py`` rejects a bad run count, an option its probe lacks and a checkout with no package, before doing any work."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

PROBE = Path(__file__).resolve().parent.parent / "tools" / "probe.py"
# each timed probe and the call that starts its work
TIMED = [("chain", "graphs", "build_standard"), ("check", "graphs", "build_standard"),
         ("code", "graphs", "build_standard"), ("confluence", "oracle", "perturb"), ("load", "graphs", "build_standard")]


def _load(monkeypatch, part="graphs", first_work="build_standard"):
    """The probe script as a module, with the call that starts a probe's work failing the test."""
    spec = importlib.util.spec_from_file_location("probe", PROBE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)

    def no_work(*args):
        raise AssertionError("the probe started work")

    monkeypatch.setattr(getattr(module.THIS, part), first_work, no_work)
    return module


@pytest.mark.parametrize(
    "probe, part, first_work",
    [pytest.param(probe, part, first_work, id=f"{probe}_probe-{first_work}") for probe, part, first_work in TIMED],
)
@pytest.mark.parametrize("repeat", ["0", "-2"])
def test_probes_reject_a_repeat_below_one(probe, part, first_work, repeat, monkeypatch, capsys):
    """A best of no runs was ``inf`` ms, after every chain had run."""
    module = _load(monkeypatch, part, first_work)
    with pytest.raises(SystemExit) as exit_info:
        module.main([probe, "--repeat", repeat])
    assert exit_info.value.code == 2
    assert "--repeat: must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("option", [["--repeat", "1"], ["--against", "."]], ids=["--repeat", "--against"])
def test_the_bug_probe_has_no_timed_cells_to_repeat_or_compare(option, monkeypatch, capsys):
    module = _load(monkeypatch)
    with pytest.raises(SystemExit) as exit_info:
        module.main(["bugs", *option])
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {' '.join(option)}" in capsys.readouterr().err


@pytest.mark.parametrize("option", [["--repeat", "1"], ["--against", "."]], ids=["--repeat", "--against"])
def test_the_embed_probe_has_no_timed_cells_to_repeat_or_compare(option, monkeypatch, capsys):
    module = _load(monkeypatch)
    with pytest.raises(SystemExit) as exit_info:
        module.main(["embed", *option])
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {' '.join(option)}" in capsys.readouterr().err


@pytest.mark.parametrize("probe", [probe for probe, _, _ in TIMED])
def test_against_needs_a_checkout_with_the_package(probe, tmp_path, monkeypatch, capsys):
    module = _load(monkeypatch)
    with pytest.raises(SystemExit) as exit_info:
        module.main([probe, "--against", str(tmp_path)])
    assert exit_info.value.code == 2
    assert f"--against: no package at {tmp_path.resolve() / 'src' / 'normaltori'}" in capsys.readouterr().err
