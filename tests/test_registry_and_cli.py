"""Experiment index integrity and the command-line interface."""

from __future__ import annotations

import pytest

from repro.__main__ import main
from repro.experiments.registry import EXPERIMENT_INDEX, runnable, validate_index

#: The per-scenario subcommands `run <scenario>` replaced, and the
#: verbs that only forwarded to a script that runs on its own.
REMOVED_SUBCOMMANDS = (
    "telemetry-smoke", "chaos-smoke", "overload-smoke", "rekey-smoke", "obs-smoke",
    "scale-smoke", "wire-smoke", "fleet-smoke", "capacity", "profile",
    "demo", "reproduce", "simnet-bench",
)


def test_index_is_sound():
    assert validate_index() == []


def test_index_covers_every_paper_artefact():
    """All tables, figures and analyses of the paper are indexed."""
    expected = {"table2", "table3", "fig6", "fig7", "fig8", "fig9", "fig10",
                "sec61", "sec62", "sec63", "sec9", "ablations",
                "breakdown",  # stage breakdown, footnote 9, LRS quality
                "chaos",      # availability/recovery drill, not a figure
                "overload",   # graceful-degradation sweep, not a figure
                "rotation",   # live re-key drill, not a figure
                "scale",      # million-user engine sweep, not a figure
                "fleet",      # sharded-fleet self-healing drill
                "capacity",   # solve-then-prove capacity planning
                "telemetry",  # telemetry pipeline self-check
                "obs",        # observability gate
                "wire"}       # codec parity gate
    assert set(EXPERIMENT_INDEX) == expected


def test_runnable_scenarios_declare_what_ci_diffs():
    scenarios = runnable()
    assert set(scenarios) == {"telemetry", "chaos", "overload", "rotation", "obs",
                              "scale", "wire", "fleet", "capacity"}
    for experiment in scenarios.values():
        assert experiment.help and experiment.artifacts
        assert not any(name.endswith("_meta.json") for name in experiment.artifacts)
    # Every judged scenario writes its verdict into its own directory;
    # the obs gate publishes nobody else's.
    for name in ("chaos", "overload", "rotation", "scale", "fleet", "obs"):
        assert "slo.json" in scenarios[name].artifacts, name
    assert not any(name.endswith("/slo.json") for name in scenarios["obs"].artifacts)


def test_every_experiment_has_claims_and_modules():
    for experiment in EXPERIMENT_INDEX.values():
        assert experiment.claims
        assert experiment.modules
        assert experiment.bench.endswith(".py")


def test_cli_info(capsys):
    assert main(["info"]) == 0
    out = capsys.readouterr().out
    assert "PProx reproduction" in out
    assert "fig10" in out


def test_cli_validate(capsys):
    assert main(["validate"]) == 0
    assert "OK" in capsys.readouterr().out


def test_cli_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])


def _written(root):
    return {str(path.relative_to(root)) for path in root.rglob("*") if path.is_file()}


@pytest.mark.parametrize("scenario", ["chaos", "wire"])
def test_cli_run_writes_exactly_the_declared_artifacts(scenario, tmp_path, capsys):
    assert main(["run", scenario, "--out-dir", str(tmp_path)]) == 0
    assert _written(tmp_path) == set(EXPERIMENT_INDEX[scenario].artifacts)
    assert f"{scenario} OK" in capsys.readouterr().out


def test_cli_run_unknown_scenario_lists_the_registered_ones(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["run", "no-such-scenario"])
    assert exit_info.value.code != 0
    message = capsys.readouterr().err
    for name in runnable():
        assert name in message


@pytest.mark.parametrize("name", REMOVED_SUBCOMMANDS)
def test_cli_rejects_removed_subcommands(name):
    with pytest.raises(SystemExit) as exit_info:
        main([name])
    assert exit_info.value.code != 0


def test_cli_help_is_generated_from_the_registry(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    out = capsys.readouterr().out
    for name, experiment in runnable().items():
        assert experiment.help in out, name
