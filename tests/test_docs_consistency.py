"""Documentation stays in sync with the code tree."""

from __future__ import annotations

import pathlib
import re

import pytest

REPO = pathlib.Path(__file__).resolve().parents[1]


def test_required_documents_exist():
    for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md",
                 "docs/architecture.md", "docs/protocol.md",
                 "docs/threat-model.md"):
        assert (REPO / name).exists(), f"missing {name}"


def test_readme_examples_table_matches_files():
    readme = (REPO / "README.md").read_text()
    for script in re.findall(r"`(\w+\.py)`", readme):
        if script in {"settings.py"}:
            continue
        candidates = [REPO / "examples" / script]
        assert any(c.exists() for c in candidates), f"README references missing {script}"


def test_design_module_map_matches_packages():
    design = (REPO / "DESIGN.md").read_text()
    source = REPO / "src" / "repro"
    packages = {
        p.name for p in source.iterdir()
        if p.is_dir() and (p / "__init__.py").exists()
    }
    for package in packages:
        assert f"{package}" in design, f"DESIGN.md does not mention repro.{package}"


def test_experiments_md_references_existing_benches():
    experiments = (REPO / "EXPERIMENTS.md").read_text()
    for bench in re.findall(r"`(?:benchmarks/)?(test_\w+\.py)", experiments):
        paths = [REPO / "benchmarks" / bench, REPO / "tests" / bench]
        assert any(p.exists() for p in paths), f"EXPERIMENTS.md references missing {bench}"


def test_every_package_module_has_a_docstring():
    missing = []
    for path in (REPO / "src" / "repro").rglob("*.py"):
        text = path.read_text()
        stripped = text.lstrip()
        if not (stripped.startswith('"""') or stripped.startswith("'''")):
            missing.append(str(path.relative_to(REPO)))
    assert missing == [], f"modules without docstrings: {missing}"


def test_every_test_file_has_a_docstring():
    missing = []
    for path in (REPO / "tests").glob("test_*.py"):
        stripped = path.read_text().lstrip()
        if not stripped.startswith('"""'):
            missing.append(path.name)
    assert missing == []


def test_paper_constants_consistent():
    """The headline constants appear consistently across docs."""
    readme = (REPO / "README.md").read_text()
    design = (REPO / "DESIGN.md").read_text()
    assert "27-node" in readme and "27-node" in design
    assert "250" in readme  # the per-pair capacity figure
    from repro.cluster.deployments import CLUSTER_NODE_BUDGET, MICRO_CONFIGS

    assert CLUSTER_NODE_BUDGET == 27
    assert MICRO_CONFIGS["m6"].max_rps == 250


def test_no_deprecation_shims_in_the_package():
    """The deprecated construction paths were deleted, not parked: a
    module that mentions DeprecationWarning is growing one back."""
    offenders = [
        str(path.relative_to(REPO))
        for path in (REPO / "src" / "repro").rglob("*.py")
        if "DeprecationWarning" in path.read_text()
    ]
    assert offenders == [], f"deprecation shims in: {offenders}"


def test_no_object_wire_fork_in_the_package():
    """The ``codec=None`` object wire was deleted, not parked: a codec
    is always a ``WireCodec``, so nothing under ``src/repro`` may test
    one for ``None`` or type it ``Optional``."""
    fork = re.compile(r"codec is (?:not )?None|Optional\[WireCodec\]")
    offenders = [
        f"{path.relative_to(REPO)}: {match.group(0)}"
        for path in sorted((REPO / "src" / "repro").rglob("*.py"))
        for match in fork.finditer(path.read_text())
    ]
    assert offenders == [], f"object-wire forks: {offenders}"


#: What one-of-each in ``src/`` rules out: an import of the test tree, a
#: ``Reference*`` / ``reference_*`` name (the oracles live in
#: ``tests/oracles/``), and the names of the deleted selectors,
#: duplicates and their flag.
SECOND_IMPLEMENTATIONS = re.compile(
    r"^\s*(?:from|import)\s+tests\b"
    r"|\bReference[A-Z]\w*|\breference_\w+"
    r"|\bmake_event_loop\b|\bENGINES\b|\bCalendarEventLoop\b"
    r"|\bBreakdownProbe\b|\bFastCryptoProvider\b|--engine\b",
    flags=re.M,
)
#: A module-level tuple of the five pipeline stage names.
STAGE_TUPLE = re.compile(r'^(\w*STAGES)\b[^=\n]*=\s*\(\s*"ua_inbound"', flags=re.M)
#: A second way to reach an SLO verdict: a replay entry point, a
#: registry field naming one, or a drill that takes its engine (or not)
#: from the caller instead of building it in ``DrillRig.watch``.
SECOND_VERDICT_PATH = re.compile(
    r"^def slo_verdict\b|^\s+slo: str\b"
    r"|^def (?:run_\w+|_run_point)\([^)]*\bslo\b|def watch\(\s*self,\s*slo\b",
    flags=re.M,
)


def test_one_implementation_per_mechanism_in_the_package():
    """One event loop, one AES, one stage tracer, the paper's one
    crypto construction: the cross-check implementations are test
    oracles and the knob that selected between them is gone."""
    sources = sorted((REPO / "src" / "repro").rglob("*.py"))
    offenders = [
        f"{path.relative_to(REPO)}: {match.group(0).strip()}"
        for path in sources
        for match in SECOND_IMPLEMENTATIONS.finditer(path.read_text())
    ]
    assert offenders == [], f"second implementations in src/: {offenders}"
    stage_tuples = [
        f"{path.relative_to(REPO)}: {match.group(1)}"
        for path in sources
        for match in STAGE_TUPLE.finditer(path.read_text())
    ]
    assert stage_tuples == ["src/repro/telemetry/spans.py: PIPELINE_STAGES"]
    verdict_paths = [
        f"{path.relative_to(REPO)}: {match.group(0).strip()}"
        for path in sources
        for match in SECOND_VERDICT_PATH.finditer(path.read_text())
    ]
    assert verdict_paths == [], f"second SLO verdict paths in src/: {verdict_paths}"
    # One control plane: an enclave is stood up and restarted in one
    # place, and one function holds the line on the flush floor.
    services = "".join(
        (REPO / "src" / "repro" / package / "service.py").read_text()
        for package in ("proxy", "fleet", "tenancy")
    )
    for once in (r"\bEnclave\(", r"\bProxyRuntime\(", r"\bKeyProvisioner\(",
                 r"def restart_instance\b"):
        assert len(re.findall(once, services)) == 1, once
    floor_readers = [
        str(path.relative_to(REPO))
        for path in sources
        if "last_flush_size" in path.read_text()
        and path.name not in ("shuffler.py", "instruments.py")
    ]
    assert floor_readers == ["src/repro/proxy/epochs.py"]
    assert not any("build_service" in path.read_text() for path in sources)
    # One wire surface: the header layout is repro.rest.header's table,
    # a hop is named by the role directory, and the wire is watched
    # through Network.add_wiretap by observers the rig stands up.
    second_surface = re.compile(
        r"record_flows|add_observer|clear_flows"
        r"|startswith\(\s*[\"'](?:client|pprox|harness|lrs)"
        r"|^_(?:DEADLINE|EPOCH|TRACE)_\w+ *=",
        flags=re.M,
    )
    offenders = [
        f"{path.relative_to(REPO)}: {match.group(0)}"
        for path in sources
        for match in second_surface.finditer(path.read_text())
    ]
    assert offenders == [], f"second statements of the wire surface in src/: {offenders}"
    drivers = "".join(
        path.read_text()
        for package in ("experiments", "obs")
        for path in sorted((REPO / "src" / "repro" / package).glob("*.py"))
    )
    for once in (r"\bAdversary\(", r"\bRejectAuditor\("):
        assert len(re.findall(once, drivers)) == 1, once


#: Subcommands `python -m repro run <scenario>` replaced; nothing a
#: reader or CI can copy-paste may still name them.
REMOVED_SUBCOMMANDS = re.compile(
    r"\b(?:telemetry|chaos|overload|rekey|obs|scale|wire|fleet)-smoke\b"
    r"|-m repro capacity\b"
)


def test_nothing_names_a_removed_subcommand():
    checked = [
        REPO / name for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md")
    ]
    checked += sorted((REPO / "docs").glob("*.md"))
    checked += sorted((REPO / ".github" / "workflows").glob("*.yml"))
    checked += sorted((REPO / ".claude" / "skills").rglob("*.md"))
    checked += sorted((REPO / "examples").glob("*.py"))
    checked += sorted((REPO / "src" / "repro").rglob("*.py"))
    offenders = [
        f"{path.relative_to(REPO)}: {match.group(0)}"
        for path in checked
        for match in REMOVED_SUBCOMMANDS.finditer(path.read_text())
    ]
    assert offenders == []


def test_ci_scenario_matrix_is_the_runnable_registry():
    from repro.experiments.registry import runnable

    workflow = (REPO / ".github" / "workflows" / "ci.yml").read_text()
    (matrix,) = re.findall(r"^\s+scenario: \[([^\]]+)\]$", workflow, flags=re.M)
    assert sorted(name.strip() for name in matrix.split(",")) == sorted(runnable())
