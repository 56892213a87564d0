"""Documentation stays in sync with the code tree."""

from __future__ import annotations

import ast
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
#: ``tests/oracles/``), AES round code beside OpenSSL's, the names of
#: the deleted selectors, duplicates and their flag, the Hensel lift
#: of the multi-power RSA key the two-prime key replaced, and the two
#: pseudonym constructions the Feistel permutation replaced.
SECOND_IMPLEMENTATIONS = re.compile(
    r"^\s*(?:from|import)\s+tests\b"
    r"|\bReference[A-Z]\w*|\breference_\w+"
    r"|\bencrypt_ctr_blocks\b|\b_SBOX\b|\b_CIPHER_CACHE\b"
    r"|\bmake_event_loop\b|\bENGINES\b|\bCalendarEventLoop\b"
    r"|\bBreakdownProbe\b|\bFastCryptoProvider\b|--engine\b"
    r"|\bkeyed_pseudonym\b|\bHensel\b|\b_crt_power\b|\bSlottedLatencyRecorder\b"
    r"|\bdet_(?:en|de)crypt\b|\bDETERMINISTIC_IV\b|\b_reverse_pseudonyms\b|\b_blake_keystream\b",
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
    """One event loop, one AES, one stage tracer, one pseudonym
    construction: the cross-check implementations (the paper's
    constant-IV pseudonym among them) are test oracles and the knob
    that selected between them is gone."""
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
    assert stage_tuples == ["src/repro/obs/causal.py: PIPELINE_STAGES"]
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
    # One call, one failure rule: a client call is one object, the
    # retryable status is written once, and the ingress queue has the
    # one mode the pump drains.
    package = "".join(path.read_text() for path in sources)
    for gone in (r"\bcall_state\b", r"dataclass\(init=False\)", r"\brequest_item\b",
                 r"\bFrontDropPolicy\b", r"\bmake_shed_policy\b"):
        assert re.search(gone, package) is None, gone
    assert len(re.findall(r"\b503\b", package)) == 1
    drivers = "".join(
        path.read_text()
        for package in ("experiments", "obs")
        for path in sorted((REPO / "src" / "repro" / package).glob("*.py"))
    )
    for once in (r"\bAdversary\(", r"\bRejectAuditor\("):
        assert len(re.findall(once, drivers)) == 1, once


#: An import of either base64 module, plain, in a list, or from-style.
BASE64_IMPORT = re.compile(
    r"^\s*(?:import\s+(?:[\w.]+\s*,\s*)*(?:base64|binascii)\b|from\s+(?:base64|binascii)\s+import)",
    flags=re.M,
)


def test_one_base64_implementation():
    """Base64 lives in ``crypto/envelope.py``; the codecs, the layers and
    the audits call its helpers, so no other module imports ``base64``
    or ``binascii``."""
    importers = [
        str(path.relative_to(REPO))
        for path in sorted((REPO / "src" / "repro").rglob("*.py"))
        if BASE64_IMPORT.search(path.read_text())
    ]
    assert importers == ["src/repro/crypto/envelope.py"]


#: Subcommands `python -m repro run <scenario>` replaced, and the
#: forwarding verbs whose scripts run on their own; nothing a reader or
#: CI can copy-paste may still name them.
REMOVED_SUBCOMMANDS = re.compile(
    r"\b(?:telemetry|chaos|overload|rekey|obs|scale|wire|fleet)-smoke\b"
    r"|-m repro (?:capacity|profile|demo|reproduce|simnet-bench)\b"
    r"|-m repro \{[^}]*\b(?:demo|reproduce)\b"
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


def test_ci_scenario_job_diffs_four_hash_seeds_against_the_first():
    workflow = (REPO / ".github" / "workflows" / "ci.yml").read_text()
    job = workflow[workflow.index("\n  scenario:\n"):workflow.index("\n  examples:\n")]
    assert re.findall(r"for seed in ([\d ]+); do", job) == ["1 2 3 4", "2 3 4"]
    assert "PYTHONHASHSEED=$seed" in job
    assert "-1 results/${{ matrix.scenario }}-$seed" in job


def test_one_operator_timeline():
    """A drill is a plan the rig arms, starts and stops: no driver starts
    a controller, schedules a verb or lists what to stop, and the
    surfaces the plan replaced are gone from the package."""
    drivers = {
        name: (REPO / "src" / "repro" / "experiments" / f"{name}.py").read_text()
        for name in ("chaos", "rotation", "fleet", "capacity")
    }
    for name, text in drivers.items():
        for wired in (r"\.start\(", r"loop\.schedule", r"\bstop=", r"(?<!\brig)\.arm\("):
            assert re.search(wired, text) is None, f"{name}.py: {wired}"
    package = "".join(path.read_text() for path in (REPO / "src" / "repro").rglob("*.py"))
    for gone in (r"\badd_fault_rig\b", r"\bShardAutoscaler\b", r"\.shifted\(",
                 r"\bdef shifted\b", r"def start\(self, announce_at", r"\barmed_events\b"):
        assert re.search(gone, package) is None, gone


def test_a_run_owns_its_telemetry_hub():
    """A drill's hub is the one its rig builds, streaming to the out-dir
    a gate hands it; ``run_micro`` is the one runner a caller hands a
    hub, and the two-phase scenario records into none."""
    experiments = REPO / "src" / "repro" / "experiments"
    building = sorted(
        path.name for path in experiments.glob("*.py") if "Telemetry(" in path.read_text()
    )
    assert building == ["rig.py", "telemetry_gate.py"]
    taking = sorted(
        f"{path.name}:{node.name}"
        for path in experiments.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and "telemetry" in [
            arg.arg for arg in node.args.posonlyargs + node.args.args + node.args.kwonlyargs
        ]
    )
    assert taking == ["runner.py:run_micro"]
    scenario = (REPO / "src" / "repro" / "workload" / "scenario.py").read_text()
    assert re.search(r"^\s*(?:from|import) repro\.telemetry\b", scenario, flags=re.M) is None


def test_ci_examples_job_runs_the_examples_scenario_diff_compares():
    workflow = (REPO / ".github" / "workflows" / "ci.yml").read_text()
    job = workflow[workflow.index("\n  examples:\n"):workflow.index("\n  e2e-bench-selftest:\n")]
    assert re.findall(r"for seed in ([\d ]+); do", job) == ["1 2 3 4", "2 3 4"]
    assert "PYTHONHASHSEED=$seed" in job
    assert "diff $example-1.txt $example-$seed.txt" in job
    (loop,) = re.findall(r"for example in ([\w ]+); do", workflow)
    tool = (REPO / "tools" / "scenario_diff.py").read_text()
    (listed,) = re.findall(r"^EXAMPLES = \(([^)]*)\)", tool, flags=re.M)
    assert loop.split() == re.findall(r'"(\w+)"', listed)
    assert all((REPO / "examples" / f"{name}.py").exists() for name in loop.split())


def test_ci_macro_job_runs_the_macro_leg_under_four_hash_seeds():
    """The macro leg of ``experiments/runner.py`` is the one path no
    scenario or example runs: its own job runs it under the four hash
    seeds and diffs 2-4 against 1."""
    workflow = (REPO / ".github" / "workflows" / "ci.yml").read_text()
    job = workflow[workflow.index("\n  macro:\n"):workflow.index("\n  perf-floor:\n")]
    assert re.findall(r"for seed in ([\d ]+); do", job) == ["1 2 3 4", "2 3 4"]
    assert 'PYTHONHASHSEED=$seed PYTHONPATH=src python -c "$MACRO"' in job
    assert "diff macro-1.txt macro-$seed.txt" in job
    assert 'run_full(MACRO_FULL["f1"], 100, seed=3, runs=1' in job
    assert "result.window_latencies" in job


def test_ci_crypto_kat_job_names_its_libcrypto_then_runs_the_crypto_tests():
    """The first job shows which OpenSSL ``repro.crypto.libcrypto``
    bound, so a runner it cannot bind fails with the reason, and then
    runs the binding's tests ahead of the known-answer suites."""
    workflow = (REPO / ".github" / "workflows" / "ci.yml").read_text()
    job = workflow[workflow.index("\n  crypto-kat:\n"):workflow.index("\n  tier1:\n")]
    shown = job.index("print(ssl.OPENSSL_VERSION); from repro.crypto import libcrypto; "
                      "print(libcrypto.LIBRARY)")
    (tests,) = re.findall(r"python -m pytest -x -q ((?:tests/\S+\.py ?)+)$", job, flags=re.M)
    assert shown < job.index("python -m pytest")
    assert tests.split() == [
        "tests/test_crypto_libcrypto.py", "tests/test_crypto_aes.py", "tests/test_crypto_ctr.py",
        "tests/test_crypto_prp.py", "tests/test_crypto_provider_cache.py",
        "tests/test_crypto_rsa.py", "tests/test_crypto_rsa_handles.py",
    ]


def test_ci_ablations_job_runs_the_ablation_file():
    """The ablations run in CI, so one failing cannot go unseen."""
    workflow = (REPO / ".github" / "workflows" / "ci.yml").read_text()
    job = workflow[workflow.index("\n  ablations:\n"):]
    assert ("PYTHONPATH=src python -m pytest -q benchmarks/test_ablations.py"
            " --benchmark-disable") in job


#: A second verdict beside ``slo.json``: a problems list of a driver's
#: own, a result type or the helper that summarised one, a counter read
#: that introspects a type, or a gate concatenating problems with the
#: verdict's.  (``RunResult`` is the figure runner's latency record,
#: not a verdict.)
SECOND_VERDICT = re.compile(
    r"def problems\b|^class (?!RunResult\b)\w*Result\b|^class LoadPoint\b|def summarize\b"
    r"|counters_for\(\s*[A-Z]|def write_verdict\([^)]*problems"
    r"|\+\s*[\w.]*problems\(\)|problems\(\)\s*\+",
    flags=re.M,
)


def test_one_verdict():
    """One verdict per run: every acceptance check of a judged gate is
    an objective of its ``slo.json``, and each gate returns that
    verdict's problems and nothing else."""
    modules = sorted((REPO / "src" / "repro" / "experiments").glob("*.py"))
    modules.append(REPO / "src" / "repro" / "obs" / "smoke.py")
    offenders = [
        f"{path.relative_to(REPO)}: {match.group(0).strip()}"
        for path in modules
        for match in SECOND_VERDICT.finditer(path.read_text())
    ]
    assert offenders == [], f"second verdicts beside slo.json: {offenders}"
    # Each gate's last statement returns the written verdict's problems.
    gate_returns = {
        "experiments/chaos.py": "return write_verdict(rig.verdict, out_dir)",
        "experiments/rotation.py": "return write_verdict(rig.verdict, out_dir)",
        "experiments/fleet.py": "return write_verdict(rig.verdict, out_dir)",
        "experiments/overload.py": "return write_verdict(rig.verdict, out_dir)",
        "experiments/scale.py": "return write_verdict(scale_slo_verdict(artifact), out_dir)",
        "experiments/capacity.py":
            "return [problem for rig in rigs for problem in rig.verdict.problems()]",
        "obs/smoke.py": "return rig.verdict.problems()",
    }
    for module, statement in gate_returns.items():
        text = (REPO / "src" / "repro" / module).read_text()
        assert "\ndef gate(" in text, module
        assert text.rstrip().splitlines()[-1].strip() == statement, module
