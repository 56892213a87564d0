"""The telemetry artifact pinned to a checked-in golden file.

Same-seed runs being identical to *each other* is checked all over the
suite; this is the one place that checks identity with what the
previous commit wrote — every event's schema, order, ``seq`` and bytes
— so the tracers and the log can be refactored against it.  After an
intended schema change, list the changed fields in CHANGES.md and
regenerate from the repository root::

    PYTHONPATH=src python -c "from tests.test_telemetry_golden import \
golden_run; print(golden_run(), end='')" > tests/golden/telemetry_m6_seed7.jsonl
"""

from pathlib import Path

from repro.cluster.deployments import MICRO_CONFIGS
from repro.experiments.runner import run_micro
from repro.telemetry import Telemetry

GOLDEN = Path(__file__).parent / "golden" / "telemetry_m6_seed7.jsonl"


def golden_run() -> str:
    """Twelve gets through the full m6 pipeline (crypto, SGX, shuffle)
    with the standard instruments armed, as ``repro run telemetry``
    runs it, seed 7: 74 events, the last the run's metric snapshot."""
    telemetry = Telemetry(scrape_interval=1.0)
    result = run_micro(
        MICRO_CONFIGS["m6"], 6.0, seed=7, runs=1, duration=2.0, trim=0.0,
        telemetry=telemetry,
    )
    assert [(report.issued, report.completed) for report in result.reports] == [(12, 12)]
    return telemetry.event_log.to_jsonl()


def test_telemetry_artifact_matches_the_golden_file_line_by_line():
    written = golden_run().splitlines()
    golden = GOLDEN.read_text(encoding="utf-8").splitlines()
    for number, (ours, theirs) in enumerate(zip(written, golden), start=1):
        assert ours == theirs, f"telemetry.jsonl line {number} differs from {GOLDEN.name}"
    assert len(written) == len(golden) == 74
