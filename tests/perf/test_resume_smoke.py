"""Resilience gate: kill a live campaign, resume it, compare bytes.

Runs the same end-to-end smoke as ``make resume-smoke``: a reference
``repro chaos`` campaign, a second campaign SIGKILLed mid-flight, and a
``--resume`` continuation that must load completed runs from the
journal and reproduce the reference JSON byte-identically.  It spawns
real CLI subprocesses and kills one for real, but asserts on bytes and
journal counts only, never on wall clock.
"""

from benchmarks.resume_smoke import resilience_failures, run_resume_smoke


def test_killed_campaign_resumes_byte_identical():
    record = run_resume_smoke(verbose=False)
    failures = resilience_failures(record)
    assert not failures, f"{failures}\ncounters: {record}"
    assert record["killed_midway"]
    assert record["loaded"] > 0
    assert record["byte_identical"]
