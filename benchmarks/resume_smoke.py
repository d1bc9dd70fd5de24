"""Resilience smoke: kill a journaled campaign partway, resume, compare.

The checkpoint/resume contract is end-to-end: a ``repro chaos``
campaign killed at an arbitrary point (SIGKILL — no cleanup handler
runs) and resumed from its journal must produce a final JSON report
byte-identical to the uninterrupted campaign, re-executing only the
runs the journal is missing.  Unit tests exercise the pieces
(engine, journal, ``run_campaign``); this smoke exercises the whole
thing the way an operator would — real subprocesses, a real kill, the
real CLI.

Procedure (all subprocesses run with ``--no-cache`` so the journal is
the *only* checkpoint):

1. run the reference campaign uninterrupted, writing ``ref.json``;
2. start the same campaign with ``--journal``, poll the journal file,
   and SIGKILL the process once about half the runs are recorded;
3. ``--resume`` the journal, writing ``resumed.json``;
4. assert the resume loaded a strict subset of the runs (the kill
   really landed mid-flight) and that ``resumed.json`` is byte-identical
   to ``ref.json``.

A kill can race campaign completion on a fast host, so the
kill-and-resume step retries (with the journal reset) up to
``ATTEMPTS`` times before giving up.  ``make resume-smoke`` runs this
standalone; ``benchmarks.perf_guard`` wires it in as the resilience
gate, printing the engine counters on failure.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
import time

#: Campaign size: 3 algorithms x 10 fault shapes x SEEDS seeds.
SEEDS = 3
OPS = 4

#: Mid-flight kill attempts before the smoke gives up.
ATTEMPTS = 5

#: Seconds to wait for any single subprocess (generous; the campaign
#: itself takes a few seconds).
SUBPROCESS_TIMEOUT = 300.0

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _cli_env() -> dict:
    """Subprocess environment with ``src/`` importable and knobs cleared."""
    env = dict(os.environ)
    src = os.path.join(_REPO_ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    # The smoke pins its own parallelism; ambient knobs must not leak in.
    for knob in ("REPRO_JOBS", "REPRO_CHUNK", "REPRO_TASK_TIMEOUT"):
        env.pop(knob, None)
    return env


def _chaos_cmd(json_path: str, *extra: str) -> list:
    return [
        sys.executable,
        "-m",
        "repro.cli",
        "chaos",
        "--seeds",
        str(SEEDS),
        "--ops",
        str(OPS),
        "--no-cache",
        "--out",
        "",
        "--jobs",
        "2",
        "--json",
        json_path,
        *extra,
    ]


def _journal_entries(path: str) -> int:
    """Completed-run lines currently in the journal (header excluded)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError:
        return 0
    return max(0, len(lines) - 1)


def _kill_midway(journal: str, total: int) -> int:
    """Run a journaled campaign, SIGKILL it ~halfway; entries recorded."""
    proc = subprocess.Popen(
        _chaos_cmd(os.devnull, "--journal", journal),
        env=_cli_env(),
        cwd=_REPO_ROOT,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    deadline = time.monotonic() + SUBPROCESS_TIMEOUT
    try:
        while proc.poll() is None and time.monotonic() < deadline:
            if _journal_entries(journal) >= total // 2:
                proc.send_signal(signal.SIGKILL)
                break
            time.sleep(0.02)
        proc.wait(timeout=SUBPROCESS_TIMEOUT)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return _journal_entries(journal)


def run_resume_smoke(verbose: bool = False) -> dict:
    """Execute the smoke; returns the gate record (see module doc)."""
    total = 3 * 10 * SEEDS
    record = {
        "total_runs": total,
        "attempts": 0,
        "loaded": 0,
        "byte_identical": False,
        "killed_midway": False,
        "resume_exit": None,
        "runtime": {},
    }
    with tempfile.TemporaryDirectory() as tmp:
        ref_json = os.path.join(tmp, "ref.json")
        resumed_json = os.path.join(tmp, "resumed.json")
        journal = os.path.join(tmp, "campaign.journal")

        reference = subprocess.run(
            _chaos_cmd(ref_json),
            env=_cli_env(),
            cwd=_REPO_ROOT,
            capture_output=True,
            timeout=SUBPROCESS_TIMEOUT,
        )
        if reference.returncode != 0 or not os.path.exists(ref_json):
            record["error"] = (
                "reference campaign failed "
                f"(exit {reference.returncode})"
            )
            return record

        for attempt in range(1, ATTEMPTS + 1):
            record["attempts"] = attempt
            if os.path.exists(journal):
                os.unlink(journal)
            entries = _kill_midway(journal, total)
            if 0 < entries < total:
                record["killed_midway"] = True
                break
            if verbose:
                print(
                    f"  resume-smoke: attempt {attempt} recorded "
                    f"{entries}/{total} runs before exit; retrying"
                )
        if not record["killed_midway"]:
            record["error"] = (
                f"could not land a mid-flight kill in {ATTEMPTS} attempts"
            )
            return record

        resumed = subprocess.run(
            _chaos_cmd(resumed_json, "--resume", journal),
            env=_cli_env(),
            cwd=_REPO_ROOT,
            capture_output=True,
            timeout=SUBPROCESS_TIMEOUT,
            text=True,
        )
        record["resume_exit"] = resumed.returncode
        for line in resumed.stdout.splitlines():
            if line.startswith("resume: loaded "):
                record["loaded"] = int(line.split()[2])
                break
        if resumed.returncode != 0 or not os.path.exists(resumed_json):
            record["error"] = f"resume failed (exit {resumed.returncode})"
            return record

        with open(ref_json, "rb") as fh:
            ref_bytes = fh.read()
        with open(resumed_json, "rb") as fh:
            resumed_bytes = fh.read()
        record["byte_identical"] = ref_bytes == resumed_bytes
        record["runtime"] = json.loads(resumed_bytes).get("runtime", {})
    return record


def main() -> int:
    record = run_resume_smoke(verbose=True)
    print(
        f"resume-smoke: {record['loaded']}/{record['total_runs']} runs "
        f"loaded from the journal after the kill "
        f"(attempt {record['attempts']}), resumed report "
        f"{'byte-identical' if record['byte_identical'] else 'DIVERGED'}"
    )
    if record.get("error") or not record["byte_identical"]:
        print(f"resume-smoke FAILED: {record}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
