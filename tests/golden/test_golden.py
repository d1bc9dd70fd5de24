"""Committed golden bytes still match, at ``--jobs 1`` and ``--jobs 2``.

The set and the functions that build it live in
:mod:`tests.golden.build`.  A failure here means a change altered
user-visible output: if that was intended, regenerate with ``make
golden`` and commit the diff with the change.
"""

import difflib

import pytest

from tests.golden.build import GOLDEN, golden_path


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_bytes_match(name, jobs):
    with open(golden_path(name), encoding="utf-8") as fh:
        committed = fh.read()
    rebuilt = GOLDEN[name](jobs)
    if rebuilt != committed:
        diff = "".join(
            difflib.unified_diff(
                committed.splitlines(keepends=True),
                rebuilt.splitlines(keepends=True),
                fromfile=f"tests/golden/{name}",
                tofile=f"rebuilt at --jobs {jobs}",
                n=2,
            )
        )
        pytest.fail(f"{name} drifted at --jobs {jobs}:\n{diff[:4000]}")
