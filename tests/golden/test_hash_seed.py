"""Golden bytes do not depend on the interpreter's hash seed.

The simulator's non-empty channel index is a set, and a set of
``(src, dst)`` string keys iterates in an order that ``PYTHONHASHSEED``
decides.  No output may take that order: every caller that reads an
order sorts (``World.enabled_channels``, the blocked channels a stall
diagnosis records, the keys the round-robin scheduler registers).

``test_golden.py`` rebuilds in-process, under the one seed its pytest
run happened to draw, so it cannot see a seed dependence.  This test
rebuilds the chaos report (its partition diagnoses record blocked
channels) and the measured Figure 1 in a fresh interpreter per fixed
seed, and diffs both against the committed bytes.
"""

import difflib
import json
import os
import subprocess
import sys

import pytest

from tests.golden.build import GOLDEN_DIR, golden_path

REPO = os.path.dirname(os.path.dirname(GOLDEN_DIR))

#: The artifacts rebuilt under each seed.
NAMES = ("chaos.json", "figure1.json")

#: Run in the child: build each artifact serially, print them as JSON.
CHILD = (
    "import json, sys\n"
    "from tests.golden.build import GOLDEN\n"
    "json.dump({name: GOLDEN[name](1) for name in sys.argv[1:]}, sys.stdout)\n"
)


def _build_under(hash_seed: str) -> dict:
    path = [os.path.join(REPO, "src"), REPO]
    if os.environ.get("PYTHONPATH"):
        path.append(os.environ["PYTHONPATH"])
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=os.pathsep.join(path))
    child = subprocess.run(
        [sys.executable, "-c", CHILD, *NAMES],
        cwd=REPO, env=env, capture_output=True, text=True, timeout=300,
    )
    assert child.returncode == 0, child.stderr[-4000:]
    return json.loads(child.stdout)


@pytest.mark.parametrize("hash_seed", ["0", "1"])
def test_golden_bytes_match_under_hash_seed(hash_seed):
    built = _build_under(hash_seed)
    for name in NAMES:
        with open(golden_path(name), encoding="utf-8") as fh:
            committed = fh.read()
        if built[name] != committed:
            diff = "".join(
                difflib.unified_diff(
                    committed.splitlines(keepends=True),
                    built[name].splitlines(keepends=True),
                    fromfile=f"tests/golden/{name}",
                    tofile=f"rebuilt under PYTHONHASHSEED={hash_seed}",
                    n=2,
                )
            )
            pytest.fail(f"{name} depends on the hash seed:\n{diff[:4000]}")
