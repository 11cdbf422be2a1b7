"""The published work counters are pinned byte for byte.

``--figure counters`` (states examined), ``13a`` and ``13b`` (peak
memory), ``14a`` and ``14b`` (doi gap to the exact optimum) print
deterministic figures: they depend only on which states each algorithm
visits, in which order, and what its queues hold. The golden tables
under ``golden/`` are that output; a search-layer change that moves any
of them changes the paper's Figs. 12–14 and must regenerate them
deliberately.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.tier2
@pytest.mark.parametrize("figure", ["counters", "13a", "13b", "14a", "14b"])
def test_figure_matches_golden_table(figure):
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    printed = subprocess.run(
        [sys.executable, "-m", "repro.experiments", "--figure", figure],
        env=env, capture_output=True, text=True, check=True, timeout=300,
    ).stdout
    assert printed == (GOLDEN / ("figure_%s.txt" % figure)).read_text()
