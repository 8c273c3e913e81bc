"""The README's example scripts run to completion and print their table.

``hbase_ycsb.py`` takes about half a minute, so it runs as a CI step in
the ``experiments`` job instead of here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

#: The header of the table each script prints.
HEADERS = {
    "quickstart.py": "RPC-IPoIB      RPCoIB  reduction",
    "hdfs_write.py": "1 GB write  retries  polls",
    "sort_cluster.py": "busiest RPC kinds (by call count):",
}


@pytest.mark.parametrize("script", list(HEADERS))
def test_example_runs(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(ROOT / "examples" / script)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert HEADERS[script] in result.stdout, result.stdout
