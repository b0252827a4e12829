"""``scripts/bench_pairs.py`` leaves no process behind when stopped.

A SIGTERM to the script must take down the ``python -m bench`` run it
waits on and whatever that run started, or they keep writing under
``.benchmarks/pairs/`` after the script is gone.  The stand-in tree's
``bench`` package starts one sleeping grandchild and prints both pids;
three processes in all: the helper, its child and the grandchild.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

STAND_IN = """\
import os, subprocess, sys
sleeper = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
print(os.getpid(), sleeper.pid, flush=True)
sleeper.wait()
"""

HELPER = """\
import signal, sys
from pathlib import Path
sys.path.insert(0, {scripts!r})
import bench_pairs
signal.signal(signal.SIGTERM, bench_pairs._terminate)
bench_pairs._bench(Path({tree!r}))
"""


def _alive(pid):
    """The process exists and is not a zombie."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def test_sigterm_kills_the_whole_run_group(tmp_path):
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "__main__.py").write_text(STAND_IN)
    helper = subprocess.Popen(
        [sys.executable, "-c", HELPER.format(
            scripts=str(ROOT / "scripts"), tree=str(tmp_path))],
        stdout=subprocess.PIPE, text=True,
    )
    pids = []
    try:
        pids = [int(pid) for pid in helper.stdout.readline().split()]
        assert len(pids) == 2, "the stand-in run did not start"
        helper.send_signal(signal.SIGTERM)
        assert helper.wait(timeout=3) == 128 + signal.SIGTERM
        deadline = time.monotonic() + 1.0
        while any(map(_alive, pids)) and time.monotonic() < deadline:
            time.sleep(0.02)
        assert not any(map(_alive, pids))
    finally:
        helper.kill()
        helper.wait()
        helper.stdout.close()
        for pid in filter(_alive, pids):
            os.kill(pid, signal.SIGKILL)
