"""A sweep on worker processes leaves no process behind.

Spawning a worker starts multiprocessing's resource tracker.  Unless
its pipe is closed, the tracker outlives the sweep's interpreter and
then lingers as a zombie under init.  Each check runs in a fresh
interpreter in its own session, and after it exits no process of that
session may be left: neither a tracker nor a zombie.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[2] / "src")

pytestmark = pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="reads sessions from /proc"
)


def _session_members(sid):
    """Every process whose session id is ``sid`` (zombies included)."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as fh:
                stat = fh.read()
        except OSError:  # the process exited while we looked
            continue
        # The command name may contain spaces: the fields follow its ')'.
        fields = stat.rsplit(")", 1)[1].split()
        if int(fields[3]) == sid:
            members.append(stat.strip())
    return members


def _run_in_own_session(args, timeout_s):
    """Run a fresh interpreter as a session leader; (proc, stdout, stderr)."""
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("REPRO_WORKERS", None)
    proc = subprocess.Popen(
        [sys.executable, *args], env=env, start_new_session=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, 9)
        proc.communicate()
        raise
    return proc, out, err


def test_two_worker_sweep_leaves_no_process():
    proc, out, err = _run_in_own_session(
        ["-m", "repro.cli", "sweep", "fig5", "--quick", "--backend", "auto",
         "--workers", "2", "--no-cache", "--no-progress", "--json"],
        timeout_s=240,
    )
    assert proc.returncode == 0, err
    assert out.startswith("{")
    assert _session_members(proc.pid) == []


STRESS = textwrap.dedent("""
    import sys
    import threading
    import warnings

    # The tracker warns when it finds its predecessor gone ("died
    # unexpectedly"); that must never happen.
    warnings.filterwarnings("error", module="multiprocessing")

    from repro.parallel import SweepPoint, SweepSpec, run_sweep, tasks

    SPEC = SweepSpec(
        name="tracker-stress",
        task=tasks.demo_point,
        points=tuple(
            SweepPoint(key=f"p{i}", params={"draws": 16}, seed=40 + i)
            for i in range(2)
        ),
    )
    EXPECTED = [tasks.demo_point({"draws": 16}, 40 + i) for i in range(2)]
    results, errors = [], []

    def sweep():
        try:
            result = run_sweep(SPEC, workers=2)
            results.append([point.value for point in result.results])
        except BaseException as exc:
            errors.append(repr(exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=sweep) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert errors == [], errors
    assert results == [EXPECTED] * 4, results
    sweep()  # a later sweep in the same process launches a new tracker
    assert errors == [] and results[-1] == EXPECTED, (errors, results)
    print("ok")
""")


def test_concurrent_sweeps_share_and_close_the_tracker():
    proc, out, err = _run_in_own_session(["-c", STRESS], timeout_s=240)
    assert proc.returncode == 0, err
    assert out.strip() == "ok"
    assert "resource_tracker" not in err
    assert _session_members(proc.pid) == []
