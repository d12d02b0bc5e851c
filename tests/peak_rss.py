"""A command's own peak resident memory.

``ru_maxrss`` of a child counts from the memory of the process that
started it: ``subprocess`` starts a child by vfork, so the child's peak is
at least its parent's high-water mark, and a fork copies the parent's
resident pages.  A test run holds far more than a small command does, so
it cannot read that command's peak directly.  :func:`peak_rss` therefore
starts this file as a small launcher, which imports only ``os`` and
``sys``, fork-execs the command and reads the command's ``ru_maxrss``
from ``os.wait4``.  The reading is the larger of the command's own peak
and the launcher's size at the fork (about 10 MB).

From a shell::

    python tests/peak_rss.py OUT -- python -m bsharp trees 12

runs the command with its stdout in the file OUT and prints its exit code
and peak RSS in kB.
"""

import os
import sys


def peak_rss(argv, stdout=os.devnull, env=None) -> tuple[int, float, str]:
    """(exit code, peak RSS in MB, stderr) of ``argv`` run to completion
    with its stdout in the file ``stdout``."""
    import subprocess

    proc = subprocess.run(
        [sys.executable, "-S", "-E", __file__, str(stdout), "--", *argv],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    *_, code, kb = proc.stdout.split()
    return int(code), int(kb) / 1024, proc.stderr


def _launch(stdout: str, argv: list[str]) -> None:
    fd = os.open(stdout, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    pid = os.fork()
    if pid == 0:
        try:
            os.dup2(fd, 1)
            os.execvp(argv[0], argv)
        finally:
            os._exit(127)
    os.close(fd)
    _, status, usage = os.wait4(pid, 0)
    print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)


if __name__ == "__main__":
    if len(sys.argv) < 4 or sys.argv[2] != "--":
        sys.exit(f"usage: {sys.argv[0]} OUT -- COMMAND [ARG...]")
    _launch(sys.argv[1], sys.argv[3:])
