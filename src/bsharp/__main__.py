"""The process of one command: ``python -m bsharp`` and the ``bsharp``
script both call :func:`run`.

Such a process ends once its output is written, so it skips two costs
that would buy nothing.  The tables a command builds (cut rows, value
lists, coefficient dicts) hold no reference cycles, and the cycles a run
does leave (argparse's parser, about a hundred objects) do not grow with
its size; the cyclic collector would only rescan the tables, so it is off
from before the CLI is imported.  After the command, the atexit handlers
run and stdout and stderr are flushed, as the interpreter's teardown would
do first, and the process exits with ``os._exit``, skipping the teardown's
freeing of every object.

The ordinary ``sys.exit`` is taken instead when something needs the
teardown or would notice it missing: a profiler or tracer (cProfile and
coverage write their reports after the command), ``-X dev`` (it reports
unclosed files and leaks), a live non-daemon thread (the teardown waits
for it), and a flush that fails (a closed pipe or a full disk, which the
teardown reports as it always has).  :func:`bsharp.cli.main` called
in-process touches neither the collector nor the process's exit.
"""

import atexit
import gc
import os
import sys


def _needs_teardown() -> bool:
    if sys.getprofile() is not None or sys.gettrace() is not None or sys.flags.dev_mode:
        return True
    # the teardown waits only for threading's non-daemon threads, and
    # there are none unless threading was imported
    threading = sys.modules.get("threading")
    if threading is None:
        return False
    main_thread = threading.main_thread()
    return any(not t.daemon for t in threading.enumerate() if t is not main_thread)


def _flushed() -> bool:
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                stream.flush()
    except (OSError, ValueError):
        return False
    return True


def run() -> None:
    """Run the command in ``sys.argv`` and end the process with its exit code."""
    gc.disable()
    from .cli import main

    code = main()
    if _needs_teardown():
        sys.exit(code)
    atexit._run_exitfuncs()
    if not _flushed():
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
