"""Print digests of the CLI's output on a fixed list of commands.

Run from the root of a checkout, with no options:

    python tools/output_digests.py

Each command runs as ``python -m ginforge.cli ARGS`` in a subprocess, with
``src`` of the current directory first on ``PYTHONPATH``, one at a time.
For each it prints one line: the exit code, the sha256 of stdout, the sha256
of stderr and the arguments.  The commands are ``verify all`` at seeds 1-3,
``verify points`` and ``verify radical`` at seeds 1-8, all with
``--instances 25``, and the ``points`` example of the README.

To compare two checkouts, run this file from the root of each and diff the
outputs; the checkout under test is the current directory, not the one
that holds this file:

    (cd PARENT && python CHANGE/tools/output_digests.py) > parent.txt
    (cd CHANGE && python tools/output_digests.py) > change.txt
    diff parent.txt change.txt
"""

from __future__ import annotations

import hashlib
import os
import shlex
import subprocess
import sys

COMMANDS = (
    [["verify", "all", "--seed", str(s), "--instances", "25"] for s in (1, 2, 3)]
    + [["verify", st, "--seed", str(s), "--instances", "25"] for st in ("points", "radical") for s in range(1, 9)]
    + [["points", "--n", "2", "--kind", "classic", "--N", "3", "--ideal", "x1^2, x1*x2, x2^2"]]
)


def digest(args: list) -> str:
    """The exit code, the stdout and stderr digests and the arguments of one
    run of the CLI in the current directory."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.abspath("src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "ginforge.cli", *args], capture_output=True, env=env)
    sha = lambda data: hashlib.sha256(data).hexdigest()
    return "%d %s %s %s" % (proc.returncode, sha(proc.stdout), sha(proc.stderr), shlex.join(args))


def main() -> int:
    for args in COMMANDS:
        print(digest(args), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
