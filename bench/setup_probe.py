"""Set-up probe: run ``tourmat`` up to the point where its experiment starts.

Usage: python3 setup_probe.py <src dir> <experiments function> <tourmat argv...>

Imports the package (and numpy with it), lets ``tourmat.cli.main`` parse the
arguments and weights, and when the CLI calls the named experiments function
prints the system-wide monotonic clock and exits at once.  The caller reads
the clock before it starts this interpreter, so the difference is the set-up
time a user waits for, interpreter start-up included.
"""

import os
import sys
import time


def main():
    src, entry, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    sys.path.insert(0, src)
    from tourmat import cli, experiments

    def reached(*args, **kwargs):
        sys.stdout.write(f"{time.clock_gettime(time.CLOCK_MONOTONIC)!r}\n")
        sys.stdout.flush()
        os._exit(0)

    if not hasattr(experiments, entry):
        sys.exit(f"setup_probe: tourmat.experiments has no {entry}")
    setattr(experiments, entry, reached)
    code = cli.main(argv)
    sys.exit(f"setup_probe: cli returned {code} before calling {entry}")


if __name__ == "__main__":
    main()
