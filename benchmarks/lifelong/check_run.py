"""A check process: run each bytecode file named on the command line
under the plain interpreter and print, per file, one JSON line
`[exit value, printed output, steps]`.

`suite-cold-build` starts two of these after its clock has stopped and
waits for both.  They are plain subprocesses rather than a
`multiprocessing` pool because a pool's resource tracker outlives the
process that started it.
"""

from __future__ import annotations

import json
import sys

import common


def main(paths: list[str]) -> None:
    for path in paths:
        with open(path, "rb") as handle:
            print(json.dumps(common.execute_bytecode(handle.read())),
                  flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
