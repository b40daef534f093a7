"""Capture `expected.json`: each frozen input program's exit value,
printed output and step count at -O0 under the plain interpreter, where
no pass has run.  Run once when `inputs/` changes; `run.py` only ever
reads the committed file.

Usage:  python3 benchmarks/lifelong/capture_expected.py
"""

from __future__ import annotations

import json
import os

import common


def main() -> None:
    from repro.driver import compile_and_link

    expected = {}
    for name, sources in common.load_programs().items():
        module = compile_and_link(sources, name, level=0, lto=False)
        exit_value, output, steps, _ = common.execute(module)
        expected[name] = {"exit": exit_value, "output": output,
                          "steps_O0": steps}
        print(f"{name}: exit {exit_value}, {steps} steps")
    with open(os.path.join(common.HERE, "expected.json"), "w",
              encoding="utf-8") as handle:
        json.dump(expected, handle, indent=2, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
