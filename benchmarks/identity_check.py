"""Parent-vs-change identity: same bytecode, same facts, same diagnostics.

A simplification PR claims the compiler's *answers* did not move.  This
script measures that claim against any git ref: it exports the ref with
``git archive`` into a temporary directory, runs itself there and here
with ``--dump`` (same measuring code, the tree under test first on
``sys.path``), and compares six sections:

* ``bytecode`` — ``-O2`` + LTO bytecode of the 16 programs under
  ``benchmarks/lifelong/inputs`` and of ``gen_program.Program(seed)``
  for seeds 1-3 (sha-256 and size);
* ``ir`` — the printed IR of each of those modules after a round trip
  through bytecode with names, so a change of the bytecode format is
  judged by the IR it carries;
* ``text`` — the named bytecode of each of those modules printed as
  text and parsed back (sha-256 and size), so a change of the text
  reader is checked byte for byte;
* ``facts`` — ``ValueFacts.dump()`` of every function of those linked
  modules (the abstract interpreter's intervals and known bits);
* ``native`` — the X86 and SPARC executable images of those modules
  (sha-256 and size each), so a back-end change is checked byte for
  byte;
* ``lint`` — every line ``lc-lint --whole-program -O 2`` prints over
  the benchsuite, ``examples/lc`` and fuzz seeds 1000-1059.

Exits nonzero with the differing entries when anything moved; a
deliberate change is shown by that output in the PR, not by editing
this script.

Usage:  python benchmarks/identity_check.py --against <git-ref>
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
FUZZ_SEEDS = range(1000, 1060)
GENERATED_SEEDS = (1, 2, 3)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _programs() -> dict[str, list[str]]:
    """name -> translation units: the frozen inputs plus the generated
    13-TU programs, read from *this* checkout whichever tree is under
    test (the inputs are data)."""
    sys.path.insert(0, os.path.join(HERE, "lifelong"))
    import gen_program

    inputs = os.path.join(HERE, "lifelong", "inputs")
    programs = {}
    for entry in sorted(os.listdir(inputs)):
        path = os.path.join(inputs, entry)
        paths = ([os.path.join(path, unit) for unit in sorted(os.listdir(path))]
                 if os.path.isdir(path) else [path])
        programs[os.path.splitext(entry)[0]] = [_read(p) for p in paths]
    for seed in GENERATED_SEEDS:
        programs[f"generated-{seed}"] = gen_program.Program(seed).sources()
    return programs


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _lint_inputs(root: str, scratch: str) -> list[tuple[str, list[str]]]:
    """(label, input paths) per linted program, paths relative to the
    working directory so both trees print the same file names."""
    from repro.fuzz.generator import generate_program

    groups = []
    suite = os.path.join("src", "repro", "benchsuite", "programs")
    for entry in sorted(os.listdir(os.path.join(root, suite))):
        if entry.endswith(".lc"):
            groups.append((entry, [os.path.join(suite, entry)]))
    examples = os.path.join("examples", "lc")
    for entry in sorted(os.listdir(os.path.join(root, examples))):
        # A loose .lc file is a program; so is a directory of them.
        path = os.path.join(examples, entry)
        units = ([path] if entry.endswith(".lc")
                 else sorted(glob.glob(os.path.join(path, "*.lc"),
                                       root_dir=root)))
        if units:
            groups.append((path, units))
    for seed in FUZZ_SEEDS:
        path = os.path.join(scratch, f"fuzz{seed}.lc")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(generate_program(seed))
        groups.append((f"fuzz{seed}", [path]))
    return groups


def dump(root: str) -> dict:
    """Measure the tree at ``root``; every value is a short string."""
    sys.path.insert(0, os.path.join(root, "src"))
    os.chdir(root)
    from repro.analysis.absint import analyze_module
    from repro.backend import SPARC, X86, CodeGenerator
    from repro.bitcode import read_bytecode, write_bytecode
    from repro.core import parse_module, print_module
    from repro.driver import compile_and_link
    from repro.tools import lc_lint

    report: dict[str, dict[str, str]] = {"bytecode": {}, "ir": {},
                                         "text": {}, "facts": {},
                                         "native": {}, "lint": {}}
    for name, units in _programs().items():
        module = compile_and_link(units, name, 2, lto=True)
        data = write_bytecode(module)
        report["bytecode"][name] = f"{_sha(data)} {len(data)}B"
        text = print_module(read_bytecode(
            write_bytecode(module, strip_names=False)))
        report["ir"][name] = \
            f"{_sha(text.encode())} {text.count(chr(10))} lines"
        reparsed = write_bytecode(parse_module(print_module(module)),
                                  strip_names=False)
        report["text"][name] = f"{_sha(reparsed)} {len(reparsed)}B"
        lines = [line for _, facts in sorted(analyze_module(module).items())
                 for line in facts.dump()]
        report["facts"][name] = \
            f"{_sha(chr(10).join(lines).encode())} {len(lines)} lines"
        images = [(target.name,
                   CodeGenerator(target).compile_module(module).to_bytes())
                  for target in (X86, SPARC)]
        report["native"][name] = " ".join(
            f"{target} {_sha(image)} {len(image)}B" for target, image in images)
    with tempfile.TemporaryDirectory() as scratch:
        for label, inputs in _lint_inputs(root, scratch):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                status = lc_lint(inputs + ["--whole-program", "-O", "2", "-q"])
            text = out.getvalue().replace(scratch + os.sep, "")
            report["lint"][label] = f"exit {status}\n{text}"
    return report


def compare(ours: dict, theirs: dict) -> int:
    moved = 0
    for section in ours:
        names = sorted(set(ours[section]) | set(theirs[section]))
        differing = [name for name in names
                     if ours[section].get(name) != theirs[section].get(name)]
        detail = ""
        if section == "lint":
            lines = sum(text.count("\n") - 1
                        for text in ours[section].values())
            detail = f" ({lines} diagnostic lines)"
        print(f"identity: {section}: {len(names)} programs{detail}, "
              f"{len(differing)} differ")
        for name in differing:
            moved += 1
            print(f"  {section} {name}:\n    here:    "
                  f"{ours[section].get(name)!r}\n    against: "
                  f"{theirs[section].get(name)!r}", file=sys.stderr)
    return moved


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="GIT-REF",
                        help="the commit to compare this checkout with")
    parser.add_argument("--dump", metavar="ROOT",
                        help="(internal) print the report of one tree")
    args = parser.parse_args(argv)
    if args.dump:
        report = dump(os.path.abspath(args.dump))
        json.dump(report, sys.stdout)
        return 0
    if not args.against:
        parser.error("--against <git-ref> is required")

    def measure(root: str) -> dict:
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--dump", root],
            env=env, check=True, stdout=subprocess.PIPE)
        return json.loads(done.stdout)

    with tempfile.TemporaryDirectory() as other:
        archive = subprocess.run(["git", "-C", REPO, "archive", args.against],
                                 check=True, stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", other], input=archive.stdout,
                       check=True)
        theirs = measure(other)
    ours = measure(REPO)
    moved = compare(ours, theirs)
    if moved:
        print(f"identity: FAIL — {moved} entries differ from "
              f"{args.against}", file=sys.stderr)
        return 1
    print(f"identity: identical to {args.against}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
