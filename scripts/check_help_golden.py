#!/usr/bin/env python3
"""Guards CLI output contracts: tool output vs a committed golden file.

Every tool, example, and bench front-end parses its flags through
util::Cli, which collects each flag's default and help string at
registration time and renders them with print_help(). That makes the
--help text a cheap, byte-stable snapshot of the tool's public flag
surface: a renamed flag, a changed default, or a dropped help string all
show up as a diff. This script runs `<binary> --help`, compares the
output byte-for-byte against the committed golden under tests/golden/,
and prints a unified diff on mismatch.

Registered as ctests (label `cli`) for bcdyn_trace, bcdyn_monitor,
social_stream, and pipeline_overlap, so a flag-surface change fails the
default test run until the golden is updated deliberately:

    python3 scripts/check_help_golden.py --binary build/tools/bcdyn_trace \
        --golden tests/golden/bcdyn_trace_help.txt --update

With --output the script instead runs `<binary> <args...>` in a fresh
temporary directory and compares the file the run writes there (say, the
metrics JSON of a fixed scenario), which pins deterministic artifacts
byte-for-byte:

    python3 scripts/check_help_golden.py --binary build/tools/bcdyn_serve \
        --golden tests/golden/bcdyn_serve_metrics.json \
        --output metrics.json -- --metrics=metrics.json
"""

import argparse
import difflib
import os
import subprocess
import sys
import tempfile


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--binary", required=True,
                        help="tool binary to run with --help")
    parser.add_argument("--golden", required=True,
                        help="committed golden help text")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the golden from the binary's current "
                             "output instead of checking against it")
    parser.add_argument("--output",
                        help="run the binary with the trailing arguments "
                             "in a temporary directory and compare this "
                             "file (relative to it) instead of --help")
    parser.add_argument("tool_args", nargs="*",
                        help="arguments for the --output run (after --)")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as workdir:
        command = [os.path.abspath(args.binary)]
        command += args.tool_args if args.output else ["--help"]
        what = " ".join([args.binary] + command[1:])
        proc = subprocess.run(command, capture_output=True, text=True,
                              timeout=120, cwd=workdir)
        if proc.returncode != 0:
            print(f"error: {what} exited {proc.returncode}:\n"
                  f"{proc.stderr}", file=sys.stderr)
            return 1
        if args.output:
            try:
                with open(os.path.join(workdir, args.output)) as f:
                    actual = f.read()
            except OSError as e:
                print(f"error: {what} did not write {args.output} ({e})",
                      file=sys.stderr)
                return 1
        else:
            actual = proc.stdout

    if args.update:
        with open(args.golden, "w") as f:
            f.write(actual)
        print(f"golden updated: {args.golden}")
        return 0

    try:
        with open(args.golden) as f:
            expected = f.read()
    except OSError as e:
        print(f"error: cannot read golden ({e}); generate it with --update",
              file=sys.stderr)
        return 1

    if actual == expected:
        print(f"ok: {what} matches {args.golden}")
        return 0

    diff = difflib.unified_diff(expected.splitlines(keepends=True),
                                actual.splitlines(keepends=True),
                                fromfile=args.golden, tofile=what)
    sys.stderr.writelines(diff)
    print(f"error: output of {what} changed (it is a pinned contract; "
          f"update the golden deliberately with --update)", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
