"""Compare the output directories of two ``demigronwall`` runs.

    python tests/compare_runs.py A B [--codes CODE_A CODE_B] [--verdicts-only]

By default every ``cases.csv`` under A must have the bytes of its
counterpart under B, and every ``report.json`` its ``body_sha256``.  With
``--verdicts-only`` the bytes may differ, but both runs must have written
the same ``report.json`` files, with the same row verdicts, named checks
and overall verdict.  ``--codes`` passes the two runs' exit codes, which
must be equal.  Exits 0 when the runs agree; otherwise it exits with a
message that names the first difference.
"""

import argparse
import json
import pathlib
import sys


def _reports(root):
    return sorted(path.relative_to(root) for path in root.rglob("report.json"))


def difference(a, b, verdicts_only=False):
    """The first difference between the run directories ``a`` and ``b``, or None."""
    if verdicts_only:
        reports = _reports(a)
        if not reports or reports != _reports(b):
            return "the two runs wrote different report.json files"
        for rel in reports:
            one, two = (json.loads((root / rel).read_text()) for root in (a, b))
            for key in ("verdict", "overall"):  # per-command rows carry a verdict, the rows of "all" an overall
                if [row.get(key) for row in one["rows"]] != [row.get(key) for row in two["rows"]]:
                    return f"row verdicts differ in {rel}"
            if one["checks"] != two["checks"] or one["overall"] != two["overall"]:
                return f"named checks differ in {rel}"
        return None
    csvs = sorted(a.rglob("cases.csv"))
    if not csvs:
        return "no cases.csv written"
    for path in csvs:
        twin = b / path.relative_to(a)
        if not twin.is_file() or path.read_bytes() != twin.read_bytes():
            return f"{path.relative_to(a)} differs"
    for rel in _reports(a):
        hashes = [json.loads((root / rel).read_text())["body_sha256"] for root in (a, b) if (root / rel).is_file()]
        if len(hashes) != 2 or hashes[0] != hashes[1]:
            return f"body_sha256 differs in {rel}"
    return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=pathlib.Path)
    parser.add_argument("b", type=pathlib.Path)
    parser.add_argument("--codes", nargs=2, metavar=("CODE_A", "CODE_B"), help="the two runs' exit codes")
    parser.add_argument("--verdicts-only", action="store_true", help="compare verdicts and checks, not bytes")
    args = parser.parse_args(argv)
    if args.codes and args.codes[0] != args.codes[1]:
        return f"exit code {args.codes[0]} in {args.a}, {args.codes[1]} in {args.b}"
    return difference(args.a, args.b, args.verdicts_only)


if __name__ == "__main__":
    sys.exit(main())
