"""Fingerprint the CLI's output on every benchmark op, and diff two fingerprints.

Runs every op of both benchmark workloads (perfbench/workloads.py) at seeds
1-3 through ``permrealize.cli.main`` in this process, and each realize op
once more with ``--format pretty`` and once with ``--format csv``; the
realize ops' own runs also get ``--out FILE``.  Each verify op runs once
more on each of four edits of its CSV file (CSV_VARIANTS): the first row's
last entry written as -0 or as 1/3 and a whitespace-only line after the
first row, which the float CSV reader leaves to its line-by-line path, and
CRLF line ends, which the CLI's text-mode read turns into newlines.  For
each run it records the exit code and the sha256 of stdout, of stderr and
of the ``--out`` file (null when none was written), keyed by workload,
seed, op index and run name (format or CSV edit), and writes them as
JSON.  With a baseline file it then lists every run whose record differs
from the baseline's and exits 1 if any does.

Usage, from the repository root:

    PYTHONPATH=src python3 tools/op_outputs.py OUT.json [--baseline BASE.json]

Point PYTHONPATH at another checkout's src/ to fingerprint that library with
the same ops.  The verify ops' CSV files and the ``--out`` files go to a
temporary directory, whose path is replaced by ``<workdir>`` in the
recorded argv.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402

from permrealize.cli import main as cli_main  # noqa: E402

SEEDS = (1, 2, 3)
RERUN_FORMATS = ("pretty", "csv")


def _last_entry(text: str, token: str) -> str:
    first, rest = text.split("\n", 1)
    return first.rsplit(",", 1)[0] + "," + token + "\n" + rest


CSV_VARIANTS = {
    "minus-zero": lambda text: _last_entry(text, "-0"),
    "fraction": lambda text: _last_entry(text, "1/3"),
    "blank-line": lambda text: text.replace("\n", "\n \t\n", 1),
    "crlf": lambda text: text.replace("\n", "\r\n"),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _run(argv, out_file: Path) -> dict:
    out, err = io.StringIO(), io.StringIO()
    out_file.unlink(missing_ok=True)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(list(argv))
    written = _sha(out_file.read_text(encoding="utf-8")) if out_file.exists() else None
    return {
        "exit": code,
        "stdout": _sha(out.getvalue()),
        "stderr": _sha(err.getvalue()),
        "out": written,
    }


def _with_format(argv, fmt: str) -> list[str]:
    argv = list(argv)
    i = argv.index("--format")
    argv[i + 1] = fmt
    return argv


def fingerprint() -> dict:
    """{key: {"argv", "exit", "stdout", "stderr", "out"}} for every run."""
    records = {}
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            with tempfile.TemporaryDirectory() as workdir:
                out_file = Path(workdir) / "out.csv"
                for i, op in enumerate(workloads.make_ops(workload, seed, workdir)):
                    if op.kind == "realize":
                        runs = [("default", (*op.argv, "--out", str(out_file)))]
                        runs += [(f, _with_format(op.argv, f)) for f in RERUN_FORMATS]
                    else:
                        runs = [("default", op.argv)]
                    if op.kind == "verify":
                        text = Path(op.matrix_path).read_text(encoding="utf-8")
                        for name, edit in CSV_VARIANTS.items():
                            path = Path(workdir) / f"{i}-{name}.csv"
                            path.write_bytes(edit(text).encode("utf-8"))
                            argv = list(op.argv)
                            argv[argv.index(op.matrix_path)] = str(path)
                            runs.append((f"csv-{name}", argv))
                    for fmt, argv in runs:
                        shown = [a.replace(workdir, "<workdir>") for a in argv]
                        record = {"argv": shown, **_run(argv, out_file)}
                        records[f"{workload}:{seed}:{i}:{fmt}"] = record
    return records


def diff(records: dict, baseline: dict) -> list[str]:
    """One line per key whose record differs, or that only one side has."""
    lines = []
    for key in sorted(records.keys() | baseline.keys()):
        new, old = records.get(key), baseline.get(key)
        if new is None or old is None:
            lines.append(f"{key}: only in {'baseline' if new is None else 'this run'}")
            continue
        fields = [f for f in ("exit", "stdout", "stderr", "out") if new[f] != old[f]]
        if fields:
            lines.append(f"{key}: {', '.join(fields)} differ; {' '.join(new['argv'])}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", help="write the fingerprints here (JSON)")
    parser.add_argument("--baseline", help="fingerprints to diff against")
    args = parser.parse_args(argv)
    records = fingerprint()
    Path(args.out).write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    print(f"{len(records)} runs fingerprinted")
    if args.baseline is None:
        return 0
    lines = diff(records, json.loads(Path(args.baseline).read_text()))
    for line in lines:
        print(line)
    print(f"{len(lines)} of {len(records)} runs differ from the baseline")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
