"""Fingerprint the CLI's output on every benchmark op, and diff two fingerprints.

Runs every op of both benchmark workloads (perfbench/workloads.py) at seeds
1-3, a fixed list of float Suleimanova spectra whose negatives spread
over many decades (WIDE_SPREAD, realized in float and ``--exact`` mode),
and a fixed list of small searches (EXPLORE, each run as ``explore`` and
as ``realize --method explore``), a fixed list of usage errors, help
texts, negative tolerances and missing spectra (CLI_TEXT), and ``verify``
of the CSV files of a fixed list of alpha direct sums (DIRECT_SUM), each
as written and with one entry edited, the library's own json, csv and pretty text of each of
those sums and of an N4-Group block next to an alpha block, and a fixed
list of realize runs at tight tolerances and
of spectra whose float sum overflows partway (TIGHT), through
``permrealize.cli.main`` in this process, and
each realize op once more with ``--format pretty`` and once
with ``--format csv``; the realize ops' own runs also get ``--out FILE``.  Each verify op runs once
more on each of seven edits of its CSV file (CSV_VARIANTS): the first row's
last entry written as -0 or as 1/3 and a whitespace-only line after the
first row, which the float CSV reader leaves to its line-by-line path,
CRLF line ends, which the CLI's text-mode read turns into newlines,
the final newline dropped, which the reader of alpha layouts leaves to
the readers after it, a middle row's last entry written as 1/3, which it
reads as a row that differs, and the same rows as JSON nested arrays,
which the JSON reader reads to a matrix that records no layout.  Each
of those verify runs, the file as written and its seven edits, runs once
more with ``--exact``, its run name suffixed ``-exact``.  For
each run it records the exit code and the sha256 of stdout, of stderr and
of the ``--out`` file (null when none was written), keyed by workload,
seed, op index and run name (format or CSV edit; the wide-spread ops
are keyed ``wide-spread:<index>:<run name>``, the searches
``explore:<index>:<run name>``, the direct sums
``direct-sum:<index>:<run name>`` and their texts
``direct-sum:<index>:print-<format>``, the N4-Group sum's index following
DIRECT_SUM's, TIGHT ``tight:<index>:<run name>`` and
CLI_TEXT ``cli-text:<index>``), and writes them as
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
import os
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402

from permrealize import direct_sum, make_spectrum  # noqa: E402
from permrealize.cli import main as cli_main  # noqa: E402
from permrealize.linalg import matrix_to_csv, matrix_to_json, matrix_to_pretty  # noqa: E402
from permrealize.small_order import realize_small  # noqa: E402
from permrealize.suleimanova import alpha_direct_sum  # noqa: E402

SEEDS = (1, 2, 3)
RERUN_FORMATS = ("pretty", "csv")


def _wide_spread(n: int, head_exponent: int) -> str:
    """Head 10^h and n - 1 negatives at head / n times 10^-u, u uniform in
    [0, h] (seeded by n and h): the trace stays positive."""
    rng = np.random.default_rng([n, head_exponent])
    head = 10.0**head_exponent
    tail = -head / n * 10.0 ** -rng.uniform(0, head_exponent, size=n - 1)
    return ",".join(repr(float(v)) for v in (head, *tail))


WIDE_SPREAD = [
    ("realize", text, "--format", "json", *mode)
    for text in ["1e10,-1e6,-1,-1e-3"]
    + [_wide_spread(n, h) for n in (4, 12, 30, 31) for h in (8, 16, 100, 300)]
    for mode in ((), ("--exact",))
]


def _scaled_1e150(n: int) -> str:
    """Head 10^(150/n) and n - 1 negatives: the characteristic coefficients
    reach about 1e150, so the search's squared mismatches overflow."""
    head = 10.0 ** (150 / n)
    return ",".join(repr(v) for v in [head] + [-head * 2 * (k + 1) / n**2 for k in range(n - 1)])


#: Searches at n = 2..4 on a Suleimanova spectrum (the alpha pattern's warm
#: start is a certified hit) and a 1e150-scale one, by the alpha and the
#: cyclic pattern, with budgets of one evaluation and of one sweep plus one.
EXPLORE = [
    (text, "--strategy", strategy, "--budget", str(budget))
    for n, suleimanova in ((2, "3,-1"), (3, "5,-2,-3"), (4, "10,-1,-2,-3"))
    for text in (suleimanova, _scaled_1e150(n))
    for strategy in ("alpha", "cyclic")
    for budget in (1, 2 * n + 1)
]


#: Every help text, and a missing argument, a bad choice and an unknown
#: option for each subcommand, and unknown commands.
PARSER_ERRORS = [
    (), ("-h",), ("--help",), ("--bogus",), ("foo",), ("foo", "3,-1,-1"),
    *((cmd, flag) for cmd in ("check", "realize", "verify", "bench", "explore")
      for flag in ("-h", "--help", "--bogus")),
    ("realize", "3,-1,-1", "--help"),
    ("check", "3,-1,-1", "--power-depth"),
    ("check", "3,-1,-1", "--format", "csv"),
    ("realize", "3,-1,-1", "--format"),
    ("realize", "3,-1,-1", "--format", "xml"),
    ("realize", "3,-1,-1", "--method", "foo"),
    ("realize", "3,-1,-1", "--budget", "x"),
    ("realize", "3,-1,-1", "extra"),
    ("verify", "3,-1,-1"),
    ("verify", "3,-1,-1", "--matrix", "m.csv", "--format", "csv"),
    ("bench", "--sizes", "0"),
    ("explore", "3,-1,-1", "--strategy", "foo"),
    ("explore", "3,-1,-1", "--format", "json"),
]

#: CLI_TEXT's runs: (PERMREALIZE_TOLERANCES or None, argv).  ID_CSV in the
#: argv is a file holding the 2 x 2 identity, an alpha matrix of 1,1.
CLI_TEXT = [(None, argv) for argv in PARSER_ERRORS] + [
    (None, ("realize", "3,-1,-1", "--abs-tol", "-1", "--rel-tol", "-1")),
    (None, ("realize", "3,-1,-1", "--rel-tol", "-1e-9", "--format", "json")),
    (None, ("explore", "3,-1,-1", "--abs-tol", "-1", "--budget", "1")),
    (None, ("verify", "1,1", "--matrix", "ID_CSV", "--abs-tol", "-1", "--rel-tol", "-1")),
    ("-1,-1", ("realize", "3,-1,-1")),
    ("-1,-1", ("verify", "1,1", "--matrix", "ID_CSV")),
    # Inline spectra that start with a negative decimal or fraction.
    *((None, (cmd, text)) for cmd in ("check", "realize") for text in ("-.5,0.25", "-1/2,1/4")),
    # No spectrum, inline or with --file, and both.
    (None, ("check",)), (None, ("realize",)), (None, ("verify", "--matrix", "ID_CSV")),
    (None, ("explore",)), (None, ("check", "3,-1,-1", "--file", "ID_CSV")),
]


def _tight_spectrum(n: int, seed: int, thousandths: bool = True) -> str:
    """A Suleimanova spectrum (seeded by n and seed): n - 1 negatives of
    quarters, plus up to 0.199 in thousandths if asked, and a head that
    leaves the trace an odd number of quarters.  A float first row misses
    thousandths, which are no binary fractions, by its rounding; quarters
    it holds exactly."""
    rng = np.random.default_rng([n, seed])
    negs = -(rng.integers(1, 65, n - 1) / 4 + thousandths * rng.integers(1, 200, n - 1) / 1000)
    head = -negs.sum() + 0.25 * (2 * int(rng.integers(n)) + 1)
    return ",".join(repr(round(float(v), 3)) for v in (head, *sorted(negs, reverse=True)))


#: Realize runs whose verdict the last bits of the certificate decide: an
#: integer spectrum, the wide-spread example, two thousandths spectra (the
#: float first row of the first has it as its exact spectrum, that of the
#: second misses it by a rounding) and a quarters spectrum at n = 256, each at zero
#: tolerance and at relative 1e-15 (run names "rel-0" and "rel-1e-15");
#: then spectra whose
#: float sum overflows partway although every value is finite, in float and
#: exact mode (run names "float" and "exact").
TIGHT = [
    {f"rel-{rel}": ("realize", text, "--format", "json", "--abs-tol", "0", "--rel-tol", rel)
     for rel in ("0", "1e-15")}
    for text in ("10,-1,-2,-3", "1e10,-1e6,-1,-1e-3", _tight_spectrum(6, 31),
                 _tight_spectrum(7, 8), _tight_spectrum(256, 0, thousandths=False))
] + [
    {mode: ("realize", *argv, "--format", "json", *flags)
     for mode, flags in (("float", ()), ("exact", ("--exact",)))}
    for argv in (("1e308,1e308",), ("1.5e308,1e308,-1e308",),
                 ("1e308,1e308,1e308,-1e308", "--method", "small"),
                 ("1.7e308,1.7e308,-1.7e308",), ("1e308,1e308,-1e308,-1e308,-1e308",))
]


def _wide_groups() -> list[list[float]]:
    """Three groups of head 10^12 and three negatives -4e11 * 10^-u, u
    uniform in [0, 14] (seed 5): 12 values spanning 26 decades."""
    negs = -4e11 * 10.0 ** -np.random.default_rng(5).uniform(0, 14, size=9)
    return [[1e12, *map(float, negs[3 * g : 3 * g + 3])] for g in range(3)]


#: The groups of alpha direct sums whose CSV files verify reads: 4, 10 and
#: 22 blocks of 3,-1,-1 (n = 12, 30, 66) and the wide 12-value sum.
DIRECT_SUM = [[[3.0, -1.0, -1.0]] * k for k in (4, 10, 22)] + [_wide_groups()]


#: The library's printers, keyed by the name of their format.
PRINTERS = {"json": matrix_to_json, "csv": matrix_to_csv, "pretty": matrix_to_pretty}


def _printed_sums() -> list:
    """The alpha direct sums of DIRECT_SUM, then an N4-Group block (spectrum
    6,1,-3,-3) followed by the alpha block of 3,-1,-1."""
    sums = [alpha_direct_sum(groups, "", make_spectrum([v for g in groups for v in g])).matrix
            for groups in DIRECT_SUM]
    group = realize_small(make_spectrum([6.0, 1.0, -3.0, -3.0]))
    assert group.params["case"] == "N4-Group"
    alpha = alpha_direct_sum([[3.0, -1.0, -1.0]], "", make_spectrum([3.0, -1.0, -1.0]))
    return sums + [direct_sum([group.matrix, alpha.matrix])]


def _direct_sum_files(groups, workdir: str, i: int) -> tuple[str, list]:
    """The spectrum text and (run name, CSV path) of the alpha direct sum of
    groups as written, with its last diagonal entry one ulp up, and with
    that entry's sign bit flipped."""
    values = [v for g in groups for v in g]
    data = np.array(alpha_direct_sum(groups, "", make_spectrum(values)).matrix.data)
    edits = {
        "as-written": lambda v: v,
        "ulp": lambda v: np.nextafter(v, np.inf),
        "sign-bit": lambda v: -v,
    }
    files = []
    for name, edit in edits.items():
        M = data.copy()
        M[-1, -1] = edit(M[-1, -1])
        path = os.path.join(workdir, f"direct-sum-{i}-{name}.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(",".join(map(repr, row)) + "\n" for row in M.tolist())
        files.append((name, path))
    return ",".join(map(repr, values)), files


def _last_entry(text: str, token: str, middle: bool = False) -> str:
    """text with the last entry of its first row, or of its middle row,
    written as token."""
    lines = text.split("\n")
    i = (len(lines) - 1) // 2 if middle else 0
    lines[i] = lines[i].rsplit(",", 1)[0] + "," + token
    return "\n".join(lines)


CSV_VARIANTS = {
    "minus-zero": lambda text: _last_entry(text, "-0"),
    "fraction": lambda text: _last_entry(text, "1/3"),
    "blank-line": lambda text: text.replace("\n", "\n \t\n", 1),
    "crlf": lambda text: text.replace("\n", "\r\n"),
    "no-final-newline": lambda text: text[:-1],
    "middle-fraction": lambda text: _last_entry(text, "1/3", middle=True),
    "json": lambda text: "[[" + "], [".join(text.splitlines()) + "]]\n",
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _run(argv, out_file: Path, tolerances_env=None) -> dict:
    out, err = io.StringIO(), io.StringIO()
    out_file.unlink(missing_ok=True)
    env = {} if tolerances_env is None else {"PERMREALIZE_TOLERANCES": tolerances_env}
    with (
        contextlib.redirect_stdout(out),
        contextlib.redirect_stderr(err),
        mock.patch.dict(os.environ, env),
    ):
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


def _realize_runs(argv, out_file: Path) -> list:
    runs = [("default", (*argv, "--out", str(out_file)))]
    return runs + [(f, _with_format(argv, f)) for f in RERUN_FORMATS]


def fingerprint() -> dict:
    """{key: {"argv", "exit", "stdout", "stderr", "out"}} for every run."""
    records = {}

    def record(prefix, runs, workdir, out_file):
        for fmt, argv in runs:
            shown = [a.replace(workdir, "<workdir>") for a in argv]
            records[f"{prefix}:{fmt}"] = {"argv": shown, **_run(argv, out_file)}

    with tempfile.TemporaryDirectory() as workdir:
        out_file = Path(workdir) / "out.csv"
        id_csv = Path(workdir) / "id.csv"
        id_csv.write_text("1,0\n0,1\n", encoding="utf-8")
        for i, (env, argv) in enumerate(CLI_TEXT):
            argv = [str(id_csv) if a == "ID_CSV" else a for a in argv]
            shown = [a.replace(workdir, "<workdir>") for a in argv]
            if env is not None:
                shown.insert(0, f"PERMREALIZE_TOLERANCES={env}")
            records[f"cli-text:{i}"] = {"argv": shown, **_run(argv, out_file, env)}
        for i, argv in enumerate(WIDE_SPREAD):
            record(f"wide-spread:{i}", _realize_runs(argv, out_file), workdir, out_file)
        for i, args in enumerate(EXPLORE):
            realize = ("realize", *args, "--method", "explore", "--format", "json")
            runs = [("explore", ("explore", *args))] + _realize_runs(realize, out_file)
            record(f"explore:{i}", runs, workdir, out_file)
        for i, groups in enumerate(DIRECT_SUM):
            text, files = _direct_sum_files(groups, workdir, i)
            runs = [(name, ("verify", text, "--matrix", path)) for name, path in files]
            record(f"direct-sum:{i}", runs, workdir, out_file)
        for i, M in enumerate(_printed_sums()):
            for fmt, printer in PRINTERS.items():
                records[f"direct-sum:{i}:print-{fmt}"] = {
                    "argv": [printer.__name__], "exit": None,
                    "stdout": _sha(printer(M)), "stderr": None, "out": None,
                }
        for i, runs in enumerate(TIGHT):
            record(f"tight:{i}", runs.items(), workdir, out_file)
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            with tempfile.TemporaryDirectory() as workdir:
                out_file = Path(workdir) / "out.csv"
                for i, op in enumerate(workloads.make_ops(workload, seed, workdir)):
                    if op.kind == "realize":
                        runs = _realize_runs(op.argv, out_file)
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
                        runs += [(f"{name}-exact", (*argv, "--exact")) for name, argv in runs]
                    record(f"{workload}:{seed}:{i}", runs, workdir, out_file)
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
