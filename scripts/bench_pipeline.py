"""Wall time and peak memory of the morekg console commands, end to end.

Runs the seeded pipeline, each command as its own child process:
``gen-fixture``, ``build --materialize``, ``query`` CQ1 and CQ2 (CSV), and
``redact --role public`` to ``.nt`` and to ``.ttl``.  From the repository
root:

    python3 scripts/bench_pipeline.py --out BENCH_2.json
    python3 scripts/bench_pipeline.py --src ../parent/src --out BENCH_1.json

A command's wall time is taken around its child, and its peak RSS is the
``ru_maxrss`` of the rusage that ``os.wait4`` returns for that child alone
(``RUSAGE_CHILDREN`` would give the largest of all children so far).
``--src`` names the ``src`` directory whose ``morekg`` runs, so one script
measures two checkouts with the same settings.  Each command's output is
recorded by size and SHA-256, so two records show whether the bytes
changed.  The record also holds the git SHA of ``--src`` (and whether its
tree had uncommitted changes), the Python version and the CPU count.

The exit status is 1 if a command failed; the record then ends with it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED, ITEMS = 42, 2  # the bundle of the acceptance gate's 10,000-participant pipeline

# Query files are written from the checkout's own CQ texts, untimed.
_WRITE_QUERIES = ("from morekg.cq import CQ1_QUERY, CQ2_QUERY\n"
                  "open('cq1.rq', 'w').write(CQ1_QUERY)\n"
                  "open('cq2.rq', 'w').write(CQ2_QUERY)\n")


def pipeline(participants: int) -> list[tuple[str, list[str], str]]:
    """(name, morekg arguments, output file) per command, in order; paths
    are relative to the working directory, and a query writes its CSV to
    standard output."""
    return [
        ("gen-fixture", ["gen-fixture", "bundle", "--seed", str(SEED),
                         "--participants", str(participants), "--items", str(ITEMS)], ""),
        ("build --materialize", ["build", "bundle", "--materialize", "-o", "kg.nt"], "kg.nt"),
        ("query cq1", ["query", "kg.nt", "cq1.rq", "--format", "csv"], "cq1.csv"),
        ("query cq2", ["query", "kg.nt", "cq2.rq", "--format", "csv"], "cq2.csv"),
        ("redact public .nt", ["redact", "kg.nt", "--role", "public", "-o", "public.nt"],
         "public.nt"),
        ("redact public .ttl", ["redact", "kg.nt", "--role", "public", "-o", "public.ttl"],
         "public.ttl"),
    ]


def run_child(argv: list[str], cwd: Path, env: dict, stdout_path: Path) -> dict:
    """Run ``argv`` to completion; its exit code, wall time and peak RSS."""
    with open(stdout_path, "wb") as out, open(cwd / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4
    return {"returncode": proc.returncode, "wall_s": round(wall, 4),
            # Linux reports ru_maxrss in KiB
            "peak_rss_mb": round(usage.ru_maxrss / 1024, 1)}


def _shown(args: list[str]) -> str:
    return " ".join(["morekg", *args])


def _digest(path: Path) -> dict:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return {"bytes": path.stat().st_size, "sha256": h.hexdigest()}


def _git(src: Path, *args: str) -> str | None:
    try:
        return subprocess.run(["git", "-C", str(src), *args], capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def measure(src: Path, participants: int, runs: int) -> dict:
    status = _git(src, "status", "--porcelain", "--", ".")
    record = {
        "git_sha": _git(src, "rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "participants": participants, "items": ITEMS, "seed": SEED, "runs": runs,
        "commands": [],
    }
    env = dict(os.environ, PYTHONPATH=str(src.resolve()))
    with tempfile.TemporaryDirectory(prefix="bench_pipeline_") as tmp:
        work = Path(tmp)
        subprocess.run([sys.executable, "-c", _WRITE_QUERIES], cwd=work, env=env, check=True)
        samples: dict[str, list[dict]] = {}
        for _ in range(runs):
            for name, args, output in pipeline(participants):
                out = work / (output if output.endswith(".csv") else "stdout.txt")
                sample = run_child([sys.executable, "-m", "morekg.cli", *args], work, env, out)
                samples.setdefault(name, []).append(sample)
                if sample["returncode"] != 0:
                    sys.stderr.write((work / "stderr.txt").read_text(errors="replace"))
                    record["commands"].append({"name": name, "command": _shown(args),
                                               **sample})
                    return record
        for name, args, output in pipeline(participants):
            runs_of = samples[name]
            wall = [r["wall_s"] for r in runs_of]
            rss = [r["peak_rss_mb"] for r in runs_of]
            record["commands"].append({
                "name": name, "command": _shown(args), "returncode": 0,
                "wall_s": wall, "wall_s_median": round(statistics.median(wall), 4),
                "peak_rss_mb": rss, "peak_rss_mb_median": round(statistics.median(rss), 1),
                "output": {"file": output, **_digest(work / output)} if output else None,
            })
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--participants", type=int, default=10_000)
    parser.add_argument("--runs", type=int, default=1,
                        help="times the whole pipeline runs; each command's samples "
                             "and median are recorded")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="the src directory whose morekg runs (default: this checkout's)")
    parser.add_argument("--out", type=Path, help="write the JSON record here, not to stdout")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be 1 or more")
    if not (args.src / "morekg" / "cli.py").is_file():
        parser.error("no morekg/cli.py under --src %s" % args.src)
    record = measure(args.src, args.participants, args.runs)
    text = json.dumps(record, indent=2) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text, encoding="utf-8")
    return 0 if all(c["returncode"] == 0 for c in record["commands"]) else 1


if __name__ == "__main__":
    sys.exit(main())
