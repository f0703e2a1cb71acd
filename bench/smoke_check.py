"""Smoke check of the benchmark itself, on tiny inputs (well under a minute).

    python3 bench/smoke_check.py

For each workload it records a tiny reference, runs against it and checks that
every end-to-end metric is printed with its unit, runs traced and checks that
every per-layer metric is reported, then corrupts the reference and checks that
the run fails (exit code 1, ``failed`` > 0). It also checks that the benchmark
exits non-zero without a result where there is no program to measure, and that
the benchmark's generator matches ``opmine.synthetic`` while the program ships it.
Exits non-zero on the first failed check.
"""

from __future__ import annotations

import base64
import json
import shutil
import subprocess
import sys
import zlib
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work" / "smoke"
SEED = 5

# the end-to-end metrics each workload prints, with their units
PRINTED = {
    "grid": {"setup_s": "s", "round_s": "s", "grid_s": "s", "peak_rss_mb": "MB", "error_rate": "ratio"},
    "train_large": {"setup_s": "s", "round_s": "s", "train_s": "s", "peak_rss_mb": "MB", "error_rate": "ratio"},
    "classify_bulk": {
        "setup_s": "s", "round_s": "s", "bulk_posts_per_s": "posts/s", "text_latency_p50_ms": "ms",
        "text_latency_p90_ms": "ms", "text_calls": "count", "peak_rss_mb": "MB", "error_rate": "ratio",
    },
}


def run(workload: str, *extra: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    argv = [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload, "--seed", str(SEED),
            "--seconds", "1", "--size", "tiny", "--reference", str(WORK / f"{workload}.json"), *extra]
    proc = subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170, check=False)
    return proc.returncode, proc.stdout.splitlines()


def result_of(lines: list[str]) -> dict:
    return json.loads(lines[-1])


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"smoke check failed: {message}")


def corrupt(workload: str, instance: dict) -> None:
    """Change one recorded output so that a correct run must disagree with it."""
    flip = {"o": "p", "p": "n", "n": "o"}
    if workload == "grid":
        cell = instance["cells"][sorted(instance["cells"])[0]]
        cell["confusion"]["positive"]["positive"] += 1
    elif workload == "train_large":
        labels = instance["probe_labels"]
        instance["probe_labels"] = flip[labels[0]] + labels[1:]
    else:
        labels = zlib.decompress(base64.b64decode(instance["labels_zlib_b64"])).decode("ascii")
        labels = flip[labels[0]] + labels[1:]
        instance["labels_zlib_b64"] = base64.b64encode(zlib.compress(labels.encode("ascii"))).decode("ascii")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)

    for workload in PRINTED:
        code, lines = run(workload, "--record")
        check(code == 0, f"{workload}: recording exited {code}")

        code, lines = run(workload)
        check(code == 0, f"{workload}: run against its own reference exited {code}")
        printed = {parts[1]: parts[3] for parts in (line.split() for line in lines) if parts[0] == "metric"}
        for name, unit in PRINTED[workload].items():
            check(printed.get(name) == unit, f"{workload}: metric {name} not printed with unit {unit}")
        result = result_of(lines)
        check(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
              f"{workload}: result {result}")
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        check(got == end_to_end, f"{workload}: result metrics {got} != BENCHMARK.json {end_to_end}")

        code, lines = run(workload, "--trace", "1")
        check(code == 0, f"{workload}: traced run exited {code}")
        got = {k: v["unit"] for k, v in result_of(lines)["metrics"].items()}
        check(got == per_layer, f"{workload}: traced metrics differ from BENCHMARK.json per_layer")

        ref_path = WORK / f"{workload}.json"
        reference = json.loads(ref_path.read_text(encoding="utf-8"))
        for instance in reference["instances"].values():
            corrupt(workload, instance)
        ref_path.write_text(json.dumps(reference), encoding="utf-8")
        code, lines = run(workload)
        result = result_of(lines)
        check(code == 1 and not result["correct"] and result["failed"] > 0,
              f"{workload}: a wrong reference was not caught (exit {code}, {lines[-1][:200]})")
        print(f"ok {workload}")

    bare = WORK / "bare"
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    code, lines = run("grid", cwd=bare)
    check(code != 0 and not any(line.startswith("{") for line in lines),
          f"without a program the run exited {code} with {lines[-1:] or 'no output'}")
    print("ok no-program run fails")

    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    try:
        from opmine.synthetic import generate_corpus
    except ImportError:
        print("skip generator comparison: opmine.synthetic is gone")
    else:
        for n, seed, vocab in ((60, 1, 20), (300, 9, 2000)):
            ours = workloads.generate_posts(n, seed, vocab)
            theirs = [p.to_record() for p in generate_corpus(n_posts=n, seed=seed, vocab_size=vocab)]
            check(ours == theirs, f"generator differs from opmine.synthetic (n={n}, seed={seed})")
        print("ok generator matches opmine.synthetic")
    return 0


if __name__ == "__main__":
    sys.exit(main())
