"""opmine benchmark: seeded inputs, timed closed-loop commands, checked outputs.

    python3 bench/run.py --workload {grid,train_large,classify_bulk} --seed N \\
        --seconds S --trace {0,1} [--size {full,tiny}] [--reference PATH] [--record]

Run from the root of a checkout that holds ``src/opmine``; the program is
imported from there, not from an installed copy. The run

1. writes the workload's seeded inputs under ``.bench_work/``;
2. starts ``bench/measure.py`` and, for ``--seconds`` (at least three rounds),
   has it run one round after the other: it calls ``opmine.cli.main`` and
   checks each round's outputs against the recorded reference
   (``bench/reference/<workload>.json``). Between rounds it sets the inputs up
   again into a spare directory; the median of all set-ups is ``setup_s``;
3. prints the environment, every end-to-end metric by name with its unit, and
   as its last line one JSON object ``{"correct", "attempted", "failed",
   "metrics"}``. With ``--trace 1`` the metrics are the per-layer ones.

It exits 1 when an output differs from the reference (after printing the
result), and 2 without a result when it cannot run at all.
``--record`` stores the outputs of this seed's instance as its reference.
See bench/README.md for the workloads, metrics and layer table.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

MIN_ROUNDS = 3          # so that every run reports a median of at least three rounds
# After a round the inputs are set up again into a spare directory until the
# set-ups so far took this share of the rounds' time. setup_s is the median of
# all set-ups, so it samples the machine throughout the run, as the rounds do.
SETUP_SHARE = 0.15
RUN_LIMIT_S = 175.0
# str hashing is randomized per process by default, and the layout of dicts and
# sets it gives moves the program's speed by up to about 20 % from process to
# process. Both processes of a run hash with this fixed seed instead.
HASH_SEED = "0"

# name, unit: the metrics of a traced run (<module>.<function>.<stat>)
PER_LAYER = [
    ("corpus.load_corpus.calls", "count"), ("corpus.load_corpus.self_s", "s"),
    ("corpus.load_corpus.posts", "count"), ("corpus.split_folds.self_s", "s"),
    ("preprocess.tokenize.calls", "count"), ("preprocess.tokenize.self_s", "s"),
    ("preprocess.remove_stop_words.self_s", "s"),
    ("preprocess.build_suffix_trie.calls", "count"), ("preprocess.build_suffix_trie.self_s", "s"),
    ("preprocess.build_suffix_trie.words", "count"),
    ("preprocess.stem_tokens.self_s", "s"), ("preprocess.stem_tokens.tokens", "count"),
    ("features.rule_adjusted_tokens.self_s", "s"),
    ("features.build_dictionary.calls", "count"), ("features.build_dictionary.self_s", "s"),
    ("features.build_dictionary.entries", "count"),
    ("features.extract_counts.calls", "count"), ("features.extract_counts.self_s", "s"),
    ("features.compute_metric.calls", "count"), ("features.compute_metric.self_s", "s"),
    ("features.compute_metric.nnz", "count"),
    ("classify.train_svm.calls", "count"), ("classify.train_svm.self_s", "s"),
    ("classify.train_svm.steps", "count"), ("classify.train_svm.dims", "count"),
    ("classify.train_svm.step_us", "us"),
    ("classify.train_nb.calls", "count"), ("classify.train_nb.self_s", "s"),
    ("classify.predict_svm.calls", "count"), ("classify.predict_svm.self_s", "s"),
    ("classify.predict_nb.calls", "count"), ("classify.predict_nb.self_s", "s"),
    ("pipeline.vectorize.calls", "count"), ("pipeline.vectorize.self_s", "s"),
    ("pipeline.vectorize.empty_ratio", "ratio"),
    ("pipeline.train_two_stage.self_s", "s"),
    ("pipeline.evaluate_fold.calls", "count"), ("pipeline.evaluate_fold.self_s", "s"),
    ("pipeline.cross_validate.self_s", "s"),
    ("pipeline.classify_post.calls", "count"), ("pipeline.classify_post.self_s", "s"),
    ("pipeline.classify_post.stage2_ratio", "ratio"),
    ("pipeline.model_to_json.self_s", "s"), ("pipeline.model_to_json.bytes", "bytes"),
    ("pipeline.load_model.calls", "count"), ("pipeline.load_model.self_s", "s"),
    ("stats.mood_by_topic.self_s", "s"), ("stats.mood_by_month.self_s", "s"),
    ("stats.emit_report.self_s", "s"),
    ("cli.main.calls", "count"), ("cli.main.self_s", "s"),
    ("ioutil.atomic_write_text.self_s", "s"), ("ioutil.atomic_write_text.bytes", "bytes"),
    ("untraced_s", "s"), ("traced_round_s", "s"), ("untraced_round_s", "s"),
    ("trace_overhead_s", "s"), ("trace_overhead_ratio", "ratio"),
]

# (per-layer stat, numerator counter, denominator counter, scale)
_RATIOS = {
    "dims": ("step_dims", "steps", 1.0),
    "step_us": ("self_s", "steps", 1e6),
    "empty_ratio": ("empty", "calls", 1.0),
    "stage2_ratio": ("stage2", "calls", 1.0),
}


def _fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def _layer_values(per_fn: dict, accounting: dict) -> dict[str, float]:
    values = {}
    for name, _ in PER_LAYER:
        if name.count(".") != 2:
            continue  # a run-level value, not <module>.<function>.<stat>
        key, stat = name.rsplit(".", 1)
        slot = per_fn.get(key, {})
        if stat in _RATIOS:
            num, den, scale = _RATIOS[stat]
            values[name] = scale * slot.get(num, 0) / slot[den] if slot.get(den) else 0.0
        else:
            values[name] = slot.get(stat, 0)
    values["untraced_s"] = accounting["untraced_s"]
    return values


def _environment(seed: int, instance: int) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), None)
    except OSError:
        pass
    import numpy

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "opmine").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "instance": instance,
        "python_hash_seed": os.environ.get("PYTHONHASHSEED"),
    }


def _git_commit() -> str | None:
    """HEAD's commit id, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _model_sizes(path: Path) -> dict:
    """Model bytes and dictionary entries per stage, as far as the model file shows them."""
    sizes: dict = {"model_bytes": path.stat().st_size}
    try:
        stages = json.loads(path.read_text(encoding="utf-8"))["stages"]
        sizes["dictionary_entries"] = {name: len(stage["dictionary"]["ngrams"])
                                       for name, stage in stages.items()}
    except (KeyError, TypeError, ValueError):
        sizes["dictionary_entries"] = None
    return sizes


def _load_reference(path: Path, workload: str, size: str, instance: int) -> dict | None:
    if not path.is_file():
        return None
    data = json.loads(path.read_text(encoding="utf-8"))
    if data.get("workload") != workload or data.get("size") != size:
        return None
    return data["instances"].get(str(instance))


def _store_reference(path: Path, workload: str, size: str, instance: int, recorded: dict) -> None:
    data = {"workload": workload, "size": size, "instances": {}}
    if path.is_file():
        data = json.loads(path.read_text(encoding="utf-8"))
    data["instances"][str(instance)] = recorded
    # one instance per line, so later re-recordings diff by instance
    lines = [
        "{",
        f' "workload": {json.dumps(workload)},',
        f' "size": {json.dumps(size)},',
        ' "instances": {',
        ",\n".join(f"  {json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
                   for k, v in sorted(data["instances"].items(), key=lambda kv: int(kv[0]))),
        " }",
        "}",
    ]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _reply(child: subprocess.Popen, timeout: float) -> dict | None:
    """The timed part's answer to one command, or None if it exited or took too long."""
    ready, _, _ = select.select([child.stdout], [], [], max(0.0, timeout))
    line = child.stdout.readline() if ready else ""
    return json.loads(line) if line else None


def _timed_setup(workload, instance: int, cli, times: list[float]) -> dict:
    t0 = time.perf_counter()
    inputs = workload.setup(instance, cli)
    times.append(time.perf_counter() - t0)
    return inputs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--reference", type=Path, help="reference file (default bench/reference/<workload>.json)")
    parser.add_argument("--record", action="store_true", help="store this instance's outputs as its reference")
    args = parser.parse_args(argv)
    started = time.perf_counter()

    src = ROOT / "src"
    if not (src / "opmine" / "cli.py").is_file():
        return _fail(f"no program to measure: {src / 'opmine'} is missing")
    sys.path.insert(0, str(src))
    from opmine import cli

    if Path(cli.__file__).resolve().parent != (src / "opmine").resolve():
        return _fail(f"imported opmine from {cli.__file__}, not from {src}")

    instance = args.seed % workloads.N_INSTANCES
    ref_path = args.reference or BENCH / "reference" / f"{args.workload}.json"
    reference = None
    if not args.record:
        reference = _load_reference(ref_path, args.workload, args.size, instance)
        if reference is None:
            return _fail(f"{ref_path} has no {args.size} reference for instance {instance}")

    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.size}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    workload = workloads.make(args.workload, workdir, args.size)
    setup_times: list[float] = []
    inputs = _timed_setup(workload, instance, cli, setup_times)
    (workdir / "setup-again").mkdir()
    spare = workloads.make(args.workload, workdir / "setup-again", args.size)

    config_path, result_path = workdir / "measure.json", workdir / "result.json"
    config_path.write_text(json.dumps({
        "workload": args.workload, "size": args.size, "workdir": str(workdir), "src": str(src),
        "trace": args.trace, "reference": reference, "result": str(result_path),
    }), encoding="utf-8")
    child = subprocess.Popen([sys.executable, str(BENCH / "measure.py"), str(config_path)],
                             stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    try:
        window_start = time.perf_counter()
        iterations: list[float] = []  # a round and the set-ups after it
        lengths: list[float] = []     # the rounds alone
        min_rounds = 2 if args.trace else MIN_ROUNDS
        while True:
            t0 = time.perf_counter()
            child.stdin.write("round\n")
            child.stdin.flush()
            reply = _reply(child, RUN_LIMIT_S - (time.perf_counter() - started))
            if reply is None:
                return _fail("the timed part did not answer in time or exited")
            lengths.append(reply["length"])
            while sum(setup_times) < SETUP_SHARE * sum(lengths):
                _timed_setup(spare, instance, cli, setup_times)
            iterations.append(time.perf_counter() - t0)
            elapsed = time.perf_counter() - window_start
            # stop when another round would run past --seconds by more than half of it
            if len(iterations) >= min_rounds and elapsed + statistics.median(iterations) / 2 > args.seconds:
                break
        child.stdin.write("done\n")
        child.stdin.close()
        child.wait(timeout=max(1.0, RUN_LIMIT_S - (time.perf_counter() - started)))
    except (OSError, subprocess.TimeoutExpired) as exc:
        return _fail(f"the timed part failed: {exc}")
    finally:
        if child.poll() is None:
            child.kill()
        child.wait()
        for pipe in (child.stdin, child.stdout):
            if not pipe.closed:
                pipe.close()
    if child.returncode != 0 or not result_path.is_file():
        return _fail(f"the timed part exited with {child.returncode}")
    result = json.loads(result_path.read_text(encoding="utf-8"))

    if (workdir / "model.json").is_file():  # written by set-up or by the timed trains
        inputs.update(_model_sizes(workdir / "model.json"))
    env = _environment(args.seed, instance)
    env["inputs"] = inputs
    print("env " + json.dumps(env, sort_keys=True))
    for message in result["messages"]:
        print(f"mismatch: {message}")

    attempted, failed = result["attempted"], result["failed"]
    rounds = [r for r in result["rounds"] if not r["traced"]]
    report = _end_to_end(args.workload, workload, rounds, result, setup_times)
    report["error_rate"] = (failed / attempted if attempted else 1.0, "ratio")
    for name, (value, unit) in report.items():
        print(f"metric {name} {value!r} {unit}")

    if args.trace:
        metrics, ok = _per_layer(result, rounds)
        if not ok:
            failed = max(failed, 1)
    else:
        metrics = {name: {"value": report[name][0], "unit": report[name][1]}
                   for name in ("setup_s", "round_s", "peak_rss_mb")}
    (workdir / "report.json").write_text(json.dumps(
        {"env": env, "report": report, "metrics": metrics, "messages": result["messages"],
         "setup_times": setup_times, "rounds": result["rounds"]}, indent=1, sort_keys=True),
        encoding="utf-8")

    if args.record and failed == 0:
        _store_reference(ref_path, args.workload, args.size, instance, result["recorded"])
        print(f"recorded instance {instance} in {ref_path}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


def _end_to_end(name: str, workload, rounds: list[dict], result: dict, setup_times: list) -> dict:
    """Every end-to-end metric of this workload: name -> (value, unit)."""
    med = statistics.median
    report = {
        "setup_s": (med(setup_times), "s"),
        "round_s": (med([r["round_s"] for r in rounds]), "s"),
        "rounds": (len(rounds), "count"),
    }
    if name == "grid":
        report["grid_s"] = (med([r["timings"]["grid_s"] for r in rounds]), "s")
    elif name == "train_large":
        report["train_s"] = (med([r["timings"]["train_s"] for r in rounds]), "s")
    else:
        bulk = med([r["timings"]["classify_s"] + r["timings"]["stats_topic_s"]
                    + r["timings"]["stats_month_s"] for r in rounds])
        report["bulk_posts_per_s"] = (workload.size["query_posts"] / bulk, "posts/s")
        report["text_latency_p50_ms"] = (workloads.percentile(result["text_ms"], 50), "ms")
        report["text_latency_p90_ms"] = (workloads.percentile(result["text_ms"], 90), "ms")
        report["text_calls"] = (len(result["text_ms"]), "count")
    report["peak_rss_mb"] = (result["peak_rss_mb"], "MB")
    return report


def _per_layer(result: dict, untraced_rounds: list[dict]) -> tuple[dict, bool]:
    """Per-layer metrics (median over traced rounds) and whether the accounting closes."""
    per_round = result["trace"]["per_round"]
    traced = [r["round_s"] for r in result["rounds"] if r["traced"]]
    samples = [_layer_values(per_fn, acc) for per_fn, acc in per_round]
    values = {name: statistics.median([s[name] for s in samples]) for name in samples[0]}
    untraced_s = statistics.median([r["round_s"] for r in untraced_rounds])
    values["traced_round_s"] = statistics.median(traced)
    values["untraced_round_s"] = untraced_s
    values["trace_overhead_s"] = values["traced_round_s"] - untraced_s
    values["trace_overhead_ratio"] = values["trace_overhead_s"] / untraced_s
    ok = True
    for per_fn, acc in per_round:
        closure = abs(acc["wall_s"] - acc["self_s"] - acc["untraced_s"])
        print(f"trace ops {acc['ops']} wall_s {acc['wall_s']!r} self_s {acc['self_s']!r} "
              f"untraced_s {acc['untraced_s']!r} min_op_untraced_s {acc['min_op_untraced_s']!r}")
        if closure > 1e-6 or acc["min_op_untraced_s"] < -1e-6:
            print("mismatch: span self times do not add up to the operations' wall time")
            ok = False
    top = sorted(((k, v) for k, v in values.items() if k.endswith(".self_s")), key=lambda kv: -kv[1])
    for name, value in top[:8]:
        print(f"layer {name} {value!r} s")
    units = dict(PER_LAYER)
    return {name: {"value": values[name], "unit": units[name]} for name, _ in PER_LAYER}, ok


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.exit(main())
