"""Timed part of a benchmark run, in a process of its own so that its peak RSS
covers the timed commands and not the input generator.

Usage (``bench/run.py`` starts it): ``python3 bench/measure.py CONFIG.json``.
It runs one round of the workload for every ``round`` line it reads on stdin,
checks the round's outputs and answers with one JSON line; at ``done`` or end
of input it writes its findings to the result path named in the config.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import time
from pathlib import Path

import tracer as tracing
import workloads

MAX_MESSAGES = 20


def main() -> int:
    config = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    sys.path.insert(0, config["src"])
    from opmine import cli

    workload = workloads.make(config["workload"], Path(config["workdir"]), config["size"])
    reference = config["reference"]
    runner = workloads.Runner(cli)
    state = {"attempted": 0, "failed": 0, "messages": [], "first": None, "recorded": None}
    rounds: list[dict] = []
    text_ms: list[float] = []
    per_round: list = []
    last_trace = None

    def check(rnd) -> None:
        """Count the round's failed operations: against the first round, then the reference."""
        state["attempted"] += rnd.ops
        failed, messages = 0, list(rnd.errors)
        if rnd.outputs is None:
            failed = rnd.ops
        elif state["first"] is not None and rnd.outputs != state["first"]:
            failed, messages = rnd.ops, messages + ["outputs differ from the run's first round"]
        else:
            if state["first"] is None:
                state["first"] = rnd.outputs
                if reference is None:  # recording: this round becomes the reference
                    state["recorded"] = workload.to_reference(rnd.outputs)
            found, why = workload.compare(rnd.outputs, reference or state["recorded"])
            failed, messages = min(rnd.ops, found), messages + why
        state["failed"] += failed
        state["messages"].extend(messages[: MAX_MESSAGES - len(state["messages"])])

    def play(traced: bool) -> None:
        nonlocal last_trace
        if traced:
            with tracing.Tracer(workload.op_roots) as tracer:
                runner.tracer = tracer
                try:
                    rnd = workload.run_round(runner)
                finally:
                    runner.tracer = None
            last_trace = tracer.take_round()
            per_round.append(tracing.summarize(last_trace))
        else:
            rnd = workload.run_round(runner)
            text_ms.extend(rnd.text_ms)
        check(rnd)
        rounds.append({"traced": traced, "timings": rnd.timings, "round_s": rnd.round_s})

    # Closed loop driven by bench/run.py: one round per "round" line on stdin,
    # answered with one JSON line on stdout; run.py times its set-up samples
    # between rounds and decides when the run ends. A traced run alternates
    # untraced and traced rounds, so that the tracing overhead compares rounds
    # made under the same machine conditions.
    replies = sys.stdout  # the commands redirect sys.stdout, never this object
    try:
        for command in sys.stdin:
            if command.strip() != "round":
                break
            gc.collect()
            t0 = time.perf_counter()
            play(bool(config["trace"]) and len(rounds) % 2 == 1)
            replies.write(json.dumps({"length": time.perf_counter() - t0}) + "\n")
            replies.flush()
    finally:
        runner.close()

    result = {
        "opmine_file": cli.__file__,
        "rounds": rounds,
        "text_ms": text_ms,
        "attempted": state["attempted"],
        "failed": state["failed"],
        "messages": state["messages"],
        "recorded": state["recorded"],
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    if last_trace is not None:
        result["trace"] = {"per_round": per_round}
        Path(config["workdir"], "spans.json").write_text(json.dumps({
            "fields": ["name", "start", "end", "parent", "op"],
            "names": last_trace["names"], "ops": last_trace["ops"], "spans": last_trace["spans"],
        }), encoding="utf-8")
    Path(config["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
