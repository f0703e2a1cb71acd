#!/usr/bin/env python3
"""End-to-end demo on a synthetic corpus: experiment grids, a trained model,
classification of the whole corpus, and the mood-by-topic/month reports.

Everything lands in --out-dir; rerunning with the same seed reproduces every
file byte-for-byte.
"""

import argparse
import sys
from collections import Counter
from pathlib import Path

from opmine.cli import main as opmine
from opmine.corpus import save_corpus
from opmine.pipeline import GRID_NAMES
from opmine.preprocess import tokenize
from opmine.synthetic import EMPHASIZER_WORDS, NEGATORY_WORDS, generate_corpus


def run(args: list[str]) -> None:
    print(f"$ opmine {' '.join(args)}", file=sys.stderr)
    rc = opmine(args)
    if rc != 0:
        sys.exit(rc)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", type=Path, default=Path("demo-out"))
    parser.add_argument("--n-posts", type=int, default=300)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--grids", nargs="+", choices=GRID_NAMES, default=["table1", "table3", "table4"])
    args = parser.parse_args()

    out = args.out_dir
    out.mkdir(parents=True, exist_ok=True)
    corpus_path = out / "corpus.jsonl"
    corpus = generate_corpus(n_posts=args.n_posts, seed=args.seed)
    save_corpus(corpus, corpus_path)
    neg = out / "negatory.txt"
    emp = out / "emphasizers.txt"
    neg.write_text("\n".join(sorted(NEGATORY_WORDS)) + "\n", encoding="utf-8")
    emp.write_text("\n".join(sorted(EMPHASIZER_WORDS)) + "\n", encoding="utf-8")
    # table2's stop list: the corpus's 3 most frequent tokens that are not rule words
    stop = out / "stop_words.txt"
    freq = Counter(t for post in corpus for t in tokenize(post.text))
    common = [w for w, _ in freq.most_common() if w not in NEGATORY_WORDS | EMPHASIZER_WORDS]
    stop.write_text("\n".join(common[:3]) + "\n", encoding="utf-8")

    for grid in args.grids:
        grid_args = [
            "evaluate", str(corpus_path), "--grid", grid,
            "--seed", str(args.seed), "--out", str(out / grid),
        ]
        if grid == "table2":
            grid_args += ["--stop-words", str(stop)]
        if grid == "table3":
            # at the default min_count of 5 its bigrams-only rows keep no n-gram
            grid_args += ["--min-count", "2"]
        if grid == "table4":
            grid_args += ["--rules", f"neg={neg},emp={emp}"]
        run(grid_args)

    model = out / "model.json"
    run(["train", str(corpus_path), "--out", str(model), "--seed", str(args.seed)])

    classified = out / "classified.jsonl"
    print(f"$ opmine classify --model {model} --input {corpus_path} > {classified}", file=sys.stderr)
    import contextlib
    import io

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        rc = opmine(["classify", "--model", str(model), "--input", str(corpus_path)])
    if rc != 0:
        sys.exit(rc)
    classified.write_text(buffer.getvalue(), encoding="utf-8")

    run(["stats", str(classified), "--by", "topic", "--format", "csv",
         "--out", str(out / "mood_by_topic.csv")])
    run(["stats", str(classified), "--by", "month", "--format", "csv",
         "--out", str(out / "mood_by_month.csv")])
    print(f"demo artifacts in {out}/", file=sys.stderr)


if __name__ == "__main__":
    main()
