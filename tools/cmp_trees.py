"""Run one small pipeline from two source trees and compare what they wrote.

    python tools/cmp_trees.py TREE_A TREE_B [--work DIR]

Each tree is a checkout of this repository (``TREE/src/textboost``). The
pipeline runs once from each, in child processes at ``OPENBLAS_NUM_THREADS=1``
and at the same paths (``DIR/run``, moved to ``DIR/a`` and ``DIR/b`` after
each tree), because run dirs record their paths:

* ``gen-data --seed 99`` with 400 training rows, and from its training and
  dev rows a sentence-pair train and dev TSV (``pair_rows``), whose
  ``text_b`` is whole, cut or cut away at ``max_seq_len``;
* ``train-boost`` with a transformer, a softreg and a weight-sharing config,
  then the softreg one again, warm: into the same out root, so every part
  of its run, the step log and the round log too, is read back from the
  store, and its run dir and record are made from what was read;
* ``train-bag`` with the transformer config;
* ``fusion --depth 2`` on the transformer boost dir and on the bag dir;
* ``fusion`` on the transformer boost dir at its own config, whose head
  comes from the store;
* ``distill`` of each boost dir, and of the bag dir, which has no fusion
  head, so its student learns the bag's soft vote;
* ``compare --axes init_strategy,fraction --fractions 0.5,1.0``;
* ``eval`` of every dir that holds a model, on the dev set, and ``eval --vote
  discrete`` of the transformer boost dir on the training set (a report
  of its own, ``eval_train_discrete.json``);
* ``train-boost`` with the transformer config on the sentence pairs, whose
  second segment no other command reaches, and its ``eval`` on the pair
  dev set.

The stages' entries sit under ``out/store/<source12>/``, a dir per version of
the textboost source, each a ``<stage>_<key16>/`` dir of files under their
run-dir names; a run dir's trained files are links to them. Run dirs are
paired by their order in ``metrics.jsonl``, so the files of a renamed dir
are still compared (its records differ, as they name it). Every other file
or dir is paired by its path, or else by its name with every run of 12 or
more hex digits masked (the store dir of another source, or an entry whose
key changed): when that name is unique on both sides, or else with an entry
of that name that holds the same bytes. Records (``metrics.json`` and the lines of
``metrics.jsonl``) are compared as JSON without ``wall_time_s`` and
``timing``; every other file byte for byte.

Prints every paired file that differs, every file that only one tree has,
and every pair of names that only their masked hex runs paired (an entry
whose key changed; the ``store/<source12>`` dirs, which differ with every
change of the source, are not listed), then ``src lines: A -> B``, the line
count of ``src/textboost/**/*.py`` in each tree (``wc -l``'s total), and
last each command's peak RSS on both sides, ``A -> B`` in MB, read with
``os.wait4``. Exits 1 when a paired file differs or B lacks a file that A
has, 2 when a command of the pipeline fails, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

CONFIG = {
    "seed": 13,
    "encoder": {"d_model": 16, "n_layers": 1, "n_heads": 2, "d_ffn": 32,
                "max_seq_len": 24, "dropout_rate": 0.1},
    "boost": {"rounds": 3, "init_strategy": "incremental", "sharing_mode": "privacy",
              "vote": "soft"},
    "train": {"lr": 2e-3, "batch_size": 32, "epochs": 2},
    "pretrain": {"steps": 150},
    "fusion": {"depth": 1, "max_epochs": 4, "patience": 2},
    "distill": {"total_steps": 30},
    "bag": {"learning_rates": [5e-4, 1e-3]},
}
VARIANTS = {
    "transformer": {},
    "softreg": {"learner": "softreg", "boost": {**CONFIG["boost"], "init_strategy": "random"}},
    "sharing": {"boost": {**CONFIG["boost"], "sharing_mode": "sharing"}},
}
PAIR = {"train_path": "pair_train.tsv", "dev_path": "pair_dev.tsv"}
TASK_FILES = {"train_path": "train.tsv", "dev_path": "dev.tsv", "corpus_path": "corpus.txt"}
VOLATILE = ("wall_time_s", "timing")
HEX = re.compile(r"[0-9a-f]{12,}")


class PipelineError(RuntimeError):
    pass


def pair_rows(rows: list[list[str]]) -> list[list[str]]:
    """Sentence pairs of ``label, text`` rows: each keeps its label and text
    and takes the following texts (cyclically) as ``text_b``, in turn one
    text, two texts, and one text after a ``text_a`` of three texts. At
    ``max_seq_len`` 24 and 7 to 13 tokens a text, the second kind's
    ``text_b`` is cut and the third kind's is cut away."""
    texts = [text for _, text in rows]
    out = []
    for i, (label, text) in enumerate(rows):
        nxt = [texts[(i + j) % len(texts)] for j in (1, 2, 3)]
        a, b = [(text, nxt[0]), (text, " ".join(nxt[:2])),
                (" ".join([text, *nxt[:2]]), nxt[2])][i % 3]
        out.append([label, a, b])
    return out


def run_command(argv: list[str], env: dict) -> tuple[int, str, float]:
    """Run one command to completion: (its exit code, its standard error, its
    peak RSS in MB). The peak is ``os.wait4``'s ``ru_maxrss``. The child
    starts by vfork and exec, which fold this process's high-water mark into
    the child's, and this tool is a small process, so the peak is the
    command's own."""
    with tempfile.TemporaryFile() as err:
        proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child running
            proc.kill()
            proc.wait()
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        return (proc.returncode, err.read().decode("utf-8", "replace"),
                usage.ru_maxrss / 1024.0)  # ru_maxrss is in KiB on Linux


def run_pipeline(tree: Path, run: Path) -> list[tuple[str, float]]:
    """The pipeline from ``tree``'s sources, into ``run``: each command, its
    paths under ``run`` given relative to it, with its peak RSS in MB."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": str((tree / "src").resolve())}
    out, task = run / "out", run / "task"
    peaks: list[tuple[str, float]] = []

    def cli(*args: str) -> str:
        """Run one command; the run_id of the record it appended, if any."""
        code, stderr, peak_mb = run_command(
            [sys.executable, "-m", "textboost.cli", *args], env)
        if code != 0:
            raise PipelineError(f"{tree}: textboost {' '.join(args)} exited "
                                f"{code}: {stderr.strip()}")
        peaks.append((" ".join(args).replace(f"{run}/", ""), peak_mb))
        metrics = out / "metrics.jsonl"
        if not metrics.exists():
            return ""
        return json.loads(metrics.read_text().splitlines()[-1])["run_id"]

    cli("gen-data", "--out", str(task), "--seed", "99", "--train-size", "400",
        "--dev-size", "120", "--corpus-size", "800")
    for split in ("train", "dev"):
        rows = [line.split("\t") for line in (task / f"{split}.tsv").read_text().splitlines()]
        (task / f"pair_{split}.tsv").write_text("".join(
            "\t".join(row) + "\n" for row in pair_rows(rows)), encoding="utf-8")
    configs = {}
    for name, extra in {**VARIANTS, "pair": PAIR}.items():
        cfg = {**CONFIG, **TASK_FILES, **extra, "out_dir": str(out)}
        cfg.update({key: str(task / cfg[key]) for key in TASK_FILES})
        configs[name] = run / f"{name}.json"
        configs[name].write_text(json.dumps(cfg, indent=2), encoding="utf-8")
    boosts = [cli("train-boost", "--config", str(configs[name])) for name in VARIANTS]
    cli("train-boost", "--config", str(configs["softreg"]))  # warm: read back from the store
    bag = cli("train-bag", "--config", str(configs["transformer"]))
    models = [*boosts, bag]
    models += [cli("fusion", "--run-dir", str(out / d), "--depth", "2") for d in (boosts[0], bag)]
    models.append(cli("fusion", "--run-dir", str(out / boosts[0])))
    models += [cli("distill", "--teacher-dir", str(out / d)) for d in (*boosts, bag)]
    cli("compare", "--config", str(configs["transformer"]), "--axes", "init_strategy,fraction",
        "--fractions", "0.5,1.0")
    for d in models:
        cli("eval", "--model-dir", str(out / d), "--data", str(task / "dev.tsv"))
    cli("eval", "--model-dir", str(out / boosts[0]), "--data", str(task / "train.tsv"),
        "--vote", "discrete")
    pair = cli("train-boost", "--config", str(configs["pair"]))
    cli("eval", "--model-dir", str(out / pair), "--data", str(task / "pair_dev.tsv"))
    return peaks


def src_lines(tree: Path) -> int:
    """The newlines in the tree's ``src/textboost/**/*.py``, as ``wc -l`` counts them."""
    return sum(f.read_bytes().count(b"\n") for f in (tree / "src" / "textboost").rglob("*.py"))


def _record(line: str) -> dict:
    return {k: v for k, v in json.loads(line).items() if k not in VOLATILE}


def _same(a: Path, b: Path) -> bool:
    if a.name in ("metrics.json", "metrics.jsonl"):
        lines_a, lines_b = a.read_text().splitlines(), b.read_text().splitlines()
        return len(lines_a) == len(lines_b) and all(
            _record(x) == _record(y) for x, y in zip(lines_a, lines_b))
    return a.read_bytes() == b.read_bytes()


def _contents(path: Path) -> dict:
    """The bytes of a file, or of every file under a dir by relative path."""
    if path.is_file():
        return {"": path.read_bytes()}
    return {str(f.relative_to(path)): f.read_bytes() for f in path.rglob("*") if f.is_file()}


def _pair_names(dir_a: Path, dir_b: Path, names_a: set[str],
                names_b: set[str]) -> list[tuple[str | None, str | None]]:
    """Equal names of the two dirs, then names equal with their hex runs
    masked when unique on both sides, or else when their contents are equal,
    then the rest unpaired."""
    pairs = [(n, n) for n in sorted(names_a & names_b)]
    rest_a, rest_b = names_a - names_b, names_b - names_a
    masked_a, masked_b = {}, {}
    for rest, masked in ((rest_a, masked_a), (rest_b, masked_b)):
        for n in rest:
            masked.setdefault(HEX.sub("#", n), []).append(n)
    for m, (na,) in ((m, v) for m, v in masked_a.items() if len(v) == 1):
        if len(masked_b.get(m, ())) == 1:
            nb = masked_b[m][0]
            pairs.append((na, nb))
            rest_a.discard(na)
            rest_b.discard(nb)
    for na in sorted(rest_a):
        nb = next((nb for nb in sorted(rest_b) if HEX.sub("#", nb) == HEX.sub("#", na)
                   and _contents(dir_a / na) == _contents(dir_b / nb)), None)
        if nb is not None:
            pairs.append((na, nb))
            rest_a.discard(na)
            rest_b.discard(nb)
    return pairs + [(n, None) for n in sorted(rest_a)] + [(None, n) for n in sorted(rest_b)]


def compare(root_a: Path, root_b: Path
            ) -> tuple[list[str], list[str], list[str], list[str], int]:
    """(differing pairs, files only in A, files only in B, pairs of names
    paired by their masked hex runs, identical pairs)."""
    differ, only_a, only_b, rekeyed, same = [], [], [], [], 0
    pairs: list[tuple[Path | None, Path | None]] = []

    def pair(a: Path, b: Path, names_a: set[str], names_b: set[str]) -> None:
        for na, nb in _pair_names(a, b, names_a, names_b):
            if na and nb and na != nb and a != root_a / "out" / "store":
                rekeyed.append(f"{(a / na).relative_to(root_a)} -> "
                               f"{(b / nb).relative_to(root_b)}")
            walk(a / na if na else None, b / nb if nb else None)

    def walk(a: Path | None, b: Path | None) -> None:
        if a is not None and b is not None and a.is_dir() and b.is_dir():
            pair(a, b, {p.name for p in a.iterdir()}, {p.name for p in b.iterdir()})
        else:
            pairs.append((a, b))

    runs = []
    for root in (root_a, root_b):
        metrics = root / "out" / "metrics.jsonl"
        runs.append([json.loads(l)["run_id"] for l in metrics.read_text().splitlines()])
    for ra, rb in zip(*runs):
        walk(root_a / "out" / ra, root_b / "out" / rb)
    paired_runs = ({*runs[0][:len(runs[1])]}, {*runs[1][:len(runs[0])]})
    for sub in ("task", "out"):
        a, b = root_a / sub, root_b / sub
        pair(a, b, {p.name for p in a.iterdir()} - paired_runs[0],
             {p.name for p in b.iterdir()} - paired_runs[1])

    for a, b in pairs:
        files_a = sorted(a.rglob("*")) if a is not None and a.is_dir() else [a]
        files_b = sorted(b.rglob("*")) if b is not None and b.is_dir() else [b]
        if a is None or b is None or a.is_dir() != b.is_dir():
            only_a += [str(f.relative_to(root_a)) for f in files_a if f is not None and f.is_file()]
            only_b += [str(f.relative_to(root_b)) for f in files_b if f is not None and f.is_file()]
        elif _same(a, b):
            same += 1
        else:
            differ.append(f"{a.relative_to(root_a)} <> {b.relative_to(root_b)}")
    return differ, only_a, only_b, sorted(rekeyed), same


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree_a", type=Path)
    parser.add_argument("tree_b", type=Path)
    parser.add_argument("--work", type=Path, default=None,
                        help="an empty or new dir for both pipelines (default: a temporary dir)")
    args = parser.parse_args(argv)
    work = args.work or Path(tempfile.mkdtemp(prefix="cmp_trees_"))
    work.mkdir(parents=True, exist_ok=True)
    for tree in (args.tree_a, args.tree_b):
        if not (tree / "src" / "textboost" / "cli.py").is_file():
            print(f"error: no textboost sources under {tree}", file=sys.stderr)
            return 2
    peaks = []
    for side, tree in (("a", args.tree_a), ("b", args.tree_b)):
        shutil.rmtree(work / "run", ignore_errors=True)
        try:
            peaks.append(run_pipeline(tree, work / "run"))
        except PipelineError as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
        shutil.rmtree(work / side, ignore_errors=True)
        (work / "run").rename(work / side)
    differ, only_a, only_b, rekeyed, same = compare(work / "a", work / "b")
    for title, items in (("differ", differ), ("only in A", only_a), ("only in B", only_b),
                         ("rekeyed", rekeyed)):
        print(f"{title}: {len(items)}")
        for item in items:
            print(f"  {item}")
    print(f"identical: {same} paired files (outputs in {work})")
    print(f"src lines: {src_lines(args.tree_a)} -> {src_lines(args.tree_b)}")
    print("peak RSS (MB), A -> B:")
    for (command, mb_a), (_, mb_b) in zip(*peaks):
        print(f"  {mb_a:.1f} -> {mb_b:.1f}  {command}")
    return 1 if differ or only_a else 0


if __name__ == "__main__":
    sys.exit(main())
