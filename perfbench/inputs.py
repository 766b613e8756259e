"""Seeded input files for the `complete` and `bridges` workloads.

Every file is written from a random stream seeded by the workload and the
seed, so the same seed writes byte-identical files.  Structures are built without calling the layers
the benchmark times: V-categories by closing a random reflexive matrix under
composition, powerset structures by sampling `catalog.json` (every valid
structure on 2 points, listed once by `python3 perfbench/inputs.py
--catalog`), spaces by `FinitePreorder.from_pairs` on random generating pairs.

A job is the argument list of one `lawcat` command, run through `cli.main`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
CATALOG = os.path.join(HERE, "catalog.json")

COMPLETE_FILES = 1000
BRIDGES_SPACES = 1000
BRIDGES_QUNIFORM_REPEATS = 6
DENSITIES = (0.2, 0.4, 0.6)  # chance that an off-diagonal entry starts nonzero
GENERATING_PAIRS = 6  # a space is generated by 0..6 random pairs

# (share, monad, quantale, points) of the `complete` mix.
COMPLETE_MIX = (
    (45, "id", "plus3", 3),
    (20, "id", "c4", 3),
    (10, "ultra", "c3", 3),
    (15, "powerset", "c3", 2),
    (5, "powerset", "2", 2),
    (5, "id", "pset2", 2),
)
POWERSET_CLASSES = [(m, q, n) for _, m, q, n in COMPLETE_MIX if m == "powerset"]
LETTERS = "abcde"


def _closed_vcategory(rng, q, n, density):
    """A random reflexive matrix closed under V-composition: a V-category."""
    a = [
        [q.unit if x == y else (rng.randrange(q.n) if rng.random() < density else q.bottom)
         for y in range(n)]
        for x in range(n)
    ]
    changed = True
    while changed:
        changed = False
        for x in range(n):
            for y in range(n):
                for z in range(n):
                    v = q.join_t[a[x][z]][q.tensor[a[x][y]][a[y][z]]]
                    if v != a[x][z]:
                        a[x][z] = v
                        changed = True
    return a


def _category_text(name, monad_name, q, matrix, labels, row_labels):
    if monad_name == "id":
        lines = [f"vcat {name} over {q.name}"]
    else:
        lines = [f"tvcat {name} over {q.name} monad {monad_name}"]
    lines.append("elements: " + " ".join(labels))
    for r, row in enumerate(matrix):
        for c, v in enumerate(row):
            if v != q.bottom:
                lines.append(f"m[{row_labels[r]},{labels[c]}] = {q.labels[v]}")
    return "\n".join(lines) + "\n"


def overwrite(path, text):
    """Write `text` to `path`, reusing the blocks of an existing file.

    On an ext4 disk with online discard, deleting or emptying files stalls
    the writes that follow; rewriting a file in place and then cutting it to
    length frees none of the blocks it keeps.
    """
    with open(path, "r+" if os.path.exists(path) else "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)
        handle.truncate()


def _write(workdir, name, text):
    path = os.path.join(workdir, name)
    overwrite(path, text)
    return os.path.relpath(path)


def _cycle(rng, items):
    """Endless seeded rounds over `items`, each round in a fresh order."""
    while True:
        round_ = list(items)
        rng.shuffle(round_)
        yield from round_


def complete_jobs(seed, workdir, count=COMPLETE_FILES):
    """Write `count` valid (T,V)-category files in the `complete` mix.

    Each class gets its exact share of the files, and the draws within a
    class are stratified (densities and catalog entries taken in seeded
    rounds), so that seeds change the files but hardly the cost of a pass.
    """
    from lawcat.monad import builtin_monad
    from lawcat.quantale import builtin

    with open(CATALOG, encoding="utf-8") as handle:
        catalog = json.load(handle)
    rng = random.Random(f"complete:{seed}")
    classes = [
        (monad_name, qname, n)
        for share, monad_name, qname, n in COMPLETE_MIX
        for _ in range(math.ceil(share * count / 100))
    ]
    rng.shuffle(classes)
    del classes[count:]
    draws = {}
    jobs = []
    for i, (monad_name, qname, n) in enumerate(classes):
        key = f"{monad_name}/{qname}/{n}"
        if key not in draws:
            draws[key] = _cycle(rng, catalog[key] if monad_name == "powerset" else DENSITIES)
        q = builtin(qname)
        labels = tuple(LETTERS[:n])
        if monad_name == "powerset":
            matrix = next(draws[key])
        else:
            matrix = _closed_vcategory(rng, q, n, next(draws[key]))
        row_labels = builtin_monad(monad_name).labels(n, labels)
        name = f"c{i:04d}"
        ext = "vcat" if monad_name == "id" else "tvcat"
        text = _category_text(name, monad_name, q, matrix, labels, row_labels)
        jobs.append(["complete", _write(workdir, f"{name}.{ext}", text), "--format", "json"])
    return jobs


def _space_text(name, preorder):
    labels = LETTERS[: preorder.n]
    pairs = [
        f"{labels[x]}<={labels[y]}"
        for x in range(preorder.n)
        for y in range(preorder.n)
        if x != y and preorder.leq[x][y]
    ]
    lines = [f"space {name}", "elements: " + " ".join(labels)]
    if pairs:
        lines.append("order: " + " ".join(pairs))
    return "\n".join(lines) + "\n"


def _quniform_text(name, u):
    labels = LETTERS[: u.n]
    lines = [f"quniform {name}", "elements: " + " ".join(labels)]
    for rel in u.base:
        lines.append("rel: " + " ".join(f"{labels[x]}->{labels[y]}" for x, y in sorted(rel)))
    return "\n".join(lines) + "\n"


def bridges_jobs(seed, workdir):
    """Seeded 5-point spaces for `sober`, plus the fixed quasi-uniformities."""
    from lawcat.instances import FinitePreorder
    from lawcat.quniform import all_quniformities, curated_three_point

    rng = random.Random(f"bridges:{seed}")
    offdiag = [(x, y) for x in range(5) for y in range(5) if x != y]
    sizes = _cycle(rng, range(GENERATING_PAIRS + 1))
    jobs = []
    for i in range(BRIDGES_SPACES):
        pairs = rng.sample(offdiag, next(sizes))
        name = f"s{i:04d}"
        text = _space_text(name, FinitePreorder.from_pairs(5, pairs))
        jobs.append(["sober", _write(workdir, f"{name}.space", text), "--format", "json"])
    for i, u in enumerate(all_quniformities(2) + curated_three_point()):
        name = f"u{i:02d}"
        path = _write(workdir, f"{name}.quniform", _quniform_text(name, u))
        jobs.extend(
            ["quniform", "complete", path, "--format", "json"]
            for _ in range(BRIDGES_QUNIFORM_REPEATS)
        )
    rng.shuffle(jobs)
    return jobs


def suite_jobs(seed, workdir):
    """The battery takes no input: one job, the same for every seed."""
    return [["suite", "--format", "json"]]


WORKLOADS = {"suite": suite_jobs, "complete": complete_jobs, "bridges": bridges_jobs}


def write_catalog():
    """List every valid powerset structure used by the `complete` mix."""
    from lawcat.laxext import LaxExtension
    from lawcat.monad import builtin_monad
    from lawcat.quantale import builtin
    from lawcat.tvcat import all_tvcategories

    catalog = {}
    for monad_name, qname, n in POWERSET_CLASSES:
        ext = LaxExtension(builtin_monad(monad_name), builtin(qname))
        catalog[f"{monad_name}/{qname}/{n}"] = [
            [list(row) for row in cat.a.data] for cat in all_tvcategories(ext, n)
        ]
    with open(CATALOG, "w", encoding="utf-8") as handle:
        json.dump(catalog, handle, sort_keys=True, separators=(",", ":"))
        handle.write("\n")


if __name__ == "__main__":
    import sys

    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    parser = argparse.ArgumentParser(description="Rewrite perfbench/catalog.json.")
    parser.add_argument("--catalog", action="store_true", required=True)
    parser.parse_args()
    write_catalog()
