"""Seeded input generators for the benchmark.

These copy the shapes of the test fixtures (the 958-row board task and the
random voter matrices) but live here, so edits to the tests cannot move the
benchmark.  Every generator is a pure function of its seed; the program under
test only ever sees the arrays and files made here.
"""
from __future__ import annotations

import csv

import numpy as np


def derive_seed(seed: int, tag: str) -> int:
    """A 31-bit seed for one input, derived from the run seed and a tag.

    Distinct tags give independent streams, so each workload input (and each
    ``--seed`` flag handed to the CLI) moves with the run seed alone.
    """
    words = [int(seed) & 0xFFFFFFFF] + [ord(ch) for ch in tag]
    return int(np.random.SeedSequence(words).generate_state(1)[0] & 0x7FFFFFFF)


def board_arrays(n: int, seed: int):
    """Board-game task: 9 ternary cells, positive iff player x holds at
    least 5 of them (the shape of the test suite's desk data)."""
    rng = np.random.default_rng(seed)
    cells = rng.choice(["b", "o", "x"], size=(n, 9))
    wins = (cells == "x").sum(axis=1) >= 5
    return cells, wins


def write_board_csv(path, n: int, seed: int) -> None:
    cells, wins = board_arrays(n, seed)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([f"c{i}" for i in range(9)] + ["label"])
        for row, win in zip(cells, wins):
            writer.writerow(list(row) + ["positive" if win else "negative"])


def voter_matrix(seed: int, m: int, d: int, c: int = 2, accuracy: float = 0.7):
    """(preds, labels): d voters that agree with the label with the given
    probability and otherwise guess a class uniformly."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(1, c + 1, size=m)
    preds = rng.integers(1, c + 1, size=(m, d))
    agree = rng.random((m, d)) < accuracy
    preds[agree] = np.broadcast_to(labels[:, None], (m, d))[agree]
    return preds, labels


def simplex_weights(seed: int, d: int, concentration: float) -> np.ndarray:
    """Voting weights drawn from Dirichlet(concentration, ..., concentration)."""
    return np.random.default_rng(seed).dirichlet(np.full(d, concentration))
