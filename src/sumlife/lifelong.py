"""Incremental training over a snapshot sequence and the transfer measures.

Tasks run strictly in order.  Warm restarts grow the previous checkpoint to
the new vocabulary widths; cold restarts reinitialize at those widths.  After
each task the frozen checkpoint is evaluated on every task's test split,
including future ones, filling one row of the T x T result matrix that all
measures are computed from.  Test vertices whose class the network has never
seen count as errors, and their fraction is reported separately.

A task's graph holds each edge's feature column in place of its predicate,
in V + E memory, and no vocabulary width: the batches that sampling and
evaluation build carry their vertices' columns, and each network writes the
rows at its own input width.  Snapshots are prepared one at a time as they
are drawn, and a task keeps its snapshot's CSR arrays but not its term
table, so a run holds one term table at a time.

Per-task randomness derives from (run seed, task index), so extending a
sequence never perturbs earlier tasks' batches.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from .errors import NumericalError, TrainingDivergence
from .features import (
    TEST,
    ClassVocabulary,
    PredicateVocabulary,
    encode_features,
    extend_vocabularies,
    split_vertices,
)
from .ingest import SnapshotGraph
from .nets import Hyper, Network
from .nets.ops import assert_finite
from .sampling import receptive_field, sample_batch, target_distribution
from .summarize import MODEL_HOPS, vertex_hashes


@dataclass
class Task:
    """One snapshot of the sequence.  ``graph`` is the snapshot's CSR arrays,
    with no term table and each edge's feature column as its ``edge_pred``
    (``SnapshotGraph.without_terms``): what sampling and evaluation read."""

    index: int
    timestamp: str
    graph: SnapshotGraph
    labels: np.ndarray  # global class index per vertex position
    split: np.ndarray
    pred_width: int  # vocabulary widths once this task is reached
    class_width: int


@dataclass
class TaskSequence:
    tasks: list[Task]
    pred_vocab: PredicateVocabulary
    class_vocab: ClassVocabulary
    model: str

    def __len__(self) -> int:
        return len(self.tasks)


def strictly_increasing(timestamps: list[str]) -> bool:
    """Whether snapshot labels are in task order: sorted, none repeated."""
    return all(a < b for a, b in zip(timestamps, timestamps[1:]))


def prepare_tasks(
    snapshots: Iterable[tuple[str, SnapshotGraph]],
    model: str,
    seed: int,
    pred_vocab: PredicateVocabulary | None = None,
    class_vocab: ClassVocabulary | None = None,
) -> TaskSequence:
    """Turn each (timestamp, snapshot) into a task as it is drawn from
    ``snapshots``, which may be a generator: summarize it, grow the
    vocabularies, then attach its labels, split and per-edge feature columns.

    Vocabulary indices are append-only, so a task's columns are final when it
    is prepared.  A task keeps the snapshot's CSR arrays but not its term
    table, and this function lets go of each snapshot before it draws the
    next.  Timestamps must be strictly increasing: ValueError at the first
    one that is not."""
    pv = pred_vocab if pred_vocab is not None else PredicateVocabulary()
    cv = class_vocab if class_vocab is not None else ClassVocabulary()
    tasks: list[Task] = []
    for timestamp, g in snapshots:
        if tasks and not tasks[-1].timestamp < timestamp:
            raise ValueError("snapshot timestamps must be strictly increasing")
        classes, inverse = np.unique(vertex_hashes(g, model), return_inverse=True)
        extend_vocabularies(g, classes, pv, cv)
        labels = np.array([cv.index(h) for h in classes.tolist()], dtype=np.int64)[inverse]
        tasks.append(
            Task(
                index=len(tasks),
                timestamp=timestamp,
                graph=g.without_terms(encode_features(g, pv)),
                labels=labels,
                split=split_vertices(g, seed),
                pred_width=pv.width,
                class_width=cv.width,
            )
        )
        del g  # the term table goes before the next snapshot is drawn
    return TaskSequence(tasks=tasks, pred_vocab=pv, class_vocab=cv, model=model)


def _task_rng(seed: int, task_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(task_index,)))


def evaluate_network(net: Network, task: Task, which: int = TEST) -> tuple[float, float]:
    """(accuracy, unseen-class fraction) on one split of a task.

    Unseen classes (index at or above the network's output width) cannot be
    predicted and count as errors.  Every network runs on one batch: the
    split rows' receptive field, ``net.receptive_hops`` out in the snapshot
    (the rows alone for a feature-only network), read as the network reads
    its training batches.  Logits are computed for the split rows only.
    Message passing gives those rows the same sums as a pass over every
    vertex; the BLAS products can round a row subset otherwise (in float32,
    measured from inner widths of 32 on, at any output width; see README
    "Determinism"), so logits may differ in their last bits, while
    predictions have matched.  Non-finite logits, which only a diverged
    network gives, raise ``NumericalError``.
    """
    rows = np.flatnonzero(task.split == which)
    if len(rows) == 0:
        return 0.0, 0.0
    labels = task.labels[rows]
    unseen = labels >= net.n_classes
    batch = receptive_field(task.graph, task.labels, rows, net.receptive_hops)
    logits = net.batch_logits(batch, batch.target_idx)
    assert_finite(f"the logits of task {task.index}", logits)
    pred = np.argmax(logits, axis=1)
    correct = (pred == labels) & ~unseen
    return float(correct.mean()), float(unseen.mean())


def _train_on_task(
    net: Network,
    task: Task,
    seq: TaskSequence,
    iterations: int,
    batch_cap: int,
    rng: np.random.Generator,
) -> list[float]:
    """Run the per-task iterations; returns the training loss of each."""
    adam = net.new_adam()
    k = MODEL_HOPS[seq.model]
    distribution = target_distribution(task.labels, task.split)
    losses = []
    for step in range(iterations):
        batch = sample_batch(task.graph, task.labels, distribution, k, cap=batch_cap, rng=rng)
        try:
            losses.append(float(net.train_step(batch, adam, rng)))
        except NumericalError as exc:
            raise TrainingDivergence(task.index, step, str(exc)) from exc
    return losses


def _fit(net: Network | None, task: Task, seq: TaskSequence, arch: str, hyper: Hyper, seed: int,
         iterations: int, batch_cap: int, zero_init_growth: bool = False) -> tuple[Network, list[float]]:
    """One task's step, for ``run_sequence`` and ``time_warp`` alike: draw the
    task's rng, create an ``arch`` network at the task's widths when ``net`` is
    None or grow ``net`` (in place) to them, then train it; returns (the
    trained network, its training losses)."""
    rng = _task_rng(seed, task.index)
    if net is None:
        net = Network.create(arch, task.pred_width, task.class_width, hyper, rng)
    else:
        net.grow(task.pred_width, task.class_width, rng, zero_init_growth)
    return net, _train_on_task(net, task, seq, iterations, batch_cap, rng)


def _clone(task: Task, net: Network) -> Network:
    """``run_sequence``'s default ``on_task``: a frozen copy of the trained network."""
    return net.clone()


def run_sequence(
    seq: TaskSequence,
    arch: str,
    hyper: Hyper,
    restart: str = "warm",
    seed: int = 42,
    iterations: int = 100,
    batch_cap: int = 1000,
    zero_init_growth: bool = False,
    threads: int = 1,
    on_task: Callable[[Task, Network], object] = _clone,
) -> tuple[list, np.ndarray, list[dict]]:
    """Train through the sequence; returns (the per-task results of
    ``on_task``, R, per-task diagnostics).

    ``on_task(task, net)`` gets each task's trained network before anything
    changes it again; by default it returns ``net.clone()``, so the results
    are the checkpoints.  The R row is then evaluated on ``net`` itself.
    Tasks are strictly sequential; the per-row evaluations run on up to
    ``threads`` workers, which only read the network, so results do not
    depend on the worker count.
    """
    t_count = len(seq)
    r = np.zeros((t_count, t_count), dtype=np.float64)
    results: list = []
    diagnostics: list[dict] = []
    net: Network | None = None
    for task in seq.tasks:
        net, losses = _fit(None if restart == "cold" else net, task, seq, arch, hyper, seed,
                           iterations, batch_cap, zero_init_growth)
        results.append(on_task(task, net))
        if threads > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                row = list(pool.map(lambda o: evaluate_network(net, o), seq.tasks))
        else:
            row = [evaluate_network(net, o) for o in seq.tasks]
        unseen_row = []
        for other, (acc_ij, unseen) in zip(seq.tasks, row):
            r[task.index, other.index] = acc_ij
            unseen_row.append(unseen)
        diagnostics.append(
            {
                "task": task.index,
                "timestamp": task.timestamp,
                "input_width": task.pred_width,
                "class_width": task.class_width,
                "unseen_fraction": unseen_row,
                "train_loss": losses,
            }
        )
    return results, r, diagnostics


# -- measures over the result matrix ------------------------------------------


def _check_full(r: np.ndarray) -> int:
    r = np.asarray(r)
    if r.ndim != 2 or r.shape[0] != r.shape[1]:
        raise ValueError("result matrix must be square")
    return r.shape[0]


def acc(r: np.ndarray) -> float:
    """Mean accuracy over all tasks after training on the last one."""
    t = _check_full(r)
    return float(np.sum(r[t - 1, :]) / t)


def bwt(r: np.ndarray) -> float:
    """Backward transfer: retained performance on earlier tasks."""
    t = _check_full(r)
    if t < 2:
        raise ValueError("backward transfer needs at least 2 tasks")
    return float(sum(r[t - 1, i] - r[i, i] for i in range(t - 1)) / (t - 1))


def fwt(r: np.ndarray) -> float:
    """Forward transfer: next-task performance before training on it,
    relative to the diagonal."""
    t = _check_full(r)
    if t < 2:
        raise ValueError("forward transfer needs at least 2 tasks")
    return float(sum(r[i - 1, i] - r[i, i] for i in range(1, t)) / (t - 1))


def omega(r: np.ndarray) -> tuple[float, float, float]:
    """(omega_base, omega_new, omega_all) normalized by the best diagonal accuracy."""
    t = _check_full(r)
    if t < 2:
        raise ValueError("omega measures need at least 2 tasks")
    alpha_ideal = max(float(r[i, i]) for i in range(t))
    if alpha_ideal == 0.0:
        raise ValueError("all diagonal accuracies are zero")
    base = sum(r[i, 0] / alpha_ideal for i in range(1, t)) / (t - 1)
    new = sum(r[i, i] for i in range(1, t)) / (t - 1)
    all_ = sum((np.sum(r[i, :]) / t) / alpha_ideal for i in range(1, t)) / (t - 1)
    return float(base), float(new), float(all_)


def forgetting(r: np.ndarray, k: int) -> float:
    """Mean drop from each past task's best accuracy after training task k (1-based)."""
    t = _check_full(r)
    if not 2 <= k <= t:
        raise ValueError(f"k must be in [2, {t}]")
    drops = [max(r[m, j] for m in range(k - 1)) - r[k - 1, j] for j in range(k - 1)]
    return float(sum(drops) / (k - 1))


@dataclass
class LifelongReport:
    """Everything recomputable from the result matrix, plus diagnostics.
    Measures undefined for T < 2, or omega for an all-zero diagonal, are None."""

    acc: float
    bwt: float | None
    fwt: float | None
    omega_base: float | None
    omega_new: float | None
    omega_all: float | None
    alpha_ideal: float
    forgetting: dict[int, float] = field(default_factory=dict)
    diagnostics: list[dict] = field(default_factory=list)

    @classmethod
    def from_matrix(cls, r: np.ndarray, diagnostics: list[dict] | None = None) -> "LifelongReport":
        t = _check_full(r)
        alpha_ideal = max(float(r[i, i]) for i in range(t))
        ob, on, oa = omega(r) if t >= 2 and alpha_ideal != 0.0 else (None, None, None)
        return cls(
            acc=acc(r), bwt=bwt(r) if t >= 2 else None, fwt=fwt(r) if t >= 2 else None,
            omega_base=ob, omega_new=on, omega_all=oa,
            alpha_ideal=alpha_ideal,
            forgetting={k: forgetting(r, k) for k in range(2, t + 1)},
            diagnostics=diagnostics or [],
        )

    def to_dict(self) -> dict:
        return {
            "acc": self.acc,
            "bwt": self.bwt,
            "fwt": self.fwt,
            "omega_base": self.omega_base,
            "omega_new": self.omega_new,
            "omega_all": self.omega_all,
            "alpha_ideal": self.alpha_ideal,
            "forgetting": {str(k): v for k, v in self.forgetting.items()},
            "diagnostics": self.diagnostics,
        }


def time_warp(
    old_net: Network,
    old_pred_vocab: PredicateVocabulary,
    old_class_vocab: ClassVocabulary,
    new_snapshot: tuple[str, SnapshotGraph],
    model: str,
    seed: int = 42,
    iterations: int = 100,
    batch_cap: int = 1000,
) -> dict:
    """Frozen / retrained / from-scratch comparison on a distant new task.

    Every arm has the checkpoint's architecture and hyperparameters: the
    frozen arm is ``old_net`` itself, the retrained arm a copy of it grown to
    the task and trained, and the from-scratch arm a new network trained from
    the same task rng, both through ``run_sequence``'s task step."""
    seq = prepare_tasks(
        [new_snapshot], model, seed, pred_vocab=old_pred_vocab, class_vocab=old_class_vocab
    )
    task = seq.tasks[0]
    frozen_acc, frozen_unseen = evaluate_network(old_net, task)
    arch, hyper = old_net.arch, old_net.hyper
    warm, _ = _fit(old_net.clone(), task, seq, arch, hyper, seed, iterations, batch_cap)
    cold, _ = _fit(None, task, seq, arch, hyper, seed, iterations, batch_cap)
    return {
        "frozen_accuracy": frozen_acc,
        "frozen_unseen_fraction": frozen_unseen,
        "retrained_accuracy": evaluate_network(warm, task)[0],
        "cold_accuracy": evaluate_network(cold, task)[0],
    }
