"""Span tracer for the benchmark's traced run, and the per-layer metrics
computed from its spans.

The tracer rebinds the public names through which mlembed's layers call one
another, records a span (name, start, end, parent, run id) around each call
and restores every original binding when tracing stops. Nothing in ``src/``
is edited. Only ``run.py --trace 1`` imports this module, so an untraced run
pays nothing for it.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

from workloads import median, tail

# (module, attribute, span name). A dotted attribute names a class member.
# Loss kernels, sgd_step and the validation metrics are hooked where the
# trainer looks them up; the eval-side metrics where evaluate_embeddings
# looks them up; cmd_eval is the body of one ``mlembed eval`` call.
HOOKS = (
    ("mlembed.trainer", "train", "trainer.train"),
    ("mlembed.trainer", "build_minibatch", "sampler.build_minibatch"),
    ("mlembed.trainer", "ml2plus_loss", "losses.ml2plus_loss"),
    ("mlembed.trainer", "contrastive_loss", "losses.contrastive_loss"),
    ("mlembed.trainer", "pretrain_loss", "losses.pretrain_loss"),
    ("mlembed.trainer", "sgd_step", "trainer.sgd_step"),
    ("mlembed.trainer", "kmeans", "evaluation.kmeans"),
    ("mlembed.trainer", "nmi", "evaluation.nmi"),
    ("mlembed.trainer", "recall_at_k", "evaluation.recall_at_k"),
    ("mlembed.evaluation", "kmeans", "evaluation.kmeans"),
    ("mlembed.evaluation", "nmi", "evaluation.nmi"),
    ("mlembed.evaluation", "recall_at_k", "evaluation.recall_at_k"),
    ("mlembed.evaluation", "logistic_probe", "evaluation.logistic_probe"),
    ("mlembed.model", "EmbeddingModel.embed", "model.embed"),
    ("mlembed.model", "EmbeddingModel.backward_embed", "model.backward_embed"),
    ("mlembed.model", "EmbeddingModel.classify", "model.classify"),
    ("mlembed.model", "EmbeddingModel.backward_classify", "model.backward_classify"),
    ("mlembed.model", "EmbeddingModel.save", "model.save"),
    ("mlembed.model", "EmbeddingModel.load", "model.load"),
    ("mlembed.cli", "generate_synthetic", "dataset.generate_synthetic"),
    ("mlembed.cli", "load_dataset_dir", "dataset.load_dataset_dir"),
    ("mlembed.cli", "evaluate_embeddings", "evaluation.evaluate_embeddings"),
    ("mlembed.cli", "cmd_eval", "cli.eval"),
)

# Per-anchor samplers of the benchmarked regimes, looked up by
# build_minibatch on every call. They run tens of times per step, so they
# are counted (calls and items returned) rather than timed; their time is
# inside sampler.build_minibatch.
COUNTED = (
    ("mlembed.sampler", "sample_group_ml2plus", "sampler.anchor"),
    ("mlembed.sampler", "sample_pair", "sampler.anchor"),
)

METRIC_LOSSES = ("losses.ml2plus_loss", "losses.contrastive_loss")


# Span name -> function of the call's result giving the span's info number:
# rows embedded, k-means sweeps, or 1 when a loss call's value is positive.
SPAN_INFO = {
    "model.embed": lambda out: out[0].shape[0],
    "evaluation.kmeans": lambda out: len(out.objective_history),
    **{name: (lambda out: int(out.value > 0.0)) for name in METRIC_LOSSES},
}

NAME, START, END, PARENT, RUN, INFO = range(6)


def _resolve(module_name: str, attribute: str):
    """(owner, attribute name); raises LookupError when either is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError as exc:
        raise LookupError(module_name) from exc
    *path, attr = attribute.split(".")
    for part in path:
        if not hasattr(owner, part):
            raise LookupError(f"{module_name}.{attribute}")
        owner = getattr(owner, part)
    if attr not in vars(owner):
        raise LookupError(f"{module_name}.{attribute}")
    return owner, attr


class Tracer:
    """Keeps spans in memory while hooks are installed with :meth:`active`.

    Span fields live in parallel lists of numbers and strings, so that tens
    of thousands of spans add no objects for the garbage collector to walk
    during the traced operations. :meth:`spans` returns them as tuples
    ``(name, start, end, parent index, run id, info)``; times are
    ``time.perf_counter`` seconds. ``counts`` maps ``(run id, key)`` to the
    number of counted-sampler calls (``sampler.anchor.calls``) and items
    returned (``sampler.anchor.accepted``).
    """

    def __init__(self):
        self.fields = ([], [], [], [], [], [])  # in the order of spans()
        self.counts: Counter = Counter()
        self.missing: set[str] = set()
        self.run_id = ""
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def spans(self) -> list[tuple]:
        return list(zip(*self.fields))

    def _timed(self, fn, name):
        names, starts, ends, parents, runs, infos = self.fields
        stack, clock = self._stack, time.perf_counter
        info = SPAN_INFO.get(name)

        def wrapper(*args, **kwargs):
            index = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            runs.append(self.run_id)
            infos.append(None)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if info is not None:
                try:
                    infos[index] = info(result)
                except (AttributeError, TypeError, IndexError):
                    pass  # a changed return type leaves the info empty
            return result

        return wrapper

    def _counted(self, fn, key):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[self.run_id, key + ".calls"] += 1
            result = fn(*args, **kwargs)
            counts[self.run_id, key + ".accepted"] += 1
            return result

        return wrapper

    def _install(self, module_name, attribute, make):
        try:
            owner, attr = _resolve(module_name, attribute)
        except LookupError:
            self.missing.add(f"{module_name}.{attribute}")
            return
        original = vars(owner)[attr]
        if isinstance(original, classmethod):
            replacement = classmethod(make(original.__func__))
        else:
            replacement = make(original)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def _restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextmanager
    def active(self, run_id: str):
        """Install every hook for the body and restore the originals after,
        also when the body raises. Spans recorded inside carry ``run_id``."""
        if self._saved:
            raise RuntimeError("tracer is already active")
        self.run_id = run_id
        try:
            for module_name, attribute, name in HOOKS:
                self._install(module_name, attribute, lambda fn, n=name: self._timed(fn, n))
            for module_name, attribute, key in COUNTED:
                self._install(module_name, attribute, lambda fn, k=key: self._counted(fn, k))
            yield self
        finally:
            self._restore()
            self._stack.clear()

    def dump(self, path: Path) -> None:
        """Write the spans as JSON lines, times in microseconds from the first."""
        spans = self.spans()
        t0 = spans[0][START] if spans else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for name, start, end, parent, run, info in spans:
                record = {
                    "name": name,
                    "start_us": round((start - t0) * 1e6, 3),
                    "end_us": round((end - t0) * 1e6, 3),
                    "parent": parent,
                    "run": run,
                }
                if info is not None:
                    record["info"] = info
                fh.write(json.dumps(record) + "\n")


# -- per-layer metrics -------------------------------------------------------

# name -> (unit, the end-to-end metric and workload it should move, span
# names it needs). A metric whose spans lost their hook is reported absent.
LAYER_METRICS = {
    "sampler.ms_per_step": ("ms", "train_s on ml2plus-pretrain; no change on eval", {"sampler.build_minibatch", "trainer.sgd_step"}),
    "sampler.anchor_accept_ratio": ("1", "train_s on ml2plus-pretrain; no change on eval", {"sampler.anchor"}),
    "losses.ms_per_step": ("ms", "train_s on ml2plus-pretrain, less on contrastive", {"trainer.sgd_step", *METRIC_LOSSES}),
    "losses.calls_per_step": ("count", "train_s on ml2plus-pretrain, less on contrastive", {"trainer.sgd_step", *METRIC_LOSSES}),
    "losses.nonzero_ratio": ("1", "train_s on ml2plus-pretrain, less on contrastive", set(METRIC_LOSSES)),
    "model.forward_ms_per_step": ("ms", "train_s on contrastive", {"model.embed", "trainer.sgd_step"}),
    "model.backward_ms_per_step": ("ms", "train_s on contrastive", {"model.backward_embed", "trainer.sgd_step"}),
    "model.rows_per_step": ("count", "train_s on contrastive", {"model.embed", "trainer.sgd_step"}),
    "model.load_ms": ("ms", "eval_ms_p50 on eval", {"model.load", "cli.eval"}),
    "model.save_ms": ("ms", "train_s on both training workloads (once per run)", {"model.save"}),
    "trainer.step_ms_p50": ("ms", "train_s on both training workloads", {"trainer.train", "trainer.sgd_step"}),
    "trainer.step_ms_tail": ("ms", "train_s on both training workloads", {"trainer.train", "trainer.sgd_step"}),
    "trainer.step_ms_mean": ("ms", "train_s on both training workloads", {"trainer.train", "trainer.sgd_step"}),
    "trainer.pretrain_step_ms_p50": ("ms", "train_s on ml2plus-pretrain", {"trainer.train", "trainer.sgd_step", "model.classify"}),
    "trainer.sgd_ms_per_step": ("ms", "train_s on both training workloads", {"trainer.sgd_step"}),
    "trainer.self_ms_per_step": ("ms", "train_s on both training workloads", {"trainer.train", "trainer.sgd_step"}),
    "evaluation.validate_ms_p50": ("ms", "train_s on contrastive, where it is the larger share", {"trainer.sgd_step", "evaluation.recall_at_k"}),
    "evaluation.kmeans_ms": ("ms", "eval_ms_p50 on eval", {"evaluation.kmeans", "cli.eval"}),
    "evaluation.kmeans_sweeps": ("count", "eval_ms_p50 on eval", {"evaluation.kmeans", "cli.eval"}),
    "evaluation.nmi_ms": ("ms", "eval_ms_p50 on eval", {"evaluation.nmi", "cli.eval"}),
    "evaluation.recall_ms": ("ms", "eval_ms_p50 on eval", {"evaluation.recall_at_k", "cli.eval"}),
    "evaluation.probe_ms": ("ms", "eval_ms_p50 on eval", {"evaluation.logistic_probe", "cli.eval"}),
    "dataset.generate_ms": ("ms", "setup_s on every workload", {"dataset.generate_synthetic"}),
    "dataset.load_ms": ("ms", "eval_ms_p50 on eval", {"dataset.load_dataset_dir", "cli.eval"}),
    "cli.eval_self_ms": ("ms", "eval_ms_p50 on eval", {"cli.eval"}),
    "trace.overhead_ratio": ("1", "none: traced over untraced train_s or eval_ms_p50", set()),
}


def _mean(values) -> float:
    return float(statistics.fmean(values)) if values else 0.0


def _train_steps(spans, children, root):
    """Split one train() span into steps at sgd_step ends.

    A step runs from the end of the previous sgd_step to the end of its own,
    so it holds lr_schedule, the sampler, the forward pass, the loss calls,
    the gradient scatter, the backward pass and the SGD update. The first
    step of a run has no previous sgd_step and is left out, and so is a
    step whose interval holds a validation (a k-means call). The validation
    time is returned apart: from the sgd_step before it to its Recall@1 end.
    """
    metric, pretrain, validate = [], [], []
    prev_end = None
    window = []
    for c in children[root]:
        span = spans[c]
        window.append(span)
        name = span[NAME]
        if name == "evaluation.recall_at_k" and prev_end is not None:
            validate.append(span[END] - prev_end)
        if name != "trainer.sgd_step":
            continue
        if prev_end is not None:
            names = {s[NAME] for s in window}
            step = {"total": span[END] - prev_end, "children": window}
            if "evaluation.kmeans" not in names:
                if "sampler.build_minibatch" in names:
                    metric.append(step)
                elif "model.classify" in names:
                    pretrain.append(step)
        prev_end = span[END]
        window = []
    return metric, pretrain, validate


def _dur(span) -> float:
    return span[END] - span[START]


def layer_metrics(tracer: Tracer, timed_runs: set[str], overhead_ratio: float) -> dict:
    """Per-layer metrics over the spans of the runs in ``timed_runs``.

    Returns name -> (value, unit, note). Step metrics are per metric-phase
    iteration without validation. Eval-side metrics are medians over the
    calls made inside ``mlembed eval`` calls. Metrics whose hooks are
    missing are left out; see :func:`absent_metrics`.
    """
    spans = tracer.spans()
    children = defaultdict(list)
    eval_root = [None] * len(spans)
    for i, s in enumerate(spans):
        children[s[PARENT]].append(i)
        parent_root = eval_root[s[PARENT]] if s[PARENT] >= 0 else None
        eval_root[i] = i if s[NAME] == "cli.eval" else parent_root

    steps, pre_steps, validate = [], [], []
    for i, s in enumerate(spans):
        if s[NAME] == "trainer.train" and s[RUN] in timed_runs:
            m, p, v = _train_steps(spans, children, i)
            steps += m
            pre_steps += p
            validate += v

    def child_ms(step, names):
        return 1e3 * sum(_dur(s) for s in step["children"] if s[NAME] in names)

    def per_step(names):
        return _mean([child_ms(st, names) for st in steps])

    def per_step_count(fn):
        return _mean([sum(fn(s) for s in st["children"]) for st in steps])

    loss_spans = [s for st in steps for s in st["children"] if s[NAME] in METRIC_LOSSES and s[INFO] is not None]
    step_ms = [1e3 * st["total"] for st in steps]
    self_ms = [1e3 * st["total"] - child_ms(st, {s[NAME] for s in st["children"]}) for st in steps]
    tail_ms, tail_pct = tail(step_ms)

    def eval_ms(name, value=_dur):
        values = [
            value(s)
            for i, s in enumerate(spans)
            if s[NAME] == name and s[RUN] in timed_runs and eval_root[i] is not None
        ]
        return [v for v in values if v is not None]

    eval_self = []
    for i, s in enumerate(spans):
        if s[NAME] == "cli.eval" and s[RUN] in timed_runs:
            eval_self.append(_dur(s) - sum(_dur(spans[c]) for c in children[i]))

    calls = sum(n for (run, key), n in tracer.counts.items() if run in timed_runs and key.endswith(".calls"))
    accepted = sum(n for (run, key), n in tracer.counts.items() if run in timed_runs and key.endswith(".accepted"))
    saves = [_dur(s) for s in spans if s[NAME] == "model.save" and s[RUN] in timed_runs]
    generates = [_dur(s) for s in spans if s[NAME] == "dataset.generate_synthetic"]
    loads, recalls = eval_ms("model.load"), eval_ms("evaluation.recall_at_k")
    n_steps, n_calls = len(steps), len(eval_self)

    values = {
        "sampler.ms_per_step": (per_step({"sampler.build_minibatch"}), f"mean of {n_steps} steps"),
        "sampler.anchor_accept_ratio": (accepted / calls if calls else 0.0, f"{accepted} items / {calls} anchor-sampler calls"),
        "losses.ms_per_step": (per_step(set(METRIC_LOSSES)), f"mean of {n_steps} steps"),
        "losses.calls_per_step": (per_step_count(lambda s: s[NAME] in METRIC_LOSSES), f"mean of {n_steps} steps"),
        "losses.nonzero_ratio": (
            _mean([s[INFO] for s in loss_spans]),
            f"over {len(loss_spans)} loss calls",
        ),
        "model.forward_ms_per_step": (per_step({"model.embed"}), f"mean of {n_steps} steps"),
        "model.backward_ms_per_step": (per_step({"model.backward_embed"}), f"mean of {n_steps} steps"),
        "model.rows_per_step": (
            per_step_count(lambda s: (s[INFO] or 0) if s[NAME] == "model.embed" else 0),
            f"mean of {n_steps} steps",
        ),
        "model.load_ms": (1e3 * median(loads), f"median of {len(loads)} loads"),
        "model.save_ms": (1e3 * median(saves), f"median of {len(saves)} saves"),
        "trainer.step_ms_p50": (median(step_ms), f"median of {n_steps} steps"),
        "trainer.step_ms_tail": (tail_ms, f"p{tail_pct:.1f} of {n_steps} steps"),
        "trainer.step_ms_mean": (_mean(step_ms), f"mean of {n_steps} steps"),
        "trainer.pretrain_step_ms_p50": (
            median([1e3 * st["total"] for st in pre_steps]),
            f"median of {len(pre_steps)} pre-training steps",
        ),
        "trainer.sgd_ms_per_step": (per_step({"trainer.sgd_step"}), f"mean of {n_steps} steps"),
        "trainer.self_ms_per_step": (_mean(self_ms), f"mean of {n_steps} steps"),
        "evaluation.validate_ms_p50": (1e3 * median(validate), f"median of {len(validate)} eval points"),
        "evaluation.kmeans_ms": (1e3 * median(eval_ms("evaluation.kmeans")), f"median of {n_calls} eval calls' k-means"),
        "evaluation.kmeans_sweeps": (
            median(eval_ms("evaluation.kmeans", lambda s: s[INFO])),
            f"median of {n_calls} eval calls' k-means",
        ),
        "evaluation.nmi_ms": (1e3 * median(eval_ms("evaluation.nmi")), f"median of {n_calls} eval calls' NMI"),
        "evaluation.recall_ms": (1e3 * median(recalls), f"median of {len(recalls)} Recall@K calls"),
        "evaluation.probe_ms": (1e3 * median(eval_ms("evaluation.logistic_probe")), f"median of {n_calls} eval calls' probe"),
        "dataset.generate_ms": (1e3 * median(generates), f"median of {len(generates)} generations"),
        "dataset.load_ms": (1e3 * median(eval_ms("dataset.load_dataset_dir")), f"median of {n_calls} eval calls' loads"),
        "cli.eval_self_ms": (1e3 * median(eval_self), f"median of {n_calls} eval calls"),
        "trace.overhead_ratio": (overhead_ratio, "traced over untraced median op time"),
    }
    absent = absent_metrics(tracer)
    return {
        name: (value, LAYER_METRICS[name][0], note)
        for name, (value, note) in values.items()
        if name not in absent
    }


def absent_metrics(tracer: Tracer) -> set[str]:
    """Metrics that need a span or count whose hook could not be installed."""
    lost = set()
    for module_name, attribute, name in (*HOOKS, *COUNTED):
        if f"{module_name}.{attribute}" in tracer.missing:
            lost.add(name)
    return {name for name, (_, _, needs) in LAYER_METRICS.items() if needs & lost}
