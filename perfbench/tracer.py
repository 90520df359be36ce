"""Spans and counters around extremecast's public functions.

A ``Tracer`` wraps each layer's public functions at the name its caller
looks up (a module attribute, or a class attribute for methods), so nothing
in the package changes.  The wrappers are installed only inside
``Tracer.collect``, which records one *unit* of work (a set-up or an
operation) and restores every original name on exit.

Per unit the tracer keeps:

* spans: name, start, end and the index of the enclosing span, rooted at a
  ``bench.unit`` span.  A span's self time is its duration minus the time
  its direct children cover.  Span times are taken on the probe's clock and
  calibrated by the probe's speed over the whole unit (see ``probe``).
* counts made where the work happens: RNG streams and bulk draws, windows
  forwarded in eval mode, optimiser steps and clipped steps, bytes written,
  and the tape size of every training step, counted by walking the graph
  back from the loss.
"""

from __future__ import annotations

import os
import statistics
from collections import Counter
from contextlib import contextmanager

import numpy as np

COUNTS = ("rng.array_calls", "rng.array_draws", "rng.streams",
          "model.predict_windows", "training.steps", "optim.clipped_steps",
          "checkpoint.bytes_written")

# counts that must repeat exactly between units of the same kind
EXACT = ("tensor.tape_nodes", "tensor.take_nodes", "rng.array_draws",
         "rng.streams", "model.predict_windows", "training.steps")


def tape_size(root) -> tuple[int, int]:
    """(nodes, take nodes) reachable from ``root`` through grad-requiring
    parents: the nodes ``backward`` visits."""
    seen = {id(root)}
    stack = [root]
    nodes = takes = 0
    while stack:
        node = stack.pop()
        nodes += 1
        vjp = node._vjp
        if vjp is not None and vjp.__qualname__.startswith("take."):
            takes += 1
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return nodes, takes


class Tracer:
    """Install timing wrappers on the package's layers for one unit at a time.

    ``modules`` maps short names (cli, pipeline, data, checkpoint, training,
    tensor, model, rng, augment) to the imported extremecast modules.
    """

    def __init__(self, modules: dict, probe):
        self._probe = probe
        self._clock = probe.clock
        self.units: dict[str, list[dict]] = {"setup": [], "op": []}
        self._spans: list[list] = []
        self._stack: list[int] = []
        self._counts: Counter = Counter()
        self._steps: list[tuple[int, int]] = []
        self._rng_depth = 0
        self._span_names: set[str] = {"bench.unit"}
        self._patches = self._build_patches(modules)

    # ------------------------------------------------------------ recording

    def _timed(self, name: str, fn):
        self._span_names.add(name)
        spans, stack, clock = self._spans, self._stack, self._clock

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        return wrapper

    def _writer(self, name, fn, path_arg: int):
        """A timed (or, without a name, plain) writer that counts file bytes."""
        inner = self._timed(name, fn) if name else fn
        counts = self._counts

        def wrapper(*args, **kwargs):
            out = inner(*args, **kwargs)
            counts["checkpoint.bytes_written"] += os.path.getsize(args[path_arg])
            return out

        return wrapper

    def _cell(self, name: str, fn):
        """A fused recurrent cell: time the forward and the node's vjp."""
        timed = self._timed(name, fn)
        vjp_name = name + "_vjp"
        self._span_names.add(vjp_name)

        def wrapper(*args):
            out = timed(*args)
            if out._vjp is not None:
                out._vjp = self._timed(vjp_name, out._vjp)
            return out

        return wrapper

    def _rng_array(self, fn, draws_per_value: int):
        """Bulk draws; a gaussian fill's inner uniform fill is not re-counted."""
        timed = self._timed("rng.array", fn)
        counts = self._counts

        def wrapper(rng, shape, *args, **kwargs):
            if self._rng_depth:
                return fn(rng, shape, *args, **kwargs)
            n = shape if isinstance(shape, int) else int(np.prod(shape))
            counts["rng.array_calls"] += 1
            counts["rng.array_draws"] += draws_per_value * n
            self._rng_depth += 1
            try:
                return timed(rng, shape, *args, **kwargs)
            finally:
                self._rng_depth -= 1

        return wrapper

    def _build_patches(self, m: dict) -> list:
        counts, steps = self._counts, self._steps
        cli, training = m["cli"], m["training"]
        patches = []

        def timed(owner, attr, name):
            patches.append((owner, attr, self._timed(name, getattr(owner, attr))))

        for owner, attr, name in (
                (cli, "load_csv", "data.load_csv"),
                (m["pipeline"], "impute_two_stage", "data.impute"),
                (m["pipeline"], "make_windows", "data.make_windows"),
                (m["data"], "make_windows", "data.make_windows"),
                (m["pipeline"], "build_features", "features.build_features"),
                (m["pipeline"], "select_features", "features.select_features"),
                (cli, "prepare", "pipeline.prepare"),
                (cli, "load_dataset", "checkpoint.load_dataset"),
                (m["checkpoint"], "load_dataset", "checkpoint.load_dataset"),
                (cli, "load_checkpoint", "checkpoint.load_checkpoint"),
                (cli, "occlusion_sensitivity", "diagnostics.occlusion"),
                (cli, "permutation_importance", "diagnostics.permutation"),
                (cli, "partial_dependence", "diagnostics.pdp"),
                (training, "evaluation_report", "metrics.evaluation_report"),
                (m["tensor"], "backward", "tensor.backward"),
                (m["augment"], "augment_windows", "augment.augment_windows")):
            timed(owner, attr, name)

        for attr, name, path_arg in (("save_dataset", "checkpoint.save_dataset", 1),
                                     ("save_checkpoint", "checkpoint.save_checkpoint", 1),
                                     ("write_json", None, 1),
                                     ("write_csv", None, 0)):
            patches.append((cli, attr, self._writer(name, getattr(cli, attr),
                                                    path_arg)))

        for attr in ("lstm_cell", "gru_cell"):
            patches.append((m["tensor"], attr,
                            self._cell(f"tensor.{attr}", getattr(m["tensor"], attr))))

        loss_fn = self._timed("losses.compute_loss", training.compute_loss)

        def compute_loss(pred, target, cfg):
            loss = loss_fn(pred, target, cfg)
            if loss.requires_grad:
                steps.append(tape_size(loss))
            return loss

        clip_fn = self._timed("optim.clip", training.clip_global_norm)

        def clip_global_norm(grads, max_norm):
            norm = clip_fn(grads, max_norm)
            counts["optim.clipped_steps"] += norm > max_norm
            return norm

        adamw_fn = self._timed("optim.adamw", training.adamw_step)

        def adamw_step(*args, **kwargs):
            counts["training.steps"] += 1
            return adamw_fn(*args, **kwargs)

        patches += [(training, "compute_loss", compute_loss),
                    (training, "clip_global_norm", clip_global_norm),
                    (training, "adamw_step", adamw_step)]

        model_cls = m["model"].DualStreamModel
        fwd_train = self._timed("model.forward_train", model_cls.forward)
        fwd_eval = self._timed("model.forward_eval", model_cls.forward)

        def forward(model, params, X, train=False, rng=None):
            if train:
                return fwd_train(model, params, X, train, rng)
            counts["model.predict_windows"] += len(X)
            return fwd_eval(model, params, X, train, rng)

        patches.append((model_cls, "forward", forward))

        rng_cls = m["rng"].Rng
        rng_init = rng_cls.__init__

        def init(rng, *args, **kwargs):
            counts["rng.streams"] += 1
            rng_init(rng, *args, **kwargs)

        patches += [(rng_cls, "__init__", init),
                    (rng_cls, "uniform_array",
                     self._rng_array(rng_cls.uniform_array, 1)),
                    (rng_cls, "gaussian_array",
                     self._rng_array(rng_cls.gaussian_array, 2)),
                    (rng_cls, "permutation",
                     self._timed("rng.permutation", rng_cls.permutation))]
        return patches

    # ---------------------------------------------------------------- units

    @contextmanager
    def collect(self, kind: str, label: str):
        """Trace the enclosed block as one unit of ``kind`` (setup or op)."""
        self._spans.clear()
        self._stack.clear()
        self._counts.clear()
        self._steps.clear()
        saved = [(owner, attr, getattr(owner, attr))
                 for owner, attr, _ in self._patches]
        for owner, attr, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        mark = self._probe.mark()
        self._spans.append(["bench.unit", mark[0], 0.0, -1])
        self._stack.append(0)
        try:
            yield
        finally:
            self._spans[0][2] = self._clock()
            self._stack.clear()
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
            summary = self._summarise(self._probe.scale(mark))
            self.units[kind].append(summary | {"label": label})

    def _summarise(self, scale: float) -> dict:
        covered = [0.0] * len(self._spans)
        for name, start, end, parent in self._spans:
            if parent >= 0:
                covered[parent] += end - start
        out = {f"{n}{suffix}": 0.0 for n in self._span_names
               for suffix in ("_s", "_self_s")}
        for (name, start, end, _), child in zip(self._spans, covered):
            out[name + "_s"] += (end - start) * scale
            out[name + "_self_s"] += (end - start - child) * scale
        for name in COUNTS:
            out[name] = self._counts[name]
        for i, name in enumerate(("tensor.tape_nodes", "tensor.take_nodes")):
            out[name] = (int(statistics.median(s[i] for s in self._steps))
                         if self._steps else 0)
        out["optim.clip_rate"] = (out["optim.clipped_steps"] / out["training.steps"]
                                  if out["training.steps"] else 0.0)
        return out

    def metric_names(self) -> set[str]:
        """Every per-layer name a unit summary can hold."""
        names = {f"{n}{suffix}" for n in self._span_names
                 for suffix in ("_s", "_self_s")}
        return names | set(COUNTS) | {"tensor.tape_nodes", "tensor.take_nodes",
                                      "optim.clip_rate"}

    def layer_value(self, name: str) -> float:
        """Median over traced set-ups plus median over traced operations."""
        total = 0.0
        for units in self.units.values():
            if units:
                total += statistics.median(u[name] for u in units)
        return total

    def drift(self) -> list[tuple[str, str]]:
        """(label, message) for each unit whose exact counts differ from the
        first unit of its kind."""
        found = []
        for units in self.units.values():
            for unit in units[1:]:
                moved = [f"{n} {units[0][n]} -> {unit[n]}" for n in EXACT
                         if unit[n] != units[0][n]]
                if moved:
                    found.append((unit["label"], ", ".join(moved)))
        return found
