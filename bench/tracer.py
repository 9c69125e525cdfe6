"""Spans and counters recorded around the program's public functions.

The program has no tracing of its own, so ``instrument`` replaces each
traced function or method with a wrapper that opens a span, calls the
original and closes the span. Every module of the package that imported
the function by name gets the wrapper too. Nothing is wrapped unless
``instrument`` is called, so untraced runs execute the program unchanged.

A span's self time is its duration minus the durations of the spans it
directly contains. Work the tracer itself does inside a span (counting
graph nodes) is excluded from every open span.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

_clock = time.perf_counter


class Tracer:
    """In-memory span store plus per-label totals."""

    def __init__(self):
        self.enabled = True
        self.stack = []  # open spans: [label, start, hidden time at start, child time, span id]
        self.spans = []  # closed spans: (id, parent id, label, start, end)
        self.total = defaultdict(float)  # label -> inclusive seconds
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.hidden = 0.0  # seconds of tracer work done inside open spans
        self.next_id = 0
        # per-step state used to attribute calls to the phases of a train step
        self.trainer = None
        self.disc_loss_id = None

    def begin(self, label):
        self.stack.append([label, _clock(), self.hidden, 0.0, self.next_id])
        self.next_id += 1

    def end(self):
        label, start, hidden_at_start, child, span_id = self.stack.pop()
        now = _clock()
        duration = now - start - (self.hidden - hidden_at_start)
        self.total[label] += duration
        self.self_time[label] += duration - child
        self.calls[label] += 1
        parent = -1
        if self.stack:
            self.stack[-1][3] += duration
            parent = self.stack[-1][4]
        self.spans.append((span_id, parent, label, start, now))

    def inside(self, label) -> bool:
        return any(frame[0] == label for frame in self.stack)

    def hide(self, seconds):
        self.hidden += seconds

    # -- derived values -------------------------------------------------------

    def ms_per_call(self, label) -> float:
        return 1e3 * self.total[label] / self.calls[label] if self.calls[label] else 0.0

    def self_ms_per_call(self, label) -> float:
        return 1e3 * self.self_time[label] / self.calls[label] if self.calls[label] else 0.0

    def write_spans(self, path):
        with open(path, "w") as fh:
            for span_id, parent, label, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "name": label,
                                     "start": start, "end": end}) + "\n")


def _graph_nodes(root) -> int:
    """Distinct nodes reachable from ``root`` through their parents."""
    seen = {id(root)}
    stack = [root]
    while stack:
        node = stack.pop()
        for parent in node._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def _spanned(tracer, fn, labels_of, after=None):
    """Wrap ``fn``: open the spans ``labels_of(args)`` names, outermost first."""

    def wrapper(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        labels = labels_of(args)
        for label in labels:
            tracer.begin(label)
        try:
            result = fn(*args, **kwargs)
        finally:
            for _ in labels:
                tracer.end()
        if after is not None:
            after(args, result)
        return result

    return wrapper


def _replace_everywhere(original, replacement):
    """Point every package module's reference to ``original`` at ``replacement``."""
    for name, module in list(sys.modules.items()):
        if name == "advmt" or name.startswith("advmt."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def instrument(tracer: Tracer):
    """Install spans and counters around the program's layers."""
    from advmt import data, discriminator, evaluation, losses, model, tensor, training

    def fixed(*labels):
        return lambda args: labels

    def grad_suffix():
        return "grad" if tensor._grad_enabled else "nograd"

    def in_step():
        return tracer.inside("training.step")

    def patch_function(module, name, labels_of, after=None):
        original = getattr(module, name)
        _replace_everywhere(original, _spanned(tracer, original, labels_of, after))

    def patch_method(cls, name, labels_of, after=None):
        setattr(cls, name, _spanned(tracer, getattr(cls, name), labels_of, after))

    # data
    def count_frames(args, corpus_set):
        for split in (corpus_set.train, corpus_set.test):
            if split is not None:
                tracer.counts["data.frames_generated"] += sum(s.n_frames for s in split.sequences)

    patch_function(data, "generate_corpus", fixed("data.generate"), count_frames)
    patch_function(data, "write_corpus", fixed("data.write"))
    patch_function(data, "load_corpus", fixed("data.load"))
    patch_function(data, "load_csv", fixed("data.load_csv"))
    patch_function(data, "save_csv", fixed("data.save_csv"))

    # checkpoints; saves made by fit are also the training checkpoint phase
    def save_labels(args):
        if tracer.inside("training.fit"):
            return ("training.checkpoint", "checkpoint.save")
        return ("checkpoint.save",)

    for module in (model, discriminator):
        patch_function(module, "save_checkpoint", save_labels)
        patch_function(module, "load_checkpoint", fixed("checkpoint.load"))

    # model
    def rollout_labels(args):
        label = "model.rollout_" + grad_suffix()
        return ("training.rollout_forward", label) if in_step() else (label,)

    patch_function(model, "rollout_graph", rollout_labels)
    patch_method(model.EncoderModel, "forward_window",
                 lambda args: ("model.forward_window_" + grad_suffix(),))
    patch_method(model.EncoderLayer, "attention", fixed("model.attention"))
    patch_method(model.EncoderLayer, "__call__", fixed("model.encoder_layer"))

    # discriminator and losses
    patch_method(discriminator.DiscriminatorModel, "forward", fixed("discriminator.forward"))

    def remember_disc_loss(args, result):
        tracer.disc_loss_id = id(result)

    patch_function(discriminator, "discriminator_loss",
                   lambda args: ("training.disc_update",) if in_step() else (),
                   remember_disc_loss)
    patch_function(
        losses, "total_loss",
        lambda args: ("training.loss", "losses.total_loss") if in_step() else ("losses.total_loss",),
    )

    # tensor engine
    def backward_labels(args):
        if not in_step():
            return ("tensor.backward",)
        if id(args[0]) == tracer.disc_loss_id:
            return ("training.disc_update", "tensor.backward")
        start = _clock()
        tracer.counts["tensor.graph_nodes"] += _graph_nodes(args[0])
        tracer.counts["tensor.encoder_backwards"] += 1
        tracer.hide(_clock() - start)
        return ("training.enc_backward", "tensor.backward")

    patch_method(tensor.Tensor, "backward", backward_labels)

    original_matmul = tensor.matmul

    def counted_matmul(a, b):
        if tracer.enabled:
            tracer.counts["tensor.matmul"] += 1
        return original_matmul(a, b)

    _replace_everywhere(original_matmul, counted_matmul)

    # training
    def step_labels(args):
        tracer.trainer = args[0]
        tracer.disc_loss_id = None
        return ("training.step",)

    patch_method(training.Trainer, "train_step", step_labels)

    def optimizer_phase(params):
        """Clip and Adam calls on the discriminator's parameters belong to its update."""
        if not in_step():
            return ()
        disc_opt = tracer.trainer.disc_opt
        if disc_opt is not None and params is disc_opt.params:
            return ("training.disc_update",)
        return ("training.optimizer",)

    patch_method(training.Adam, "step", lambda args: optimizer_phase(args[0].params))
    patch_function(training, "clip_gradients", lambda args: optimizer_phase(args[0]))
    patch_function(training, "_validate", fixed("training.validate"))
    patch_function(training, "fit", fixed("training.fit"))

    # evaluation
    patch_function(evaluation, "_batched_rollout", fixed("evaluation.rollout"))
    patch_function(evaluation, "evaluate", fixed("evaluation.evaluate"))
