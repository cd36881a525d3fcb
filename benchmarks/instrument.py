"""Run instrumentation for the benchmark: a phase and step clock that every
run uses, and a span tracer that only ``--trace 1`` runs switch on.

Both work by rebinding attributes of the ``pointcl`` modules to wrappers, so
the program itself is measured unchanged.  The clock owns four bindings in
``pointcl.training`` that ``pretrain`` calls once per step or checkpoint:
``build_batch`` starts a step, ``adam_step`` ends it, and
``save_train_checkpoint`` / ``load_train_checkpoint`` are timed per call.
Everything else is timed only while the tracer is active.
"""

from __future__ import annotations

import inspect
import os
import re
import time
from collections import defaultdict
from contextlib import contextmanager

from pointcl import (evaluation, losses, models, pointcloud, tensor, training,
                     transforms)

MODULES = (tensor, pointcloud, transforms, models, losses, training, evaluation)

# Ops the workloads run that build tape nodes outside pointcl.tensor; looked
# up by name so a later version that removes one still traces the rest.
PRIVATE_OPS = ((training, "_rows"), (losses, "_slice_pair"))


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _by_mode(base, index):
    """Span name that tells training-mode calls from eval-mode ones."""
    def name(args, kwargs):
        return base if _arg(args, kwargs, index, "training") else base + "_eval"
    return name


# (module, function, span name or callable(args, kwargs) -> span name)
LAYERS = (
    (tensor, "backward", "tensor.backward"),
    (pointcloud, "generate_synthetic_dataset", "pointcloud.generate"),
    (pointcloud, "sample_points", "pointcloud.sample_points"),
    (transforms, "apply_transform",
     lambda a, k: "transforms." + _arg(a, k, 1, "spec").kind),
    (models, "encode", _by_mode("models.encode", 2)),
    (models, "project", _by_mode("models.project", 2)),
    (models, "segment_embed", _by_mode("models.segment_embed", 3)),
    (models, "save_checkpoint", "models.save_checkpoint"),
    (models, "load_checkpoint", "models.load_checkpoint"),
    (losses, "contrastive_loss_cls", "losses.cls"),
    (losses, "contrastive_loss_seg", "losses.seg"),
    (training, "build_batch", "training.build_batch"),
    (training, "adam_step", "training.adam_step"),
    (training, "save_train_checkpoint", "training.save_train_checkpoint"),
    (training, "load_train_checkpoint", "training.load_train_checkpoint"),
    (evaluation, "extract_features", "evaluation.extract_features"),
    (evaluation, "extract_point_features", "evaluation.extract_point_features"),
    (evaluation, "fit_probe", "evaluation.fit_probe"),
)

CLOCK_OWNED = ("build_batch", "adam_step", "save_train_checkpoint",
               "load_train_checkpoint")


def op_key(op: str) -> str:
    """Tape op name with its index dropped: 'slice[3]' -> 'slice'."""
    return re.sub(r"\[.*\]$", "", op)


def tape_size(loss):
    """(recorded nodes, bytes of their outputs) reachable from loss."""
    seen, stack, nodes, nbytes = set(), [loss], 0, 0
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        if t._backward is not None:
            nodes += 1
            nbytes += t.data.nbytes
        stack.extend(t._parents)
    return nodes, nbytes


class Instrument:
    """Phase and step timings for every run; spans when ``trace`` is set.

    In a traced run the pretraining steps after warm-up alternate between
    traced and untraced, so the same run measures the tracer's overhead.
    """

    def __init__(self, trace: bool, warmup: int):
        self.trace = trace
        self.warmup = warmup
        self.phase_name = "start"
        self.phase_s = defaultdict(list)      # phase -> wall seconds per entry
        self.steps = []                       # (seconds, traced) after warm-up
        self.save_s, self.load_s = [], []
        self.last_save = None                 # args of the latest training save
        self.saved_paths = []                 # path of every training save
        self.spans = []                       # (name, start, end, parent, phase)
        self.counts = defaultdict(float)      # (phase, key) -> total
        self.active = False
        self._stack = []
        self._step_index = 0
        self._step_t0 = None
        self._traced_patches = []
        self._originals = []
        self._cpus = sorted(os.sched_getaffinity(0))
        self._hops = defaultdict(int)
        self._install()

    # -- patching -----------------------------------------------------------

    def _patch(self, module, attr, wrapper, group):
        self._originals.append((module, attr, getattr(module, attr)))
        group.append((module, attr, getattr(module, attr), wrapper))

    def _install(self):
        clock = []
        for attr in CLOCK_OWNED:
            fn = getattr(training, attr)
            self._patch(training, attr, getattr(self, "_clock_" + attr)(fn), clock)
        for module, attr, _, wrapper in clock:
            setattr(module, attr, wrapper)
        if not self.trace:
            return
        targets = [getattr(tensor, n) for n in tensor.__all__]
        targets = [f for f in targets if inspect.isfunction(f) and f is not tensor.backward]
        targets += [getattr(m, n) for m, n in PRIVATE_OPS if hasattr(m, n)]
        wrapped = [(f, self._op_wrapper(f)) for f in targets]
        for module, attr, namer in LAYERS:
            fn = getattr(module, attr)
            if attr in CLOCK_OWNED and module is training:
                fn = fn.__wrapped__
            wrapped.append((fn, self._layer_wrapper(fn, namer)))
        for fn, wrapper in wrapped:
            for module in MODULES:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._patch(module, attr, wrapper, self._traced_patches)

    def set_active(self, on: bool):
        if not self.trace or on == self.active:
            return
        self.active = on
        for module, attr, original, wrapper in self._traced_patches:
            setattr(module, attr, wrapper if on else original)

    def _hop(self, kind):
        """Move the (single) thread to the next CPU in turn for this kind of
        event (a step, a phase, a checkpoint save or load).

        On a shared host each CPU is slowed by its own neighbours, by up to
        40% and for seconds at a time.  Taking each kind of event on the
        CPUs in turn spreads it evenly over all of them, so a run does not
        depend on which CPU happened to be quiet.
        """
        if len(self._cpus) > 1:
            n = self._hops[kind]
            self._hops[kind] = n + 1
            os.sched_setaffinity(0, {self._cpus[n % len(self._cpus)]})

    def restore(self):
        os.sched_setaffinity(0, self._cpus)
        self.active = False
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)

    # -- phases -------------------------------------------------------------

    @contextmanager
    def phase(self, name):
        outer = self.phase_name
        self.phase_name = name
        self._step_index = 0
        self.set_active(True)
        self._hop(name)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.phase_s[name].append(time.perf_counter() - t0)
            self.phase_name = outer

    # -- spans --------------------------------------------------------------

    def _span(self, name, fn, args, kwargs):
        spans, stack = self.spans, self._stack
        idx = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(idx)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            spans[idx] = (name, t0, t1, parent, self.phase_name)

    def _call(self, name, fn, args, kwargs):
        if self.active:
            return self._span(name, fn, args, kwargs)
        return fn(*args, **kwargs)

    def _layer_wrapper(self, fn, namer):
        def layer(*args, **kwargs):
            name = namer if isinstance(namer, str) else namer(args, kwargs)
            if name == "tensor.backward" and self.phase_name == "pretrain":
                nodes, nbytes = tape_size(args[0])
                self.counts["pretrain", "tape_nodes"] += nodes
                self.counts["pretrain", "tape_bytes"] += nbytes
            if name == "evaluation.fit_probe":
                self.counts[self.phase_name, "fit_probe_rows"] += len(args[0])
            return self._span(name, fn, args, kwargs)
        return layer

    def _op_wrapper(self, fn):
        """Times one tensor op; the span is named by the tape op it records.

        A call that recorded spans of its own is a composite (such as
        linear_forward) and keeps the function's name; a call that returns
        one of its inputs (dropout at rate 0) recorded no node and no span.
        """
        fname = fn.__name__

        def op(*args, **kwargs):
            spans, stack = self.spans, self._stack
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                spans[idx] = ("tensor." + fname, t0, time.perf_counter(), parent,
                              self.phase_name)
                raise
            finally:
                stack.pop()
            t1 = time.perf_counter()
            if len(spans) > idx + 1:
                spans[idx] = ("tensor." + fname, t0, t1, parent, self.phase_name)
            elif any(out is a for a in args):
                spans.pop()
            else:
                name = "tensor." + op_key(out._op)
                spans[idx] = (name + ".fwd", t0, t1, parent, self.phase_name)
                if out._backward is not None:
                    out._backward = self._bw_wrapper(name + ".bwd", out._backward)
            return out
        return op

    def _bw_wrapper(self, name, bw):
        def timed(g):
            self._span(name, bw, (g,), {})
        return timed

    # -- the clock-owned bindings in pointcl.training -------------------------

    def _clock_build_batch(self, fn):
        def build_batch(*args, **kwargs):
            if self.phase_name != "pretrain":
                return self._call("training.build_batch", fn, args, kwargs)
            i = self._step_index - self.warmup
            self.set_active(i >= 0 and i % 2 == 0)
            self._hop("step")
            self._step_t0 = time.perf_counter()
            return self._call("training.build_batch", fn, args, kwargs)
        build_batch.__wrapped__ = fn
        return build_batch

    def _clock_adam_step(self, fn):
        def adam_step(*args, **kwargs):
            out = self._call("training.adam_step", fn, args, kwargs)
            if self.phase_name == "pretrain" and self._step_t0 is not None:
                dt = time.perf_counter() - self._step_t0
                if self._step_index >= self.warmup:
                    self.steps.append((dt, self.active))
                self._step_index += 1
                self._step_t0 = None
                self.set_active(True)
            return out
        adam_step.__wrapped__ = fn
        return adam_step

    def _clock_save_train_checkpoint(self, fn):
        def save_train_checkpoint(*args, **kwargs):
            self._hop("save_train_checkpoint")
            t0 = time.perf_counter()
            self._call("training.save_train_checkpoint", fn, args, kwargs)
            self.save_s.append(time.perf_counter() - t0)
            self.last_save = args
            self.saved_paths.append(str(_arg(args, kwargs, 4, "path")))
        save_train_checkpoint.__wrapped__ = fn
        return save_train_checkpoint

    def _clock_load_train_checkpoint(self, fn):
        def load_train_checkpoint(*args, **kwargs):
            self._hop("load_train_checkpoint")
            t0 = time.perf_counter()
            out = self._call("training.load_train_checkpoint", fn, args, kwargs)
            self.load_s.append(time.perf_counter() - t0)
            return out
        load_train_checkpoint.__wrapped__ = fn
        return load_train_checkpoint

    # -- reports ------------------------------------------------------------

    def self_times(self):
        """{(phase, name): [calls, total s, self s]} from the recorded spans."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        table = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, t0, t1, _, phase) in enumerate(self.spans):
            row = table[phase, name]
            row[0] += 1
            row[1] += t1 - t0
            row[2] += t1 - t0 - child[i]
        return table

    def write_spans(self, path, t_origin):
        with open(path, "w") as f:
            for i, (name, t0, t1, parent, phase) in enumerate(self.spans):
                f.write(f'{{"id":{i},"name":"{name}","start":{t0 - t_origin:.7f},'
                        f'"end":{t1 - t_origin:.7f},"parent":{parent},'
                        f'"phase":"{phase}"}}\n')
