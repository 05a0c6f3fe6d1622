"""Spans and tape counts recorded from outside the library.

The benchmark times calls into each rotinv module by swapping the module or
class attribute that the library looks up at call time for a wrapper that
records a span.  Nothing in ``src/`` is edited: installing the wrappers is a
``setattr`` per entry point and removing them restores the originals, so a
run can alternate traced and untraced units in one process.

A span is ``[name, start, end, parent, step]``, where step numbers the
traced units.  Spans are kept in memory and written out when the run ends.
A layer's self time is its span's duration minus the durations of its direct
children.  Calls made outside a traced unit record nothing, so every span
lies under a ``harness.step`` span and the self times add up to the step.
"""
from __future__ import annotations

import time
from collections import Counter
from statistics import fmean, median

from rotinv import autodiff, frames, harness, network, vecneuron

# (owner, attribute, layer).  Each owner is the namespace the library itself
# looks the name up in, so the wrapper is what the library calls.
ENTRY_POINTS = (
    (network.FusionModel, "forward", "network.forward"),
    (network.FusionModel, "_invariance_defect", "harness.probe"),
    (network, "knn_graph", "geometry.knn"),
    (vecneuron.EquivariantEncoder, "__call__", "vecneuron.encoder"),
    (frames, "project_pair", "frames.build"),
    (frames, "identity_frames", "frames.build"),
    (frames, "handcrafted_frame", "frames.build"),
    (frames, "gram_schmidt_frame", "frames.build"),
    (frames, "lcrf_frame", "frames.build"),
    (harness, "total_loss", "network.loss"),
    (frames, "orthogonality_loss", "frames.loss"),
    (frames, "consistency_loss", "frames.loss"),
    (autodiff, "backward", "autodiff.backward"),
    (autodiff.SGD, "step", "autodiff.optimizer"),
    (autodiff.SGD, "zero_grad", "autodiff.optimizer"),
    (harness, "_rotate_batch", "harness.rotate"),
    (harness, "_clip_gradients", "harness.clip"),
)

# The once-per-epoch invariance probe re-runs the whole forward pass; its
# nested calls are not recorded, so all of it is the probe's self time.
OPAQUE = {"harness.probe"}

# The harness's own work in a step, outside the model, loss and optimizer.
HARNESS_OTHER = ("harness.rotate", "harness.clip", "harness.sink", "harness.probe")

# Ops whose counts the later edge_linear, scatter and concat work should move.
TAPE_OPS = ("matmul", "getitem", "concat", "broadcast_to", "mul")


def tape_table(root) -> tuple[Counter, int]:
    """Count the recorded ops reachable from `root` and their output bytes.

    Walks ``_parents`` read-only.  Leaves (parameters, constants) are not
    counted; a root built without gradient recording has an empty tape.
    """
    counts: Counter = Counter()
    nbytes = 0
    if root is None or not root.requires_grad:
        return counts, nbytes
    seen = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node._op:
            counts[node._op] += 1
            nbytes += node.data.nbytes
        stack.extend(node._parents)
    return counts, nbytes


class Tracer:
    """Records spans around the library's entry points for selected units."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self._opaque = 0
        self.step = -1                # index of the current traced unit
        self.root = None              # tape root of the current unit
        self.tapes: list[tuple[Counter, int]] = []
        self.degenerate: list[float] = []
        self._patches = [(owner, attr, getattr(owner, attr),
                          self._wrap(getattr(owner, attr), layer))
                         for owner, attr, layer in ENTRY_POINTS]
        self.installed = False

    # -- entry-point wrappers ------------------------------------------------

    def _wrap(self, fn, layer):
        def traced(*args, **kwargs):
            # record only inside a traced unit's harness.step span
            if self._opaque or not self._open:
                return fn(*args, **kwargs)
            idx = self.open(layer)
            self._opaque += layer in OPAQUE
            try:
                out = fn(*args, **kwargs)
            finally:
                self._opaque -= layer in OPAQUE
                self.close(idx)
            if layer == "network.forward":
                self.root = out.prediction_logits
                self.degenerate.append(out.diagnostics["degenerate_fraction"])
            elif layer == "autodiff.backward":
                self.root = args[0]
            return out
        return traced

    def install(self) -> None:
        if not self.installed:
            for owner, attr, _, wrapped in self._patches:
                setattr(owner, attr, wrapped)
            self.installed = True

    def uninstall(self) -> None:
        if self.installed:
            for owner, attr, original, _ in self._patches:
                setattr(owner, attr, original)
            self.installed = False

    # -- spans ---------------------------------------------------------------

    def open(self, name: str, start: float | None = None) -> int:
        parent = self._open[-1] if self._open else -1
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter() if start is None else start,
                           None, parent, self.step])
        self._open.append(idx)
        return idx

    def close(self, idx: int, end: float | None = None) -> None:
        self.spans[idx][2] = time.perf_counter() if end is None else end
        self._open.pop()

    def begin_unit(self, start: float) -> int:
        self.step += 1
        self.root = None
        return self.open("harness.step", start)

    def end_unit(self, idx: int, end: float) -> None:
        self.close(idx, end)
        self.tapes.append(tape_table(self.root))
        self.root = None

    # -- report --------------------------------------------------------------

    def span_records(self) -> list[dict]:
        return [dict(zip(("name", "start", "end", "parent", "step"), s))
                for s in self.spans]

    def layer_table(self) -> dict[str, float]:
        """Per-unit means of each layer's self time, plus per-unit counts."""
        units = self.step + 1
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: Counter = Counter()
        incl: Counter = Counter()
        calls: Counter = Counter()
        for (name, start, end, _, _), inner in zip(self.spans, child):
            self_s[name] += (end - start - inner) / units
            incl[name] += (end - start) / units
            calls[name] += 1
        ops = {op: median(c.get(op, 0) for c, _ in self.tapes) for op in TAPE_OPS}
        return {
            "autodiff.backward_s": self_s["autodiff.backward"],
            "autodiff.optimizer_s": self_s["autodiff.optimizer"],
            "autodiff.tape_nodes": median(sum(c.values()) for c, _ in self.tapes),
            "autodiff.tape_mb": median(b for _, b in self.tapes) / 2**20,
            **{f"autodiff.nodes.{op}": n for op, n in ops.items()},
            "vecneuron.encoder_s": self_s["vecneuron.encoder"],
            "network.forward_s": incl["network.forward"] - incl["harness.probe"],
            "network.forward_self_s": self_s["network.forward"],
            "network.loss_self_s": self_s["network.loss"],
            "geometry.knn_s": self_s["geometry.knn"],
            "geometry.knn_calls": calls["geometry.knn"] / units,
            "frames.build_s": self_s["frames.build"],
            "frames.loss_s": self_s["frames.loss"],
            "frames.valid_ratio": 1.0 - fmean(self.degenerate),
            "harness.other_s": sum(self_s[k] for k in HARNESS_OTHER),
            "trace.step_s": incl["harness.step"],
            "trace.unaccounted_s": self_s["harness.step"],
        }
