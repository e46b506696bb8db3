"""Per-layer CPU timing from outside the program.

The tracer rebinds public names of the oodgat modules at the places the
program looks them up (for example `training.model_forward`, which the
training loop calls by its module-level name) with wrappers that time
each call on the process CPU clock. Nothing under src/ is edited, and
`uninstall` puts every original back.

Spans nest: `training.train` contains the forward, objective, backward,
Adam and validation spans of its steps, and `metrics.eval` (one
`evaluate_run`) contains an evaluation forward and `metrics.joint_f1`.
"""

from __future__ import annotations

import time
from collections import defaultdict

# (module, attribute, span name); a name of None means the span is
# chosen per call (a forward pass is a training or an evaluation pass)
SPANS = (
    ("training", "backward", "engine.backward"),
    ("training", "model_forward", None),
    ("experiments", "model_forward", "layers.eval_forward"),
    ("training", "graph_index", "layers.index"),
    ("experiments", "graph_index", "layers.index"),
    ("training", "compute_objective", "losses.objective"),
    ("training", "validation_scores", "training.validation"),
    ("training", "adam_step", "training.adam"),
    ("experiments", "train", "training.train"),
    ("experiments", "evaluate_run", "metrics.eval"),
    ("metrics", "joint_f1", "metrics.joint_f1"),
    ("experiments", "load_graph_bundle", "graphs.load"),
    ("experiments", "sbm_generate", "graphs.load"),
    ("experiments", "make_splits", "graphs.splits"),
)


def _forward_span(kwargs) -> str:
    return "layers.train_forward" if kwargs.get("training") else "layers.eval_forward"


class Tracer:
    """Collects CPU seconds per call of each span, and the counts that go
    with them (tape length per backward, steps per training run)."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.cpu: dict[str, list[float]] = defaultdict(list)
        self.tape_nodes: list[int] = []
        self.steps: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, span):
        clock = time.process_time

        def timed(*args, **kwargs):
            name = span or _forward_span(kwargs)
            start = clock()
            result = fn(*args, **kwargs)
            self.cpu[name].append(clock() - start)
            if name == "engine.backward":
                self.tape_nodes.append(args[0].tape_id + 1)
            elif name == "training.train":
                self.steps.append(len(result[1].steps))
            return result
        return timed

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for mod_name, attr, span in SPANS:
            mod = self.modules[mod_name]
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, span))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def per_layer(self, runner_cpu: list[float]) -> dict[str, float]:
        """Per-layer metrics over every traced runner call.

        Times are mean CPU ms per call. `experiments.self_ms` is the
        runner's CPU per call minus the `train` and `evaluate_run` spans.
        """
        def per_call(name):
            vals = self.cpu.get(name, [])
            return 1000.0 * sum(vals) / len(vals) if vals else 0.0

        train_calls = len(self.cpu["training.train"])
        total_steps = sum(self.steps)
        inner = sum(self.cpu["training.train"]) + sum(self.cpu["metrics.eval"])
        return {
            "engine.backward_ms": per_call("engine.backward"),
            "engine.tape_nodes": sum(self.tape_nodes) / len(self.tape_nodes),
            "layers.train_forward_ms": per_call("layers.train_forward"),
            "layers.eval_forward_ms": per_call("layers.eval_forward"),
            "layers.index_builds": len(self.cpu["layers.index"]) / train_calls,
            "layers.index_ms": per_call("layers.index"),
            "losses.objective_ms": per_call("losses.objective"),
            "training.validation_ms": per_call("training.validation"),
            "training.adam_ms": per_call("training.adam"),
            "training.step_ms": 1000.0 * sum(self.cpu["training.train"]) / total_steps,
            "training.steps": total_steps / train_calls,
            "metrics.eval_ms": per_call("metrics.eval"),
            "metrics.joint_f1_ms": per_call("metrics.joint_f1"),
            "graphs.load_ms": per_call("graphs.load"),
            "graphs.splits_ms": per_call("graphs.splits"),
            "experiments.self_ms": 1000.0 * (sum(runner_cpu) - inner) / len(runner_cpu),
        }
