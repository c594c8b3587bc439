"""Forward/backward time of each ToothSegNet layer on its recorded input.

One forward pass runs with every layer replaced by a probe that keeps the
arguments of its first call. Each layer then runs again on that input,
made a leaf tensor, and the backward pass starts from a fixed random
projection of its output. Layers run on a deep copy of the network, so
batch-norm running statistics and gradients of the benchmark's own net
are untouched.

The edge bytes of an EdgeConv layer are computed, not measured: one
float64 (N*k, C_out) edge tensor, the size the training path materialises.
"""

from __future__ import annotations

import copy
import time

import numpy as np

# metric name -> attribute of ToothSegNet; a list attribute is one layer
LAYERS = (
    ("mlp1", "mlp1"),
    ("ftm", "ftm"),
    ("glm1", "glm1"),
    ("mlp2", "mlp2"),
    ("glm2_k6", "glm2_k6"),
    ("glm2_k12", "glm2_k12"),
    ("glm2_fuse", "glm2_fuse"),
    ("mlp3", "mlp3"),
    ("head", "head_conv"),
)
EDGE_LAYERS = ("glm1", "glm2_k6", "glm2_k12")


class _Probe:
    def __init__(self, inner):
        self.inner = inner
        self.call = None

    def __call__(self, *args, **kwargs):
        if self.call is None:
            self.call = (args, kwargs)
        return self.inner(*args, **kwargs)


def _sequence(blocks):
    def run(x, *args, **kwargs):
        for block in blocks:
            x = block(x, *args, **kwargs)
        return x
    return run


def layer_metrics(ad, net, features, graph6, graph12, training: bool) -> dict:
    """networks.<layer>.fwd_s / bwd_s / edge_bytes for one input.

    With training False the layers run under no_grad in inference mode, as
    in the pipeline, and bwd_s is 0.
    """
    net = copy.deepcopy(net)
    probes = {}
    for name, attr in LAYERS:
        value = getattr(net, attr, None)
        if isinstance(value, list) and value:
            probes[name] = (attr, value, _Probe(value[0]))
            setattr(net, attr, [probes[name][2]] + value[1:])
        elif value is not None:
            probes[name] = (attr, value, _Probe(value))
            setattr(net, attr, probes[name][2])
    try:
        if training:
            net.forward(ad.Tensor(features), graph6, graph12, training=True)
        else:
            with ad.no_grad():
                net.forward(ad.Tensor(features), graph6, graph12, training=False)
    finally:
        for attr, value, _ in probes.values():
            setattr(net, attr, value)

    # the first pass only warms allocations up; the second is reported
    for _ in range(2):
        out = _time_layers(ad, probes, training)
    return out


def _time_layers(ad, probes: dict, training: bool) -> dict:
    rng = np.random.default_rng(0)
    out: dict = {}
    for name, (_, value, probe) in probes.items():
        if probe.call is None:
            continue
        args, kwargs = probe.call
        run = _sequence(value) if isinstance(value, list) else value
        leaf = ad.Tensor(args[0].data, requires_grad=training)
        start = time.perf_counter()
        if training:
            result = run(leaf, *args[1:], **kwargs)
        else:
            with ad.no_grad():
                result = run(leaf, *args[1:], **kwargs)
        out[f"networks.{name}.fwd_s"] = time.perf_counter() - start
        out[f"networks.{name}.bwd_s"] = 0.0
        if training:
            weights = rng.standard_normal(result.data.shape)
            loss = ad.reduce_sum(ad.mul(result, weights))
            start = time.perf_counter()
            ad.backward(loss)
            out[f"networks.{name}.bwd_s"] = time.perf_counter() - start
        if name in EDGE_LAYERS:
            graph = args[1]
            k = np.asarray(getattr(graph, "neighbors", graph)).shape[1]
            rows, cout = args[0].data.shape[0], result.data.shape[1]
            out[f"networks.{name}.edge_bytes"] = float(rows * k * cout * 8)
    return out
