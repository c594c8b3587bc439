"""Network shapes, heads, equivariance, and loss oracles."""

import copy
import tracemalloc

import numpy as np
import pytest

from dentalmesh import autodiff as ad
from dentalmesh import geometry as geo
from dentalmesh import landmarks as lm
from dentalmesh import networks as nets
from dentalmesh.autodiff import Tensor
from dentalmesh.errors import (
    CheckpointError,
    DentalMeshError,
    NonFiniteGradientError,
    ShapeError,
)
from dentalmesh.mesh_io import load_checkpoint, save_checkpoint
from dentalmesh.training import network_output

from helpers import (
    check_grads,
    reference_edge_conv,
    reference_heatmap_forward,
    reference_seg_forward,
    widened,
)


def _features_and_graphs(n=24, seed=0, dim=15):
    rng = np.random.default_rng(seed)
    feats = rng.normal(size=(n, dim))
    points = rng.normal(scale=5.0, size=(n, 3))
    return feats, geo.knn_graph(points, 6), geo.knn_graph(points, 12), points


def test_seg_net_softmax_rows(rng):
    feats, g6, g12, _ = _features_and_graphs()
    net = widened(nets.ToothSegNet(seed=1))
    out = net(Tensor(feats), g6, g12)
    assert out.data.shape == (24, nets.NUM_CLASSES)
    assert np.all(out.data > 0.0)
    assert np.max(np.abs(out.data.sum(axis=1) - 1.0)) < 1e-9


def test_seg_net_sigmoid_head():
    feats, g6, g12, _ = _features_and_graphs(n=18, seed=2)
    net = nets.ToothSegNet(seed=3, out_channels=5, head="sigmoid")
    assert net.head == "sigmoid"
    out = net(Tensor(feats), g6, g12)
    assert out.data.shape == (18, 5)
    assert np.all((out.data > 0.0) & (out.data < 1.0))
    # sigmoid rows are independent activations, not a distribution
    assert np.any(np.abs(out.data.sum(axis=1) - 1.0) > 1e-3)


def test_seg_net_ctor_validation():
    with pytest.raises(ValueError, match="head"):
        nets.ToothSegNet(head="linear")


def test_seg_net_forward_rejects_bad_inputs_with_shape_error():
    # a typed package error, so the CLI exits 2 instead of printing a traceback
    assert issubclass(ShapeError, DentalMeshError)
    feats, g6, g12, _ = _features_and_graphs(n=16, seed=4)
    net = nets.ToothSegNet(seed=5)
    with pytest.raises(ShapeError):
        net(Tensor(feats[:, :14]), g6, g12)
    with pytest.raises(ShapeError, match="k=12 graph has 16 rows for 15 feature rows"):
        net(Tensor(feats[:15]), geo.knn_graph(feats[:15], 6), g12)


def test_heatmap_net_shapes():
    rng = np.random.default_rng(6)
    feats = rng.normal(size=(20, 15))
    net = nets.PointHeatmapNet(seed=7, out_channels=4)
    out = net(Tensor(feats))
    assert out.data.shape == (20, 4)
    assert np.all((out.data > 0.0) & (out.data < 1.0))


def test_seg_net_permutation_equivariance():
    # relabeling the cells must permute the output rows and nothing else;
    # batch statistics sum the rows in the new order, so to float64 rounding
    feats, _, _, points = _features_and_graphs(n=30, seed=8)
    net = widened(nets.ToothSegNet(seed=9))
    out = net(Tensor(feats), geo.knn_graph(points, 6), geo.knn_graph(points, 12))

    perm = np.random.default_rng(10).permutation(30)
    out_p = net(
        Tensor(feats[perm]),
        geo.knn_graph(points[perm], 6),
        geo.knn_graph(points[perm], 12),
    )
    assert _rel(out_p.data, out.data[perm]) < 1e-12


def test_heatmap_net_permutation_equivariance():
    rng = np.random.default_rng(11)
    feats = rng.normal(size=(25, 15))
    net = widened(nets.PointHeatmapNet(seed=12, out_channels=3))
    out = net(Tensor(feats))
    perm = rng.permutation(25)
    out_p = net(Tensor(feats[perm]))
    assert _rel(out_p.data, out.data[perm]) < 1e-12  # to rounding, as above


def test_one_hot():
    labels = np.array([0, 2, 14, 2])
    oh = nets.one_hot(labels)
    assert oh.shape == (4, 15)
    assert np.array_equal(oh.sum(axis=1), np.ones(4))
    assert np.array_equal(np.argmax(oh, axis=1), labels)


def _gdl_reference(probs, target, smooth=nets.GDL_SMOOTH):
    vol = target.sum(axis=0)
    weight = np.where(vol > 0, 1.0 / np.maximum(vol, 1.0) ** 2, 0.0)
    inter = (probs * target).sum(axis=0)
    total = probs.sum(axis=0) + vol
    return 1.0 - (2.0 * (weight * inter).sum() + smooth) / ((weight * total).sum() + smooth)


def test_generalized_dice_loss_matches_reference(rng):
    raw = rng.random((12, 15)) + 1e-3
    probs = raw / raw.sum(axis=1, keepdims=True)
    target = nets.one_hot(rng.integers(0, 15, size=12))
    loss = nets.generalized_dice_loss(Tensor(probs), target)
    assert loss.data == pytest.approx(_gdl_reference(probs, target), abs=1e-12)
    assert 0.0 <= loss.data <= 1.0


def test_generalized_dice_loss_perfect_prediction_is_zero():
    target = nets.one_hot(np.array([0, 3, 3, 7]))
    loss = nets.generalized_dice_loss(Tensor(target.copy()), target)
    assert loss.data == pytest.approx(0.0, abs=1e-12)


def test_generalized_dice_loss_ignores_absent_classes(rng):
    # the target never shows class 5, so probability mass parked there
    # must not move the loss (absent classes get zero weight)
    target = nets.one_hot(np.array([0, 1, 1, 2]))
    raw = rng.random((4, 15)) + 1e-3
    probs_a = raw / raw.sum(axis=1, keepdims=True)
    probs_b = probs_a.copy()
    probs_b[:, 5] += 0.4
    loss_a = nets.generalized_dice_loss(Tensor(probs_a), target)
    loss_b = nets.generalized_dice_loss(Tensor(probs_b), target)
    assert loss_a.data == pytest.approx(loss_b.data, abs=1e-12)


def test_loss_shape_validation():
    with pytest.raises(ValueError, match="shape"):
        nets.generalized_dice_loss(Tensor(np.zeros((3, 15))), np.zeros((4, 15)))
    with pytest.raises(ValueError, match="shape"):
        nets.mse_loss(Tensor(np.zeros((3, 2))), np.zeros((3, 3)))


def test_mse_loss_matches_reference(rng):
    pred = rng.normal(size=(9, 4))
    target = rng.normal(size=(9, 4))
    loss = nets.mse_loss(Tensor(pred), target)
    assert loss.data == pytest.approx(np.mean((pred - target) ** 2), abs=1e-14)
    zero = nets.mse_loss(Tensor(target.copy()), target)
    assert zero.data == 0.0


def test_state_round_trip_reproduces_outputs():
    feats, g6, g12, _ = _features_and_graphs(n=14, seed=15)
    net = nets.ToothSegNet(seed=16)
    before = net(Tensor(feats), g6, g12).data

    clone = nets.ToothSegNet(seed=99)  # different init on purpose
    assert not np.array_equal(clone(Tensor(feats), g6, g12).data, before)
    clone.load_state_arrays(net.state_arrays())
    assert np.array_equal(clone(Tensor(feats), g6, g12).data, before)


def test_state_round_trip_heatmap_net():
    rng = np.random.default_rng(17)
    feats = rng.normal(size=(10, 15))
    net = nets.PointHeatmapNet(seed=18, out_channels=6)
    clone = nets.PointHeatmapNet(seed=19, out_channels=6)
    clone.load_state_arrays(net.state_arrays())
    assert np.array_equal(clone(Tensor(feats)).data, net(Tensor(feats)).data)


def test_float64_checkpoint_loads_rounded_and_round_trips(tmp_path):
    """A checkpoint stores float64. Values a float32 net cannot hold load
    rounded to float32; a float32 net's own values widen and come back
    exactly, so save -> load -> save writes the same bytes."""
    net = nets.PointHeatmapNet(seed=24, out_channels=2)
    rng = np.random.default_rng(25)
    wide = {name: rng.normal(size=a.shape) for name, a in net.state_arrays().items()}
    assert all(np.any(a.astype(np.float32) != a) for a in wide.values())
    save_checkpoint(tmp_path / "wide.ckpt", net.arch_tag(), wide, {})
    net.load_state_arrays(load_checkpoint(tmp_path / "wide.ckpt")[1])
    for name, p in net.named_parameters():
        assert p.data.dtype == np.float32
        assert np.array_equal(p.data, wide[name].astype(np.float32)), name

    save_checkpoint(tmp_path / "a.ckpt", net.arch_tag(), net.state_arrays(), {})
    clone = nets.PointHeatmapNet(seed=26, out_channels=2)
    clone.load_state_arrays(load_checkpoint(tmp_path / "a.ckpt")[1])
    save_checkpoint(tmp_path / "b.ckpt", clone.arch_tag(), clone.state_arrays(), {})
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


@pytest.mark.parametrize("kind", ["seg", "point-heatmap"])
def test_float32_nets_match_their_float64_copies(kind, small_arch):
    """Each net computes in float32 and stays within 1e-4 of the same net
    widened to float64: ToothSegNet on the whole 4,500-cell arch, the
    heatmap net on one tooth's ROI."""
    mesh, ann = small_arch
    if kind == "seg":
        net = nets.ToothSegNet(seed=0)
    else:
        tooth = lm.landmark_teeth()[0]
        mesh = geo.extract_roi(mesh, ann.labels, tooth).mesh
        net = nets.PointHeatmapNet(seed=0, out_channels=len(lm.landmark_names(tooth)))
    out = network_output(net, mesh)
    ref = network_output(widened(net), mesh)
    assert not np.array_equal(out, ref)  # the nets did compute in float32
    assert np.max(np.abs(out - ref)) < 1e-4


def test_load_state_arrays_rejects_mismatch():
    net = nets.PointHeatmapNet(seed=20, out_channels=2)
    state = net.state_arrays()
    missing = dict(state)
    missing.pop(next(iter(missing)))
    with pytest.raises(CheckpointError, match="state keys"):
        net.load_state_arrays(missing)
    extra = dict(state)
    extra["bogus"] = np.zeros(3)
    with pytest.raises(CheckpointError, match="state keys"):
        net.load_state_arrays(extra)
    other = nets.PointHeatmapNet(seed=21, out_channels=3)
    with pytest.raises(CheckpointError):
        net.load_state_arrays(other.state_arrays())


def test_seg_net_layers_and_size():
    """ToothSegNet is mlp1, one graph stage, mlp2, the k6/k12 graph stage,
    mlp3 and the head, with no feature transform between mlp1 and glm1."""
    net = nets.ToothSegNet()
    prefixes = []
    for path, _ in net.named_parameters():
        top = path.split(".")[0]
        if top not in prefixes:
            prefixes.append(top)
    assert prefixes == ["mlp1", "glm1", "mlp2", "glm2_k6", "glm2_k12", "glm2_fuse",
                        "mlp3", "head_conv"]
    assert sum(p.data.size for p in net.parameters()) == 1_868_111


def test_non_finite_gradient_names_a_checkpoint_key():
    """AmsGrad names an offending parameter by the path a checkpoint stores
    it under."""
    net = nets.PointHeatmapNet(seed=0, out_channels=2)
    opt = ad.AmsGrad(net.named_parameters(), lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8)
    for p in net.parameters():
        p.grad = np.zeros_like(p.data)
    net.headc[0].weight.grad[0, 0] = np.nan
    with pytest.raises(NonFiniteGradientError, match=r"parameter headc\.0\.weight$"):
        opt.step()
    assert "headc.0.weight" in net.state_arrays()


def test_arch_tags_encode_configuration():
    assert "head=softmax" in nets.ToothSegNet().arch_tag()
    assert "head=sigmoid" in nets.ToothSegNet(seed=0, out_channels=4, head="sigmoid").arch_tag()
    assert "out=7" in nets.PointHeatmapNet(out_channels=7).arch_tag()
    assert nets.ToothSegNet().arch_tag().startswith("tooth-seg-net/")
    assert nets.PointHeatmapNet().arch_tag().startswith("point-heatmap-net/")


@pytest.mark.parametrize("kind", ["seg", "graph-heatmap", "point-heatmap"])
def test_training_flag_only_switches_graph_recording(kind):
    """One batch-norm path: training=False gives training=True's output bit
    for bit, records no graph and leaves the state as it was."""
    feats, g6, g12, _ = _features_and_graphs(n=12, seed=22)
    if kind == "point-heatmap":
        net = nets.PointHeatmapNet(seed=23, out_channels=3)
        graphs = ()
    else:
        net = (nets.ToothSegNet(seed=23) if kind == "seg"
               else nets.ToothSegNet(seed=23, out_channels=3, head="sigmoid"))
        graphs = (g6, g12)
    before = copy.deepcopy(net.state_arrays())
    eval_out = net(Tensor(feats), *graphs, training=False)
    train_out = net(Tensor(feats), *graphs, training=True)
    assert np.array_equal(eval_out.data, train_out.data)
    assert eval_out._grad_fn is None and eval_out._parents == ()
    assert not eval_out.requires_grad
    assert train_out._grad_fn is not None
    after = net.state_arrays()
    assert after.keys() == before.keys()
    assert all(np.array_equal(after[k], before[k]) for k in before)
    # no layer keeps anything but its parameters
    assert set(after) == {name for name, _ in net.named_parameters()}


def test_edge_conv_gradients_in_training_mode():
    """Finite differences through gather, subtract, BN, ReLU and max."""
    rng = np.random.default_rng(4)
    conv = nets.EdgeConv(rng, cin=3, cout=4)
    conv.bn.gamma.data[:] = [1.3, -0.7, 0.4, -1.1]  # both signs of the max
    conv.bn.beta.data[:] = rng.normal(size=4)
    x = rng.normal(size=(6, 3))
    graph = geo.knn_graph(rng.normal(size=(6, 3)), 3)
    params = [conv.weight, conv.bn.gamma, conv.bn.beta]
    weights = np.cos(np.arange(6 * 4)).reshape(6, 4)

    def build():
        xp = ad.Parameter(x)
        out = conv(xp, graph)
        return ad.reduce_sum(ad.mul(out, weights)), [xp] + params

    check_grads(build, [x] + [p.data for p in params])


def _random_edge_conv(rng, cin, cout):
    """EdgeConv with gamma of both signs, one gamma == 0 channel and a
    non-trivial beta."""
    conv = nets.EdgeConv(rng, cin=cin, cout=cout)
    conv.bn.gamma.data[:] = rng.uniform(0.3, 1.5, size=cout) * rng.choice([-1.0, 1.0], cout)
    conv.bn.beta.data[:] = rng.normal(size=cout)
    # gamma == 0 with beta > 0: the response is flat and the gradient must
    # still reach the slot-0 neighbor
    conv.bn.gamma.data[0], conv.bn.beta.data[0] = 0.0, 0.5
    return conv


def _edge_conv_run(conv, x, nbrs, record, op):
    """Forward, and with record the backward, of a copy of conv; returns the
    copy, the output and the x gradient (None without record)."""
    conv = copy.deepcopy(conv)
    xp = ad.Parameter(x)
    if not record:
        with ad.no_grad():
            return conv, op(conv, xp, nbrs).data, None
    out = op(conv, xp, nbrs)
    weights = np.cos(np.arange(out.data.size)).reshape(out.data.shape)
    ad.backward(ad.reduce_sum(ad.mul(out, weights)))
    return conv, out.data, xp.gradient()


def _rel(new, old):
    return float(np.max(np.abs(new - old)) / np.max(np.abs(old)))


def _random_case():
    rng = np.random.default_rng(31)
    n, cin, cout, k = 300, 6, 10, 12
    x = rng.normal(size=(n, cin)) + 2.0
    points = rng.normal(size=(n, 3))
    # duplicated cells: equal neighbor terms tie inside many neighbor lists
    x[1::7], points[1::7] = x[0::7], points[0::7]
    return _random_edge_conv(rng, cin, cout), x, geo.knn_graph(points, k).neighbors


def _coincident_case():
    """Every point at the origin: each cell's neighbors are itself and the
    lowest-index cells, so cells 0..k-2 have in-degree N, the longest slot
    lists the backward's reverse-neighbor sum can meet."""
    rng = np.random.default_rng(33)
    n, k = 300, 12
    nbrs = geo.knn_graph(np.zeros((n, 3)), k).neighbors
    assert np.bincount(nbrs.ravel()).max() == n
    return _random_edge_conv(rng, 6, 10), rng.normal(size=(n, 6)), nbrs


def _arch_case(small_arch):
    mesh, _ = small_arch
    conv = _random_edge_conv(np.random.default_rng(32), 15, 8)
    feats = geo.extract_features(mesh).matrix
    return conv, feats, geo.knn_graph(mesh, 12).neighbors


@pytest.mark.parametrize("record", [True, False])
@pytest.mark.parametrize("case", ["random", "coincident", "arch"])
def test_fused_edge_conv_matches_per_edge_reference(case, record, small_arch):
    """Both paths of the fused op, a recorded graph and no_grad, against
    the (N*k, C) edge tensor batch-normed, ReLU'd and maxed edge by edge."""
    cases = {"random": _random_case, "coincident": _coincident_case,
             "arch": lambda: _arch_case(small_arch)}
    conv, x, nbrs = cases[case]()
    new, out, gx = _edge_conv_run(conv, x, nbrs, record, nets.EdgeConv.__call__)
    old, ref_out, ref_gx = _edge_conv_run(conv, x, nbrs, record, reference_edge_conv)
    assert _rel(out, ref_out) < 1e-12
    if record:
        assert _rel(gx, ref_gx) < 1e-9
        for (path, p_new), (_, p_old) in zip(new.named_parameters(),
                                             old.named_parameters()):
            assert _rel(p_new.grad, p_old.grad) < 1e-9, path


def test_edge_conv_no_grad_path_is_the_autodiff_path():
    """Inference under no_grad runs the op that training runs, at a size
    (N*k*C > 2**22) that a per-edge inference path would split into chunks."""
    rng = np.random.default_rng(5)
    n, k, cout = 1100, 16, 256
    conv = _random_edge_conv(rng, 8, cout)
    x = Tensor(rng.normal(size=(n, 8)))
    graph = geo.knn_graph(rng.normal(size=(n, 3)), k)
    with_grad = conv(x, graph).data
    with ad.no_grad():
        fast = conv(x, graph).data
    assert np.array_equal(fast, with_grad)
    reference = reference_edge_conv(conv, x, graph.neighbors).data
    assert _rel(fast, reference) < 1e-12


def test_edge_conv_needs_two_edges_on_every_call():
    conv = _random_edge_conv(np.random.default_rng(7), 3, 4)
    x = Tensor(np.ones((1, 3)))
    for _ in range(2):
        with pytest.raises(ShapeError, match="at least 2 edges"):
            conv(x, np.zeros((1, 1), dtype=np.int64))
        with ad.no_grad(), pytest.raises(ShapeError, match="at least 2 edges"):
            conv(x, np.zeros((1, 1), dtype=np.int64))
    # two edges out of one cell are a cloud
    assert conv(x, np.zeros((1, 2), dtype=np.int64)).data.shape == (1, 4)


def test_edge_conv_training_step_never_forms_edge_tensors():
    """A training step stays under three (N*k, C) float64 arrays; the
    per-edge form peaks at about sixteen."""
    rng = np.random.default_rng(6)
    n, k, c = 2000, 12, 64
    conv = _random_edge_conv(rng, c, c)
    x = rng.normal(size=(n, c))
    graph = geo.knn_graph(rng.normal(size=(n, 3)), k)
    tracemalloc.start()
    try:
        out = conv(ad.Parameter(x), graph)
        ad.backward(ad.reduce_sum(out))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * n * k * c * 8


def test_training_step_backward_frees_the_graph_as_it_goes():
    """Backward peaks below what the forward left live plus one gradient per
    parameter: interior gradients and saved activations free as it walks."""
    feats, g6, g12, _ = _features_and_graphs(n=200, seed=7)
    labels = np.random.default_rng(8).integers(0, nets.NUM_CLASSES, size=200)
    net = nets.ToothSegNet(seed=8)
    param_bytes = sum(p.data.nbytes for p in net.parameters())
    tracemalloc.start()
    try:
        out = net(Tensor(feats), g6, g12, training=True)
        loss = nets.generalized_dice_loss(out, nets.one_hot(labels))
        del out
        live = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        ad.backward(loss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= live + param_bytes
    assert all(p.grad is not None for p in net.parameters())


def test_input_features_get_no_gradient():
    # the first layer of each net and a bare EdgeConv skip the gradient of
    # an input tensor that neither requires one nor comes from an op
    feats, g6, g12, _ = _features_and_graphs(n=20, seed=40)
    seg, heat = nets.ToothSegNet(seed=41), nets.PointHeatmapNet(seed=42, out_channels=2)
    edge = _random_edge_conv(np.random.default_rng(43), 15, 6)
    for run, params in ((lambda x: seg(x, g6, g12, training=True), seg.parameters()),
                        (lambda x: heat(x, training=True), heat.parameters()),
                        (lambda x: edge(x, g6.neighbors),
                         [edge.weight, edge.bn.gamma, edge.bn.beta])):
        x = Tensor(feats)
        out = run(x)
        weights = np.cos(np.arange(out.data.size)).reshape(out.data.shape)
        ad.backward(ad.reduce_sum(ad.mul(out, weights)))
        assert x.grad is None
        assert all(p.grad is not None for p in params)


@pytest.mark.parametrize("kind", ["seg", "graph-heatmap", "point-heatmap"])
def test_reduced_nets_equal_the_full_nets_they_came_from(kind):
    """What per-cloud batch norm cancels was deleted exactly: with the
    reduced net's weights copied into the full net (random conv biases in
    front of every batch norm, PointHeatmapNet's trunk and tiled pool,
    ToothSegNet's tiled pooled block), outputs and every shared parameter's
    gradient agree to float64 rounding, on float64 copies of the nets."""
    feats, g6, g12, _ = _features_and_graphs(n=40, seed=50)
    rng = np.random.default_rng(51)
    if kind == "point-heatmap":
        net = widened(nets.PointHeatmapNet(seed=52, out_channels=3))
        out = net(Tensor(feats), training=True)
        ref, ref_params = reference_heatmap_forward(net, feats, rng)
    else:
        net = widened(nets.ToothSegNet(seed=52) if kind == "seg"
                      else nets.ToothSegNet(seed=52, out_channels=3, head="sigmoid"))
        out = net(Tensor(feats), g6, g12, training=True)
        ref, ref_params = reference_seg_forward(net, feats, g6, g12, rng)
    assert _rel(out.data, ref.data) < 1e-10
    weights = np.cos(np.arange(out.data.size)).reshape(out.data.shape)
    ad.backward(ad.reduce_sum(ad.mul(out, weights)))
    ad.backward(ad.reduce_sum(ad.mul(ref, weights)))
    params = dict(net.named_parameters())
    assert params.keys() <= ref_params.keys()
    for name, p in params.items():
        shared = ref_params[name].gradient()[: p.data.shape[0]]
        assert _rel(p.grad, shared) < 1e-8, name
