import numpy as np
import pytest

import cliffkit.autodiff as ad
from cliffkit.autodiff import Parameter, Tape


def numeric_grad(fn, arrays, k, idx, h=1e-6):
    flat = arrays[k].ravel()
    old = flat[idx]
    flat[idx] = old + h
    up = fn(arrays)
    flat[idx] = old - h
    dn = fn(arrays)
    flat[idx] = old
    return (up - dn) / (2 * h)


def check_op(build, shapes, rng, rel_tol=1e-6, positive=False):
    """Compare reverse-mode input gradients of a scalar against central differences."""
    arrays = [rng.standard_normal(s) for s in shapes]
    if positive:
        arrays = [np.abs(a) + 0.5 for a in arrays]

    def value(arrs):
        tape = Tape()
        leaves = [tape.leaf(a.copy()) for a in arrs]
        return float(build(tape, leaves).value)

    tape = Tape()
    leaves = [tape.leaf(a.copy()) for a in arrays]
    out = build(tape, leaves)
    grads = tape.backward(out)
    for k, leaf in enumerate(leaves):
        analytic = grads.get(leaf.id, np.zeros(shapes[k]))
        flat = analytic.ravel()
        for idx in range(flat.size):
            num = numeric_grad(value, arrays, k, idx)
            denom = max(abs(num), abs(flat[idx]), 1.0)
            assert abs(num - flat[idx]) / denom < rel_tol, (k, idx, num, flat[idx])


def test_add_sub_mul_scale_grads():
    rng = np.random.default_rng(0)
    check_op(lambda t, xs: ad.sum_all(ad.add(xs[0], xs[1])), [(3, 4), (3, 4)], rng)
    check_op(lambda t, xs: ad.sum_all(ad.add(xs[0], xs[1])), [(3, 4), (4,)], rng)
    check_op(lambda t, xs: ad.sum_all(ad.sub(xs[0], xs[1])), [(5,), (5,)], rng)
    check_op(lambda t, xs: ad.sum_all(ad.mul(xs[0], xs[1])), [(2, 3), (2, 3)], rng)
    check_op(lambda t, xs: ad.sum_all(ad.scale(xs[0], -2.5)), [(4,)], rng)


def test_matmul_grads_both_arities():
    rng = np.random.default_rng(1)
    check_op(lambda t, xs: ad.sum_all(ad.matmul(xs[0], xs[1])), [(3, 4), (4, 2)], rng)
    check_op(lambda t, xs: ad.sum_all(ad.matmul(xs[0], xs[1])), [(4,), (4, 3)], rng)


def test_relu_sum_mean_concat_grads():
    rng = np.random.default_rng(2)
    check_op(lambda t, xs: ad.sum_all(ad.relu(xs[0])), [(3, 5)], rng)
    check_op(lambda t, xs: ad.sum_all(ad.mean_axis(xs[0], axis=0)), [(4, 3)], rng)
    check_op(
        lambda t, xs: ad.sum_all(ad.mul(ad.concat(xs[0], xs[1]), ad.concat(xs[1], xs[0]))),
        [(3,), (3,)],
        rng,
    )


def test_edge_messages_matches_manual_einsum():
    rng = np.random.default_rng(3)
    h = rng.standard_normal((4, 3))
    w = rng.standard_normal((5, 9))
    nbr = np.array([1, 0, 3, 2, 0])
    tape = Tape()
    th, tw = tape.leaf(h), tape.leaf(w)
    out = ad.edge_messages(tw, th, nbr)
    want = np.einsum("ehk,ek->eh", w.reshape(5, 3, 3), h[nbr])
    assert np.allclose(out.value, want, atol=1e-12)
    check_op(
        lambda t, xs: ad.sum_all(
            ad.mul(ad.edge_messages(xs[0], xs[1], nbr), ad.edge_messages(xs[0], xs[1], nbr))
        ),
        [(5, 9), (4, 3)],
        rng,
    )


def test_scatter_mean_values_and_grads():
    rng = np.random.default_rng(4)
    msgs = rng.standard_normal((4, 2))
    seg = np.array([0, 0, 2, 2])
    tape = Tape()
    tm = tape.leaf(msgs)
    out = ad.scatter_mean(tm, seg, 3)
    assert np.allclose(out.value[0], msgs[:2].mean(axis=0))
    assert np.array_equal(out.value[1], np.zeros(2))  # empty segment
    assert np.allclose(out.value[2], msgs[2:].mean(axis=0))
    check_op(
        lambda t, xs: ad.sum_all(ad.mul(ad.scatter_mean(xs[0], seg, 3), ad.scatter_mean(xs[0], seg, 3))),
        [(4, 2)],
        rng,
    )


def test_masked_mean_values_and_empty_mask():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((5, 3))
    mask = np.array([True, False, True, True, False])
    tape = Tape()
    tx = tape.leaf(x)
    out = ad.masked_mean(tx, mask)
    assert np.allclose(out.value, x[mask].mean(axis=0))
    empty = ad.masked_mean(tx, np.zeros(5, dtype=bool))
    assert np.array_equal(empty.value, np.zeros(3))
    total = ad.sum_all(ad.add(out, empty))
    grads = tape.backward(total)
    g = grads[tx.id]
    assert np.allclose(g[mask], 1.0 / 3.0) and np.all(g[~mask] == 0.0)
    check_op(lambda t, xs: ad.sum_all(ad.mul(ad.masked_mean(xs[0], mask), ad.masked_mean(xs[0], mask))), [(5, 3)], rng)


def test_batchnorm_train_two_point_batch():
    # batch {1, 3}: mean 2, biased var 1, outputs +-1 up to the eps correction
    tape = Tape()
    x = tape.leaf(np.array([[1.0], [3.0]]))
    gamma = tape.leaf(np.ones(1))
    beta = tape.leaf(np.zeros(1))
    out, mean, var = ad.batchnorm_train(x, gamma, beta, eps=1e-5)
    assert np.allclose(mean, [2.0]) and np.allclose(var, [1.0])
    expect = 1.0 / np.sqrt(1.0 + 1e-5)
    assert np.allclose(out.value.ravel(), [-expect, expect], atol=1e-12)


def test_batchnorm_train_grads_flow_through_batch_stats():
    rng = np.random.default_rng(6)

    def build(tape, xs):
        out, _, _ = ad.batchnorm_train(xs[0], xs[1], xs[2], eps=1e-5)
        return ad.sum_all(ad.mul(out, out))

    check_op(build, [(6, 3), (3,), (3,)], rng, rel_tol=1e-5)


def test_batchnorm_eval_affine_grads():
    rng = np.random.default_rng(7)
    mean = rng.standard_normal(3)
    var = np.abs(rng.standard_normal(3)) + 0.5

    def build(tape, xs):
        out = ad.batchnorm_eval(xs[0], xs[1], xs[2], mean, var, eps=1e-5)
        return ad.sum_all(ad.mul(out, out))

    check_op(build, [(4, 3), (3,), (3,)], rng)


# atom 3 has no bonds; "C" is one atom and no bonds
ISOLATED_ATOM = (4, np.array([[0, 1], [1, 0], [1, 2], [2, 1], [2, 0], [0, 2]]), None)
NO_BONDS = (1, np.zeros((0, 2), dtype=np.int64), None)
# the two packed as a disjoint union: atoms 0-3, then atom 4
PACKED = (5, ISOLATED_ATOM[1], np.array([0, 4, 5]))


def _per_edge_message_layer(arrays, edge_index, running, eps=1e-5):
    """The layer in plain numpy, one H x H matrix per edge."""
    h, e, ew, eb, rw, rb, gamma, beta = arrays
    hdim = h.shape[1]
    pre = h @ rw + rb
    agg, count = np.zeros_like(pre), np.zeros(len(h))
    for (receiver, neighbor), row in zip(edge_index, e):
        agg[receiver] += (row @ ew + eb).reshape(hdim, hdim) @ h[neighbor]
        count[receiver] += 1
    pre = pre + agg / np.maximum(count, 1)[:, None]
    mean, var = (pre.mean(axis=0), pre.var(axis=0)) if running is None else running
    return np.maximum(gamma * (pre - mean) / np.sqrt(var + eps) + beta, 0.0)


@pytest.mark.parametrize(
    "graph", [ISOLATED_ATOM, NO_BONDS, PACKED], ids=["isolated-atom", "no-bonds", "packed"]
)
@pytest.mark.parametrize("mode", ["train", "eval"])
def test_message_layer_values_and_grads(graph, mode):
    rng = np.random.default_rng(8)
    n, edge_index, offsets = graph
    hdim, width = 3, 5
    shapes = [(n, hdim), (len(edge_index), width), (width, hdim * hdim), (hdim * hdim,),
              (hdim, hdim), (hdim,), (hdim,), (hdim,)]
    arrays = [rng.standard_normal(s) for s in shapes]
    running = None if mode == "train" else (rng.standard_normal(hdim), rng.uniform(0.5, 1.5, hdim))
    tape = Tape()
    out, mean, var = ad.message_layer(*(tape.leaf(a) for a in arrays), edge_index, running,
                                      offsets=offsets)
    if offsets is not None and running is None:
        # each graph normalized by its own statistics: the layer run on each graph alone
        h, e = arrays[:2]
        want = np.concatenate([
            _per_edge_message_layer([h[:4], e, *arrays[2:]], edge_index, None),
            _per_edge_message_layer([h[4:], e[:0], *arrays[2:]], NO_BONDS[1], None),
        ])
        assert mean.shape == var.shape == (2, hdim)
    else:
        want = _per_edge_message_layer(arrays, edge_index, running)
    assert np.allclose(out.value, want, atol=1e-12)
    if running is not None:
        assert mean is running[0] and var is running[1]
    proj = rng.standard_normal((n, hdim))

    def build(tape, xs):
        out, _, _ = ad.message_layer(*xs, edge_index, running, offsets=offsets)
        return ad.sum_all(ad.mul(out, tape.constant(proj)))

    # every one of the eight inputs: h, e, edge weight/bias, root weight/bias, scale, shift
    check_op(build, shapes, rng, rel_tol=1e-5)


def test_message_layer_rejects_offsets_that_do_not_split_the_atoms():
    tape = Tape()
    n, edge_index, _ = ISOLATED_ATOM
    arrays = [np.ones(s) for s in [(n, 2), (len(edge_index), 1), (1, 4), (4,), (2, 2), (2,), (2,), (2,)]]
    for offsets in ([0, 4, 4], [0, 3], [1, 4], [0]):
        with pytest.raises(ValueError, match="offsets"):
            ad.message_layer(*(tape.leaf(a) for a in arrays), edge_index, offsets=offsets)


def test_masked_mean_per_packed_graph():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((6, 3))
    offsets = np.array([0, 4, 6])
    mask = np.array([True, False, True, True, False, False])  # none of the second graph
    tape = Tape()
    tx = tape.leaf(x)
    out = ad.masked_mean(tx, mask, offsets)
    assert out.value.shape == (2, 3)
    assert np.allclose(out.value[0], x[:4][mask[:4]].mean(axis=0), atol=1e-15)
    assert np.array_equal(out.value[1], np.zeros(3))
    check_op(lambda t, xs: ad.sum_all(ad.mul(ad.masked_mean(xs[0], mask, offsets),
                                             ad.masked_mean(xs[0], ~mask, offsets))), [(6, 3)], rng)


def test_concat_joins_rows():
    rng = np.random.default_rng(9)
    weights = np.arange(10.0).reshape(2, 5)
    check_op(lambda t, xs: ad.sum_all(ad.mul(ad.concat(xs[0], xs[1]), t.constant(weights))),
             [(2, 2), (2, 3)], rng)
    tape = Tape()
    with pytest.raises(ValueError, match="concat"):
        ad.concat(tape.leaf(np.ones((2, 2))), tape.leaf(np.ones((3, 2))))


def test_backward_requires_scalar_and_same_tape():
    tape = Tape()
    x = tape.leaf(np.ones((2, 2)))
    with pytest.raises(ValueError):
        tape.backward(x)
    other = Tape()
    y = other.leaf(np.ones(2))
    with pytest.raises(ValueError):
        ad.add(x, tape.leaf(np.ones((2, 2)))) and other.backward(ad.sum_all(x))
    with pytest.raises(ValueError):
        ad.add(y, x)


def test_gradient_accumulates_across_reuse():
    tape = Tape()
    x = tape.leaf(np.array([2.0, -1.0]))
    out = ad.sum_all(ad.add(ad.mul(x, x), x))  # d/dx (x^2 + x) = 2x + 1
    grads = tape.backward(out)
    assert np.allclose(grads[x.id], [5.0, -1.0])


def test_parameter_group_tags_validated():
    Parameter("ok", np.zeros(3), "CN_head")
    Parameter("ok2", np.zeros(3), "other")
    with pytest.raises(ValueError, match="group tag"):
        Parameter("bad", np.zeros(3), "head_cn")
