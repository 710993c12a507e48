import numpy as np
import pytest

import oracles
from conftest import finite_difference_grad
from confrank.autodiff import (Adam, EmbeddingIndexError, Node, Parameter,
                               ShapeMismatchError, Tape)


def make_param(name, arr):
    return Parameter(name, np.asarray(arr, dtype=np.float64))


class TestDense:
    def test_identity_weights(self):
        tape = Tape()
        w = make_param("w", np.eye(2))
        b = make_param("b", [0.0, 0.0])
        out = tape.dense(Node([[1.0, 2.0]]), w, b)
        assert np.array_equal(out.data, [[1.0, 2.0]])

    def test_zero_weights_pass_bias(self):
        tape = Tape()
        w = make_param("w", np.zeros((2, 3)))
        b = make_param("b", [1.0, 2.0, 3.0])
        out = tape.dense(Node([[5.0, 7.0]]), w, b)
        assert np.array_equal(out.data, [[1.0, 2.0, 3.0]])

    def test_shape_mismatch_names_shapes(self):
        tape = Tape()
        w = make_param("w", np.zeros((3, 2)))
        b = make_param("b", np.zeros(2))
        with pytest.raises(ShapeMismatchError, match=r"\(1, 2\).*\(3, 2\)"):
            tape.dense(Node([[1.0, 2.0]]), w, b)

    def test_weight_gradient_matches_finite_differences(self):
        x = np.array([[1.0, 2.0]])
        w0 = np.array([[0.3, -0.2], [0.1, 0.4]])
        b = make_param("b", np.zeros(2))

        def loss_at(wv):
            tape = Tape()
            out = tape.dense(Node(x), make_param("w", wv), b)
            return float(tape.sum(out).data)

        tape = Tape()
        w = make_param("w", w0)
        loss = tape.sum(tape.dense(Node(x), w, b))
        tape.backward(loss)
        fd = finite_difference_grad(loss_at, w0.copy())
        assert np.allclose(w.grad, fd, atol=1e-6)

    def test_bias_and_input_gradients_match_finite_differences(self):
        # a nonlinear loss over a 3-row batch, so the bias gradient sums rows
        rng = np.random.default_rng(1)
        x0, w0, b0 = rng.normal(size=(3, 2)), rng.normal(size=(2, 4)), rng.normal(size=4)

        def loss(tape, x, b):
            return tape.sum(tape.sigmoid(tape.dense(x, make_param("w", w0), b)))

        def at_bias(bv):
            t = Tape()
            return float(loss(t, Node(x0), make_param("b", bv)).data)

        def at_input(xv):
            t = Tape()
            return float(loss(t, Node(xv), make_param("b", b0)).data)

        tape = Tape()
        b, xp = make_param("b", b0), make_param("x", x0)
        tape.backward(loss(tape, tape.leaf(xp), b))
        assert np.allclose(b.grad, finite_difference_grad(at_bias, b0.copy()), atol=1e-8)
        assert np.allclose(xp.grad, finite_difference_grad(at_input, x0.copy()), atol=1e-8)

    def test_fused_relu_matches_relu_of_dense_and_finite_differences(self):
        rng = np.random.default_rng(6)
        x0, w0, b0 = rng.normal(size=(4, 3)), rng.normal(size=(3, 5)), rng.normal(size=5)

        def loss(tape, x, w, b):
            return tape.sum(tape.sigmoid(tape.dense(x, w, b, relu=True)))

        def at(xv, wv, bv):
            t = Tape()
            return float(loss(t, Node(xv), make_param("w", wv), make_param("b", bv)).data)

        tape = Tape()
        xp, w, b = make_param("x", x0), make_param("w", w0), make_param("b", b0)
        fused = tape.dense(tape.leaf(xp), w, b, relu=True)
        unfused = tape.relu(tape.dense(Node(x0), w, b))
        assert fused.data.tobytes() == unfused.data.tobytes()
        assert np.any(x0 @ w0 + b0 < 0.0)  # some units are cut, so the mask is exercised
        tape = Tape()
        tape.backward(loss(tape, tape.leaf(xp), w, b))
        assert np.allclose(w.grad, finite_difference_grad(lambda v: at(x0, v, b0), w0.copy()),
                           atol=1e-8)
        assert np.allclose(b.grad, finite_difference_grad(lambda v: at(x0, w0, v), b0.copy()),
                           atol=1e-8)
        assert np.allclose(xp.grad, finite_difference_grad(lambda v: at(v, w0, b0), x0.copy()),
                           atol=1e-8)


@pytest.mark.parametrize("axis", [None, 0, 1])
def test_mean_is_scaled_sum(axis):
    a0 = np.random.default_rng(2).normal(size=(3, 5))
    n = a0.size if axis is None else a0.shape[axis]
    tape = Tape()
    p = make_param("a", a0)
    out = tape.mean(tape.leaf(p), axis=axis)
    assert np.asarray(out.data).tobytes() == np.asarray(a0.sum(axis=axis) * (1.0 / n)).tobytes()
    tape.backward(tape.sum(out))
    assert np.array_equal(p.grad, np.full(a0.shape, 1.0 / n))


class TestActivations:
    def test_sigmoid_at_zero(self):
        tape = Tape()
        assert tape.sigmoid(Node([0.0])).data[0] == 0.5

    def test_relu(self):
        tape = Tape()
        assert np.array_equal(tape.relu(Node([-1.0, 0.0, 3.0])).data, [0.0, 0.0, 3.0])

    def test_sigmoid_gradient_at_zero(self):
        tape = Tape()
        p = make_param("x", [0.0])
        loss = tape.sum(tape.sigmoid(tape.leaf(p)))
        tape.backward(loss)
        assert abs(p.grad[0] - 0.25) < 1e-12

        def f(x):
            t = Tape()
            return float(t.sum(t.sigmoid(Node(x))).data)

        fd = finite_difference_grad(f, np.array([0.0]))
        assert abs(p.grad[0] - fd[0]) < 1e-8


class TestResidualBlock:
    @staticmethod
    def residual(tape, x, w1, b1, w2, b2):
        inner = tape.dense(tape.relu(tape.dense(x, w1, b1)), w2, b2)
        return tape.add(x, inner)

    def test_zero_block_is_identity(self):
        tape = Tape()
        zeros = lambda n, s: make_param(n, np.zeros(s))
        x = Node([[1.0, -2.0], [0.5, 3.0]])
        out = self.residual(tape, x, zeros("w1", (2, 2)), zeros("b1", 2),
                            zeros("w2", (2, 2)), zeros("b2", 2))
        assert np.array_equal(out.data, x.data)

    def test_scalar_case(self):
        tape = Tape()
        out = self.residual(tape, Node([[1.0]]),
                            make_param("w1", [[1.0]]), make_param("b1", [0.0]),
                            make_param("w2", [[2.0]]), make_param("b2", [0.0]))
        assert out.data[0, 0] == 3.0  # 1 + 2*relu(1)

    def test_input_jacobian_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        w1v, b1v = rng.normal(size=(3, 3)), rng.normal(size=3)
        w2v, b2v = rng.normal(size=(3, 3)), rng.normal(size=3)
        x0 = rng.normal(size=(1, 3)) + 0.3  # keep away from relu kinks

        def f(xv):
            t = Tape()
            out = self.residual(t, Node(xv), make_param("w1", w1v),
                                make_param("b1", b1v), make_param("w2", w2v),
                                make_param("b2", b2v))
            return float(t.sum(out).data)

        tape = Tape()
        xp = make_param("x", x0)
        out = self.residual(tape, tape.leaf(xp), make_param("w1", w1v),
                            make_param("b1", b1v), make_param("w2", w2v),
                            make_param("b2", b2v))
        tape.backward(tape.sum(out))
        fd = finite_difference_grad(f, x0.copy())
        assert np.allclose(xp.grad, fd, rtol=1e-5, atol=1e-8)


class TestFusedResidual:
    """tape.dense(..., residual=r) adds r after the bias and relu."""

    @staticmethod
    def params(rng, n_in, n_out):
        return (make_param("w", rng.normal(size=(n_in, n_out))),
                make_param("b", rng.normal(size=n_out)))

    def test_matches_dense_then_add_bitwise(self):
        rng = np.random.default_rng(1)
        x0, coef = rng.normal(size=(5, 3)), rng.normal(size=(5, 3))
        w1v, b1v = rng.normal(size=(3, 3)), rng.normal(size=3)
        w2v, b2v = rng.normal(size=(3, 3)), rng.normal(size=3)

        def run(fused):
            ps = [make_param(n, v) for n, v in
                  (("x", x0), ("w1", w1v), ("b1", b1v), ("w2", w2v), ("b2", b2v))]
            xp, w1, b1, w2, b2 = ps
            tape = Tape()
            x = tape.leaf(xp)
            hidden = tape.dense(x, w1, b1, relu=True)
            if fused:
                out = tape.dense(hidden, w2, b2, residual=x)
            else:
                out = tape.add(x, tape.dense(hidden, w2, b2))
            tape.backward(tape.sum(tape.mul(out, tape.constant(coef))))
            return [out.data.tobytes()] + [p.grad.tobytes() for p in ps]

        assert run(fused=True) == run(fused=False)

    def test_relu_and_residual_gradients_match_finite_differences(self):
        rng = np.random.default_rng(2)
        w, b = self.params(rng, 3, 2)
        x0, r0 = rng.normal(size=(4, 3)), rng.normal(size=(4, 2))
        assert (x0 @ w.value + b.value > 0).any() and (x0 @ w.value + b.value < 0).any()

        def f_x(xv):
            t = Tape()
            return float(t.sum(t.dense(Node(xv), w, b, relu=True, residual=Node(r0))).data)

        def f_r(rv):
            t = Tape()
            return float(t.sum(t.dense(Node(x0), w, b, relu=True, residual=Node(rv))).data)

        tape = Tape()
        xp, rp = make_param("x", x0), make_param("r", r0)
        tape.backward(tape.sum(tape.dense(tape.leaf(xp), w, b, relu=True,
                                          residual=tape.leaf(rp))))
        assert np.allclose(xp.grad, finite_difference_grad(f_x, x0.copy()), rtol=1e-5, atol=1e-8)
        assert np.allclose(rp.grad, finite_difference_grad(f_r, r0.copy()), rtol=1e-5, atol=1e-8)

    def test_residual_shape_mismatch(self):
        w, b = self.params(np.random.default_rng(3), 3, 2)
        with pytest.raises(ShapeMismatchError, match="residual"):
            Tape().dense(Node(np.zeros((4, 3))), w, b, residual=Node(np.zeros((4, 3))))


class TestStopGradient:
    def test_forward_identity(self):
        tape = Tape()
        out = tape.stop_gradient(Node([1.0, 2.0, 3.0]))
        assert np.array_equal(out.data, [1.0, 2.0, 3.0])

    def test_output_shares_the_input_array(self):
        a = Node([1.0, 2.0, 3.0])
        assert Tape().stop_gradient(a).data is a.data

    def test_barrier_blocks_all_gradient(self):
        tape = Tape()
        p = make_param("x", [1.0, 2.0])
        loss = tape.sum(tape.stop_gradient(tape.leaf(p)))
        tape.backward(loss)
        assert np.array_equal(p.grad, [0.0, 0.0])

    def test_x_times_stopped_x(self):
        # d/dx sum(x * sg(x)) = sg(x) = x, not 2x
        tape = Tape()
        p = make_param("x", [2.0])
        x = tape.leaf(p)
        loss = tape.sum(tape.mul(x, tape.stop_gradient(x)))
        tape.backward(loss)
        assert np.array_equal(p.grad, [2.0])


class TestEmbedding:
    def table(self, rows):
        return make_param("e", rows)

    def test_lookup(self):
        tape = Tape()
        out = tape.embedding(self.table([[1.0, 1.0], [2.0, 2.0]]), [1])
        assert np.array_equal(out.data, [[2.0, 2.0]])

    def test_duplicate_indices_accumulate(self):
        tape = Tape()
        table = self.table([[1.0, 1.0], [2.0, 2.0]])
        out = tape.embedding(table, [0, 0])
        tape.backward(tape.sum(out))
        assert np.array_equal(table.grad[0], [2.0, 2.0])

    def test_untouched_row_gradient_is_zero(self):
        tape = Tape()
        table = self.table([[1.0, 1.0], [2.0, 2.0]])
        tape.backward(tape.sum(tape.embedding(table, [0])))
        assert np.array_equal(table.grad[1], [0.0, 0.0])

    def test_out_of_range_reports_value(self):
        tape = Tape()
        with pytest.raises(EmbeddingIndexError, match="5"):
            tape.embedding(self.table([[1.0], [2.0]]), [0, 5])


class TestNode:
    def test_float64_array_kept_as_is(self):
        a = np.arange(3.0)
        assert Node(a).data is a

    @pytest.mark.parametrize("data", [np.arange(3, dtype=np.float32), np.arange(3),
                                      np.ma.masked_array(np.arange(3.0)), [0.0, 1.0, 2.0],
                                      np.arange(3.0).astype(">f8")])
    def test_anything_else_becomes_a_float64_array(self, data):
        node = Node(data)
        assert type(node.data) is np.ndarray and node.data.dtype == np.dtype("<f8")
        assert np.array_equal(node.data, [0.0, 1.0, 2.0])


class TestClampMatchesNpClip:
    """Tape.clip and Tape.bce clamp with maximum/minimum, not np.clip; values
    and gradients must match the np.clip forms bit for bit."""

    LO, HI = 0.1, 0.8
    EDGES = [-np.inf, -1.0, 0.0999999, 0.1, 0.1000001, 0.37, 0.7999999, 0.8, 0.8000001,
             1.0, np.inf]

    @pytest.mark.parametrize("with_nan", [False, True])
    def test_clip_value_and_gradient(self, with_nan):
        x0 = np.array(self.EDGES + [np.nan] * with_nan)
        g = np.linspace(0.5, 1.5, x0.size)
        tape = Tape()
        x = tape.leaf(make_param("x", x0))
        out = tape.clip(x, self.LO, self.HI)
        tape.backward(tape.sum(tape.mul(out, tape.constant(g))))
        want, want_grad = oracles.clip(x0, self.LO, self.HI, g)
        assert out.data.tobytes() == want.tobytes()
        assert x.grad.tobytes() == want_grad.tobytes()

    @pytest.mark.parametrize("with_nan", [False, True])
    def test_bce_value_and_gradient(self, with_nan):
        p0 = np.repeat(self.EDGES + [np.nan] * with_nan, 2)
        y = np.tile([0.0, 1.0], p0.size // 2)
        tape = Tape()
        p = tape.leaf(make_param("p", p0))  # its node's gradient keeps the sign of a zero
        loss = tape.bce(p, y, self.LO, self.HI)
        tape.backward(loss)
        want, want_grad = oracles.bce(p0, y, self.LO, self.HI)
        assert np.isnan(loss.data) == with_nan
        assert loss.data.tobytes() == np.float64(want).tobytes()
        assert p.grad.tobytes() == want_grad.tobytes()


def _bce_chain(tape, p, y, lo, hi):
    """Binary cross-entropy built from single tape ops, as Tape.bce's oracle."""
    yn = tape.constant(y)
    one = tape.constant(np.ones_like(p.data))
    pc = tape.clip(p, lo, hi)
    pos = tape.mul(yn, tape.log(pc))
    neg = tape.mul(tape.sub(one, yn), tape.log(tape.sub(one, pc)))
    return tape.scale(tape.mean(tape.add(pos, neg)), -1.0)


class TestBce:
    LO, HI = 0.1, 0.8
    # below, at and above each clip limit, and inside, each with y = 0 and 1
    P = np.repeat([0.05, 0.1, 0.1000001, 0.37, 0.7999999, 0.8, 0.93], 2)
    Y = np.tile([0.0, 1.0], 7)

    def _loss_and_grad(self, loss_fn, p0, y):
        tape = Tape()
        p = make_param("p", p0)
        loss = tape.scale(loss_fn(tape, tape.leaf(p), y, self.LO, self.HI), 0.37)
        tape.backward(loss)
        return loss.data, p.grad.copy()

    @pytest.mark.parametrize("labels", ["mixed", 0.0, 1.0])
    def test_matches_the_op_chain_bitwise(self, labels):
        y = self.Y if labels == "mixed" else np.full(self.P.shape, labels)
        fused = self._loss_and_grad(Tape.bce, self.P, y)
        chain = self._loss_and_grad(_bce_chain, self.P, y)
        assert fused[0].tobytes() == chain[0].tobytes()
        assert fused[1].tobytes() == chain[1].tobytes()
        clipped = (self.P <= self.LO) | (self.P >= self.HI)
        assert np.all(fused[1][clipped] == 0.0) and np.all(fused[1][~clipped] != 0.0)

    def test_gradient_matches_finite_differences(self):
        p0 = np.array([0.05, 0.2, 0.45, 0.6, 0.75, 0.9])
        y = np.array([1.0, 0.0, 1.0, 0.0, 1.0, 0.0])
        _, grad = self._loss_and_grad(Tape.bce, p0, y)

        def f(p):
            return float(Tape().bce(Node(p), y, self.LO, self.HI).data) * 0.37

        assert np.allclose(grad, finite_difference_grad(f, p0.copy(), h=1e-7), atol=1e-7)

    def test_constant_input_records_nothing(self):
        tape = Tape()
        out = tape.bce(tape.constant([0.3, 0.6]), [1.0, 0.0], self.LO, self.HI)
        assert not out.needs_grad and tape._ops == []


@pytest.mark.parametrize("axis", [0, 1])
def test_concat_backward_hands_each_input_its_slice(axis):
    rng = np.random.default_rng(6)
    shapes = [(w, 4) if axis == 0 else (4, w) for w in (2, 3, 1)]
    a, c = make_param("a", rng.normal(size=shapes[0])), make_param("c", rng.normal(size=shapes[2]))
    tape = Tape()
    middle = tape.constant(rng.normal(size=shapes[1]))  # needs no gradient
    out = tape.concat([tape.leaf(a), middle, tape.leaf(c)], axis=axis)
    g = rng.normal(size=out.data.shape)
    tape.backward(tape.sum(tape.mul(out, tape.constant(g))))
    assert middle.grad is None
    pieces = np.split(g, [2, 5], axis=axis)
    assert a.grad.tobytes() == pieces[0].tobytes()
    assert c.grad.tobytes() == pieces[2].tobytes()


@pytest.mark.parametrize("axis", [0, 1, -1])
def test_size_one_sum_is_a_reshape(axis):
    a0 = np.random.default_rng(7).normal(size=(1, 5) if axis == 0 else (5, 1))
    tape = Tape()
    p = make_param("a", a0)
    out = tape.sum(tape.leaf(p), axis=axis)
    assert out.data.tobytes() == a0.sum(axis=axis).tobytes() == a0.tobytes()
    assert out.data.shape == (5,) and np.shares_memory(out.data, p.value)
    g = np.random.default_rng(8).normal(size=5)
    tape.backward(tape.sum(tape.mul(out, tape.constant(g))))
    assert p.grad.shape == a0.shape and p.grad.tobytes() == g.tobytes()


class TestBackward:
    def test_constant_loss_gives_zero_gradients(self):
        tape = Tape()
        p = make_param("w", [1.0])
        tape.leaf(p)  # recorded but unused by the loss
        tape.backward(tape.constant(3.0))
        assert np.array_equal(p.grad, [0.0])

    def test_bce_gradient_analytic(self):
        # loss = BCE(sigmoid(w*x), y=1) at w=0, x=1 -> dL/dw = p - y = -0.5
        tape = Tape()
        w = make_param("w", [0.0])
        p = tape.sigmoid(tape.mul(tape.leaf(w), tape.constant([1.0])))
        loss = tape.scale(tape.sum(tape.log(p)), -1.0)
        tape.backward(loss)
        assert abs(w.grad[0] - (-0.5)) < 1e-12

    def test_non_scalar_loss_rejected(self):
        tape = Tape()
        with pytest.raises(ValueError, match="scalar"):
            tape.backward(Node([1.0, 2.0]))


class TestAdam:
    def test_zero_gradient_leaves_parameter(self):
        p = make_param("w", [1.0])
        opt = Adam([p], lr=0.1)
        opt.step()
        assert p.value[0] == 1.0

    def test_first_step_magnitude(self):
        # bias-corrected first step with g=1 moves by ~lr
        p = make_param("w", [0.0])
        p.grad[...] = np.array([1.0])
        opt = Adam([p], lr=0.1)
        opt.step()
        assert abs(p.value[0] + 0.1) < 1e-8

    def test_determinism(self):
        def run():
            p = make_param("w", [0.3])
            opt = Adam([p], lr=0.01)
            for _ in range(5):
                p.grad[...] = np.array([0.7])
                opt.step()
            return p.value[0]

        assert run() == run()

    def test_state_roundtrip_bit_exact(self):
        p = make_param("w", [0.3])
        opt = Adam([p], lr=0.01)
        p.grad[...] = np.array([1.0])
        opt.step()
        saved = {name: {"m": st["m"].copy(), "v": st["v"].copy(), "t": st["t"]}
                 for name, st in opt.state.items()}

        q = make_param("w", p.value.copy())
        opt2 = Adam([q], lr=0.01)
        opt2.load_state_dict(saved)
        p.grad[...] = np.array([0.5])
        q.grad[...] = np.array([0.5])
        opt.step()
        opt2.step()
        assert p.value[0] == q.value[0]

    def test_unequal_step_counts_refused(self):
        opt = Adam([make_param("p", [0.0]), make_param("q", [1.0])])
        state = {name: dict(st) for name, st in opt.state.items()}
        state["q"]["t"] = 3
        with pytest.raises(ValueError, match="unequal step counts"):
            opt.load_state_dict(state)

    @pytest.mark.parametrize("edit,message", [
        ("drop_q", "no entry for parameter 'q'"),
        ("empty", "no entry for parameter 'p'"),
        ("extra_r", "unknown parameter 'r'"),
        ("list", "not a mapping but list"),
    ])
    def test_state_must_name_exactly_the_parameters(self, edit, message):
        opt = Adam([make_param("p", [0.0]), make_param("q", [1.0])])
        state = {name: dict(st) for name, st in opt.state.items()}
        if edit == "drop_q":
            del state["q"]
        elif edit == "empty":
            state = {}
        elif edit == "list":
            state = list(state.values())
        else:
            state["r"] = dict(state["q"])
        with pytest.raises(ValueError, match=message):
            opt.load_state_dict(state)

    def test_setters_copy_into_the_buffer_view(self):
        p = make_param("w", np.zeros((2, 3)))
        Adam([p])
        value = p.value
        src = np.arange(6.0).reshape(2, 3)
        p.value = src
        src[0, 0] = 99.0
        assert p.value is value and p.value[0, 0] == 0.0
        with pytest.raises(ShapeMismatchError, match=r"\(6,\).*\(2, 3\)"):
            p.value = np.zeros(6)

    def test_flat_step_matches_per_parameter_formula_bitwise(self):
        rng = np.random.default_rng(4)
        shapes = [(3, 4), (4,), (1, 2), (5, 1)]
        init = [rng.normal(size=s) for s in shapes]
        grads = [[rng.normal(size=s) * (rng.random(s) > 0.2) for s in shapes]
                 for _ in range(6)]
        lr, (b1, b2), eps = 0.01, (0.9, 0.999), 1e-8

        params = [make_param(f"p{i}", v.copy()) for i, v in enumerate(init)]
        opt = Adam(params, lr=lr, betas=(b1, b2), eps=eps)
        for step_grads in grads:
            opt.zero_grads()
            for p, g in zip(params, step_grads):
                p.grad[...] = g
            opt.step()

        # the per-parameter loop the flat step replaced, as the oracle
        values = [v.copy() for v in init]
        m = [np.zeros_like(v) for v in init]
        v = [np.zeros_like(v) for v in init]
        for t, step_grads in enumerate(grads, start=1):
            for i, g in enumerate(step_grads):
                m[i] = b1 * m[i] + (1.0 - b1) * g
                v[i] = b2 * v[i] + (1.0 - b2) * g**2
                m_hat = m[i] / (1.0 - b1**t)
                v_hat = v[i] / (1.0 - b2**t)
                values[i] -= lr * m_hat / (np.sqrt(v_hat) + eps)

        state = opt.state
        for i, p in enumerate(params):
            assert p.value.tobytes() == values[i].tobytes()
            assert state[p.name]["m"].tobytes() == m[i].tobytes()
            assert state[p.name]["v"].tobytes() == v[i].tobytes()
            assert state[p.name]["t"] == len(grads)


def test_softmax_gradient_matches_finite_differences():
    z0 = np.array([[0.3, -0.7]])

    def f(z):
        t = Tape()
        return float(t.sum(t.slice_cols(t.softmax(Node(z)), 0, 1)).data)

    tape = Tape()
    p = make_param("z", z0)
    loss = tape.sum(tape.slice_cols(tape.softmax(tape.leaf(p)), 0, 1))
    tape.backward(loss)
    fd = finite_difference_grad(f, z0.copy())
    assert np.allclose(p.grad, fd, atol=1e-8)


def test_gradless_tape_records_nothing_and_is_freed_by_refcounting():
    # a gradless forward keeps no backward function, and no tape is part of
    # a reference cycle, so both kinds are freed with the cyclic GC off
    import gc
    import weakref

    rng = np.random.default_rng(5)
    w, b = make_param("w", rng.normal(size=(3, 2))), make_param("b", rng.normal(size=2))
    table = make_param("e", rng.normal(0.0, 0.01, (4, 2)))

    def forward(tape):
        h = tape.dense(tape.constant(rng.normal(size=(5, 3))), w, b, relu=True)
        h = tape.concat([h, tape.embedding(table, [0, 1, 2, 3, 0])], axis=1)
        return tape.mean(tape.sigmoid(tape.mul(h, tape.leaf(make_param("s", [[2.0]])))))

    gradless = Tape(grad=False)
    out = forward(gradless)
    assert gradless._ops == [] and not out.needs_grad
    recording = Tape()
    recording.backward(forward(recording))
    assert recording._ops and np.any(w.grad)
    refs = [weakref.ref(gradless), weakref.ref(recording)]
    gc.disable()
    try:
        del gradless, recording
        assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()
