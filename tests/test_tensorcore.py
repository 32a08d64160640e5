import io
import sys
import time
import tracemalloc
import zipfile

import numpy as np
import pytest

import ella.tensorcore as tc
from ella.encoder import TokenTable, save_tokens
from ella.tensorcore import (
    AdamState,
    ShapeError,
    Tensor,
    adam_step,
    backward,
    grad_check,
    load_arrays,
    load_checkpoint,
    save_arrays,
    save_checkpoint,
    zero_grads,
)


def randt(rng, *shape, requires_grad=True):
    return Tensor(rng.standard_normal(shape), requires_grad=requires_grad)


def softmax_all(a):
    """``tc.softmax`` of ``a`` under an all-true mask."""
    return tc.softmax(a, np.ones(a.shape, dtype=bool))


def test_softmax_uniform():
    out = softmax_all(Tensor([[0.0, 0.0]]))
    assert np.allclose(out.data, [[0.5, 0.5]])


def test_softmax_shift_invariance():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((3, 5))
    for c in (1.0, -3.7, 100.0):
        a = softmax_all(Tensor(x)).data
        b = softmax_all(Tensor(x + c)).data
        assert np.max(np.abs(a - b)) < 1e-12


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(1)
    out = softmax_all(Tensor(rng.standard_normal((7, 9)) * 10))
    assert np.all(out.data >= 0)
    assert np.allclose(out.data.sum(axis=-1), 1.0, atol=1e-9)


def test_layer_norm_constant_row_is_zero():
    g = Tensor(np.ones(4))
    b = Tensor(np.zeros(4))
    out = tc.layer_norm(Tensor([[3.0, 3.0, 3.0, 3.0]]), g, b)
    assert np.allclose(out.data, 0.0, atol=1e-9)


def test_shape_mismatch_names_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(4, 5\)"):
        tc.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))


def test_scalar_square_gradient():
    x = Tensor(3.0, requires_grad=True)

    def f():
        return tc.mul(x, x)

    err = grad_check(f, {"x": x}, eps=1e-5)
    assert err < 1e-9
    zero_grads({"x": x})
    out = f()
    backward(out)
    assert np.allclose(x.grad, 6.0)


@pytest.mark.parametrize("seed", range(5))
def test_primitive_grad_checks(seed):
    rng = np.random.default_rng(seed)
    m, k, n = (int(x) for x in rng.integers(2, 5, size=3))
    a = randt(rng, m, k)
    b = randt(rng, k, n)
    c = randt(rng, m, n)
    d = randt(rng, n)
    gamma = Tensor(rng.uniform(0.5, 1.5, size=n), requires_grad=True)
    beta = randt(rng, n)
    params = {"a": a, "b": b, "c": c, "d": d, "gamma": gamma, "beta": beta}

    cases = {
        "matmul+add": lambda: tc.tsum(tc.add(tc.matmul(a, b), c)),
        "bias-broadcast": lambda: tc.tsum(tc.add(tc.matmul(a, b), d)),
        "sub-mul": lambda: tc.tsum(tc.mul(tc.sub(c, tc.matmul(a, b)), c)),
        "scale": lambda: tc.tsum(tc.scale(tc.matmul(a, b), -2.5)),
        "transpose": lambda: tc.tsum(tc.mul(tc.transpose(tc.matmul(a, b)), tc.transpose(c))),
        "reshape": lambda: tc.tsum(tc.mul(tc.reshape(c, (n, m)), tc.reshape(c, (n, m)))),
        "concat": lambda: tc.tsum(tc.mul(tc.concat([a, a], axis=1), tc.concat([a, a], axis=1))),
        "select_rows": lambda: tc.tsum(tc.select_rows(c, [0, 0, m - 1])),
        "mean-axis": lambda: tc.tsum(tc.mean(tc.matmul(a, b), axis=0)),
        "mean-all": lambda: tc.mean(tc.mul(c, c)),
        "relu": lambda: tc.tsum(tc.relu(tc.matmul(a, b))),
        "sigmoid": lambda: tc.tsum(tc.sigmoid(tc.matmul(a, b))),
        "log": lambda: tc.tsum(tc.tlog(tc.add(tc.sigmoid(c), Tensor(0.5)))),
        "clip": lambda: tc.tsum(tc.clip(tc.mul(c, Tensor(3.0)), -1.0, 1.0)),
        "softmax": lambda: tc.tsum(tc.mul(softmax_all(tc.matmul(a, b)), c)),
        "layer_norm": lambda: tc.tsum(tc.mul(tc.layer_norm(c, gamma, beta), c)),
    }
    for name, f in cases.items():
        err = grad_check(f, params, eps=1e-5, n_samples=40, seed=seed)
        assert err < 1e-4, f"{name}: max rel err {err}"


def test_grad_check_validates_eps():
    x = Tensor(1.0, requires_grad=True)
    with pytest.raises(ValueError):
        grad_check(lambda: tc.mul(x, x), {"x": x}, eps=1e-2)


def test_grad_accumulates_across_shared_use():
    x = Tensor([[1.0, 2.0]], requires_grad=True)
    out = tc.tsum(tc.add(x, x))
    backward(out)
    assert np.allclose(x.grad, 2.0)


def test_first_gradient_is_a_copy_of_a_view():
    # reshape, transpose and concat pass views of their output's gradient;
    # a later contribution must add into the input's own buffer
    up = Tensor(np.zeros((2, 3)), requires_grad=True)
    up.grad = np.arange(6.0).reshape(2, 3)
    x = Tensor(np.zeros(6), requires_grad=True)
    x.accumulate(up.grad.reshape(6))
    x.accumulate(np.ones(6))
    assert np.array_equal(up.grad, np.arange(6.0).reshape(2, 3))
    assert np.array_equal(x.grad, np.arange(6.0) + 1.0)


@pytest.mark.parametrize("view_first", [True, False])
def test_view_gradient_leaves_its_source_unchanged(view_first, monkeypatch):
    # backward frees y's gradient, so it is read as offered: reshape offers x
    # a view of it, which must still hold y's gradient once x's is summed
    offered = []
    accumulate = Tensor.accumulate
    monkeypatch.setattr(Tensor, "accumulate", lambda t, g: (offered.append((t, g)), accumulate(t, g)))
    x = Tensor(np.ones(6), requires_grad=True)
    y = tc.reshape(x, (2, 3))
    terms = [tc.tsum(tc.scale(y, 3.0)), tc.tsum(tc.scale(x, 2.0))]
    backward(tc.add(*(terms if view_first else terms[::-1])))
    (to_y,) = [g for t, g in offered if t is y]
    (view,) = [g for t, g in offered if t is x and g.base is not None]
    assert np.array_equal(to_y, np.full((2, 3), 3.0))
    assert np.array_equal(view, np.full(6, 3.0)) and not np.shares_memory(view, x.grad)
    assert np.array_equal(x.grad, np.full(6, 5.0))


def test_second_backward_of_a_loss_raises():
    x = Tensor(np.ones(3), requires_grad=True)
    loss = tc.tsum(tc.mul(x, x))
    backward(loss)
    with pytest.raises(ValueError, match="no tape"):
        backward(loss)
    with pytest.raises(ValueError, match="no tape"):
        backward(x)  # a leaf
    assert np.array_equal(x.grad, np.full(3, 2.0))


def test_constant_operand_is_offered_no_gradient(monkeypatch):
    # a product's backward skips the operand that needs no gradient
    rng = np.random.default_rng(4)
    offered = []
    accumulate = Tensor.accumulate
    monkeypatch.setattr(Tensor, "accumulate", lambda t, g: (offered.append(t), accumulate(t, g)))
    const = randt(rng, 2, 3, 4, requires_grad=False)
    v, w, lanes = randt(rng, 2, 3, 4), randt(rng, 4, 5), randt(rng, 2, 4, 5)
    for out in (tc.mul(const, v), tc.matmul(const, w), tc.matmul(const, lanes)):
        backward(tc.tsum(out))
    assert const.grad is None and not any(t is const for t in offered)
    assert np.array_equal(v.grad, const.data)
    assert w.grad.shape == w.shape and lanes.grad.shape == lanes.shape


def test_forward_replay_bit_stable():
    rng = np.random.default_rng(3)
    a = randt(rng, 4, 4)
    b = randt(rng, 4, 4)

    def run():
        return tc.tsum(softmax_all(tc.matmul(tc.relu(a), b))).item()

    assert run() == run()


# -- adam ----------------------------------------------------------------------


def test_adam_zero_gradient_leaves_params():
    p = Tensor(np.ones(3), requires_grad=True)
    p.grad = np.zeros(3)
    state = AdamState()
    adam_step({"p": p}, state, lr=0.1)
    assert np.allclose(p.data, 1.0)


def test_adam_first_step_magnitude_is_lr():
    # closed form: with constant gradient g and bias correction the first
    # update is lr * g / (|g| + eps) ~= lr * sign(g)
    for g in (1.0, -2.5, 0.3):
        p = Tensor(np.zeros(1), requires_grad=True)
        p.grad = np.full(1, g)
        adam_step({"p": p}, AdamState(), lr=0.01)
        assert abs(abs(p.data[0]) - 0.01) < 1e-6
        assert np.sign(p.data[0]) == -np.sign(g)


def test_adam_lane_rates_match_scalar_steps():
    # an array lr steps each lane of a stacked tensor as a scalar lr steps
    # that lane alone; a lane at rate 0 keeps its bytes
    rng = np.random.default_rng(4)
    start = rng.standard_normal((3, 4, 2))
    rates = np.array([1e-2, 0.0, 1e-3]).reshape(-1, 1, 1)
    stacked = Tensor(start.copy(), requires_grad=True)
    lanes = [Tensor(start[i].copy(), requires_grad=True) for i in range(3)]
    state, lane_states = AdamState(), [AdamState() for _ in lanes]
    for _ in range(5):
        grad = rng.standard_normal(start.shape)
        stacked.grad = grad
        adam_step({"p": stacked}, state, rates)
        for i, lane in enumerate(lanes):
            lane.grad = grad[i].copy()
            adam_step({"p": lane}, lane_states[i], float(rates[i, 0, 0]))
    assert stacked.data[1].tobytes() == start[1].tobytes()
    for i in (0, 2):
        assert stacked.data[i].tobytes() == lanes[i].data.tobytes()
        assert not np.array_equal(stacked.data[i], start[i])


def test_adam_trajectory_deterministic():
    def run():
        rng = np.random.default_rng(11)
        p = Tensor(rng.standard_normal(4), requires_grad=True)
        state = AdamState()
        for _ in range(25):
            zero_grads({"p": p})
            loss = tc.tsum(tc.mul(p, p))
            backward(loss)
            adam_step({"p": p}, state, lr=1e-2)
        return p.data.copy()

    assert np.array_equal(run(), run())


# -- checkpoint container ---------------------------------------------------------


def test_array_container_roundtrip(tmp_path):
    rng = np.random.default_rng(5)
    arrays = {
        "alpha/w": rng.standard_normal((3, 4)),
        "beta": rng.standard_normal(7),
        "gamma 32": rng.standard_normal((2, 2)).astype(np.float32),
    }
    path = tmp_path / "arrays.bin"
    save_arrays(arrays, path)
    loaded = load_arrays(path)
    assert set(loaded) == set(arrays)
    for name in arrays:
        assert loaded[name].dtype == arrays[name].dtype
        assert np.array_equal(loaded[name], arrays[name])


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(6)
    params = {"w": Tensor(rng.standard_normal((5, 5)), requires_grad=True)}
    save_checkpoint(params, tmp_path / "ckpt.bin")
    loaded = load_checkpoint(tmp_path / "ckpt.bin")
    assert np.array_equal(loaded["w"].data, params["w"].data)
    assert loaded["w"].requires_grad


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"garbage")
    with pytest.raises(ValueError, match=r"bad.bin: not a zip of \.npy arrays \(no end record"):
        load_arrays(path)
    # the layout save_arrays wrote before it wrote zips: magic, count, then name, dtype code, shape and values
    path.write_bytes(b"ELLACKPT v1\n" + bytes.fromhex("01000000 0100 77 0001 01000000") + np.ones(1).tobytes())
    with pytest.raises(ValueError, match=r"bad.bin: not a zip of \.npy arrays \(it has the older ELLACKPT v1 layout\)"):
        load_arrays(path)


def test_checkpoint_truncated_or_padded_names_the_file(tmp_path):
    src = tmp_path / "ckpt.bin"
    save_arrays({"w": np.arange(3.0), "s": np.float32(2.0)}, src)
    data = src.read_bytes()
    cut = tmp_path / "cut.bin"
    for n in range(len(data)):
        cut.write_bytes(data[:n])
        with pytest.raises(ValueError, match="cut.bin"):
            load_arrays(cut)
    cut.write_bytes(data + b"\x00junk")
    with pytest.raises(ValueError, match="cut.bin.*no end record at the end of the file"):
        load_arrays(cut)
    cut.write_bytes(b"junk" + data)
    with pytest.raises(ValueError, match="cut.bin.*bytes before the first member"):
        load_arrays(cut)


@pytest.mark.parametrize("offset,message", [(-12, "its end record counts 3 members"), (-2, "no end record")])
def test_an_end_record_that_disagrees_with_the_members_is_refused(tmp_path, offset, message):
    # a changed member count, or a comment length that moves the end record off the end of the file
    path = tmp_path / "ckpt.bin"
    save_arrays({"w": np.arange(3.0), "s": np.float32(2.0)}, path)
    data = bytearray(path.read_bytes())
    data[offset] ^= 1
    path.write_bytes(bytes(data))
    with pytest.raises(ValueError, match=f"ckpt.bin: not a zip of .npy arrays \\({message}"):
        load_arrays(path)


def _npy(arr):
    fh = io.BytesIO()
    np.lib.format.write_array(fh, arr, allow_pickle=True)
    return fh.getvalue()


def _zip_of(path, name, raw, compress_type=zipfile.ZIP_STORED):
    """A zip at ``path`` whose one member ``name`` holds ``raw``."""
    with zipfile.ZipFile(path, "w") as zf:
        zf.writestr(zipfile.ZipInfo(name), raw, compress_type=compress_type)


def test_checkpoint_unknown_dtype_code(tmp_path):
    # a member of a dtype save_arrays never writes is refused, pickled objects included
    path = tmp_path / "ckpt.bin"
    for arr in (np.arange(3), np.array([1.0, None], dtype=object)):
        _zip_of(path, "w.npy", _npy(arr))
        with pytest.raises(ValueError, match="ckpt.bin.*member 'w.npy' is not .* values of float64, float32 or uint8"):
            load_arrays(path)
        assert np.load(path, allow_pickle=True)["w"].dtype == arr.dtype


@pytest.mark.parametrize(
    "name,raw,compress_type,message",
    [
        ("w.npy", _npy(np.ones((3, 2), order="F")), zipfile.ZIP_STORED, r"member 'w.npy' is not \(3, 2\) values of .* in C order"),
        ("w.txt", _npy(np.ones(3)), zipfile.ZIP_STORED, r"member 'w.txt' is not a stored \.npy file"),
        ("w.npy", _npy(np.ones(3))[:-8], zipfile.ZIP_STORED, r"member 'w.npy' is not \(3,\) values"),
        ("w.npy", _npy(np.ones(3)), zipfile.ZIP_DEFLATED, r"member 'w.npy' is not a stored \.npy file"),
        ("w.npy", _npy(np.ones(3)), zipfile.ZIP_LZMA, r"member 'w.npy' is not a stored \.npy file"),
    ],
    ids=["fortran_order", "not_npy", "short_member", "deflated", "lzma"],
)
def test_a_member_save_arrays_does_not_write_is_refused(tmp_path, name, raw, compress_type, message):
    path = tmp_path / "ckpt.bin"
    _zip_of(path, name, raw, compress_type)
    with pytest.raises(ValueError, match=f"ckpt.bin: not a zip of \\.npy arrays \\({message}"):
        load_arrays(path)


def _small_token_file(path):
    t = TokenTable(dim=8, node_tokens={"a": np.arange(8.0), "b": -np.arange(8.0)})
    t.relation_tokens[("a", 1, "paper")] = np.linspace(0.0, 1.0, 8)
    save_tokens(t, path)


def _small_checkpoint(path):
    rng = np.random.default_rng(7)
    params = {"proj/W": rng.standard_normal((3, 2)), "proj/b": rng.standard_normal(2), "ln/g": np.ones(2)}
    save_checkpoint({name: Tensor(v, requires_grad=True) for name, v in params.items()}, path)


def _as_bits(arrays):
    return {name: (arr.dtype, arr.shape, arr.tobytes()) for name, arr in arrays.items()}


@pytest.mark.parametrize("write", [_small_token_file, _small_checkpoint], ids=["tokens", "checkpoint"])
def test_every_bit_flip_and_truncation_loads_the_saved_arrays_or_names_the_file(tmp_path, write):
    path = tmp_path / "arrays.bin"
    write(path)
    data = path.read_bytes()
    saved = _as_bits(load_arrays(path))
    damaged = [data[:n] for n in range(len(data))]
    for bit in range(8 * len(data)):
        flipped = bytearray(data)
        flipped[bit // 8] ^= 1 << bit % 8
        damaged.append(bytes(flipped))
    unchanged = 0
    for raw in damaged:
        try:
            loaded = load_arrays(path, raw)
        except ValueError as exc:
            assert str(exc).startswith(f"{path}: "), exc
            continue
        assert _as_bits(loaded) == saved
        unchanged += 1
    assert unchanged  # flips of fields zipfile does not read, such as dates, change nothing


def test_array_file_bytes_do_not_depend_on_the_clock(tmp_path, monkeypatch):
    arrays = {"w": np.arange(6.0).reshape(2, 3), "u": np.arange(4, dtype=np.uint8)}
    for stamp in (0.0, 2e9):
        monkeypatch.setattr(time, "time", lambda: stamp)
        save_arrays(arrays, tmp_path / f"{stamp}.bin")
    assert (tmp_path / "0.0.bin").read_bytes() == (tmp_path / "2000000000.0.bin").read_bytes()


def test_array_file_bytes_do_not_depend_on_the_platform(tmp_path, monkeypatch):
    # zipfile.ZipInfo records the system that made a member: 0 on Windows, 3 elsewhere
    arrays = {"w": np.arange(6.0).reshape(2, 3)}
    save_arrays(arrays, tmp_path / "here.bin")
    monkeypatch.setattr(sys, "platform", "win32")
    save_arrays(arrays, tmp_path / "win32.bin")
    assert (tmp_path / "here.bin").read_bytes() == (tmp_path / "win32.bin").read_bytes()


def test_a_member_over_the_zip64_limit_round_trips(tmp_path, monkeypatch):
    # a member of 2 GiB or more needs zip64 fields; a small limit stands in for that size
    arrays = {"w": np.arange(64.0).reshape(8, 8), "u": np.arange(300, dtype=np.uint8)}
    path = tmp_path / "big.bin"
    with monkeypatch.context() as m:
        m.setattr(zipfile, "ZIP64_LIMIT", 256)
        save_arrays(arrays, path)
    assert b"PK\x06\x06" in path.read_bytes()  # the zip64 end record
    assert _as_bits(load_arrays(path)) == _as_bits(arrays)
    with np.load(path, allow_pickle=False) as npz:
        assert _as_bits({name: npz[name] for name in npz.files}) == _as_bits(arrays)


def test_load_arrays_makes_no_second_copy_of_a_member(tmp_path):
    arr = np.arange(1 << 20, dtype=np.float64)  # 8 MiB
    path = tmp_path / "w.bin"
    save_arrays({"w": arr}, path)
    data = path.read_bytes()
    tracemalloc.start()
    try:
        loaded = load_arrays(path, data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(loaded["w"], arr) and loaded["w"].flags.writeable
    assert peak < 1.5 * arr.nbytes, peak


@pytest.mark.parametrize("write", [_small_token_file, _small_checkpoint], ids=["tokens", "checkpoint"])
def test_numpy_load_reads_the_saved_arrays(tmp_path, write):
    path = tmp_path / "arrays.bin"
    write(path)
    with np.load(path, allow_pickle=False) as npz:
        assert _as_bits({name: npz[name] for name in npz.files}) == _as_bits(load_arrays(path))


# -- batched ops ------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(3))
def test_batched_op_grad_checks(seed):
    rng = np.random.default_rng(100 + seed)
    x = randt(rng, 2, 3, 4, 5)
    w = randt(rng, 5, 3)
    y = randt(rng, 2, 3, 5, 4)
    u = randt(rng, 2, 1, 1, 5)
    s = randt(rng, 2, 3, 4, 4)
    mix = Tensor(rng.standard_normal((2, 3, 4, 4)))
    mask = rng.random((2, 3, 1, 4)) < 0.6
    mask[0, 0, 0] = False  # one fully masked row
    params = {"x": x, "w": w, "y": y, "u": u, "s": s}

    cases = {
        "matmul-weight": lambda: tc.tsum(tc.mul(tc.matmul(x, w), tc.matmul(x, w))),
        "matmul-batch": lambda: tc.tsum(tc.mul(tc.matmul(x, y), mix)),
        "matmul-broadcast": lambda: tc.tsum(tc.mul(tc.matmul(u, tc.transpose(x)), tc.matmul(u, y))),
        "transpose": lambda: tc.tsum(tc.mul(tc.transpose(s), mix)),
        "masked-softmax": lambda: tc.tsum(tc.mul(tc.softmax(s, mask), mix)),
        "gather": lambda: tc.tsum(
            tc.mul(tc.gather(x, [3, 0, 3, 1], axis=2), tc.gather(x, [0, 0, 2, 1], axis=-2))
        ),
    }
    for name, f in cases.items():
        err = grad_check(f, params, eps=1e-5, n_samples=60, seed=seed)
        assert err < 1e-4, f"{name}: max rel err {err}"


@pytest.mark.parametrize(
    "shape, axis, indices",
    [
        ((4, 3), 0, [2, 0, 2, 2, 1, 0]),  # select_rows
        ((2, 3, 5, 2, 3), 2, [3, 0, 3, 1, 3]),
        ((2, 3, 4, 5), -2, [0, 0, 2, 1, 0]),
        ((6, 2, 4, 3), -2, [0]),  # hop_readout's h0 and the hop tokens after it
        ((6, 2, 4, 3), -2, [1, 2, 3]),
    ],
)
def test_gather_backward_adds_as_add_at_does_to_the_bit(shape, axis, indices):
    rng = np.random.default_rng(len(indices))
    x = randt(rng, *shape)
    out = tc.gather(x, indices, axis=axis)
    # magnitudes far apart, so a different summation order would show in the last bits
    weights = rng.standard_normal(out.shape) * 10.0 ** rng.integers(-12, 12, size=out.shape)
    backward(tc.tsum(tc.mul(out, Tensor(weights))))
    expected = np.zeros(shape)
    np.add.at(np.moveaxis(expected, axis, 0), indices, np.moveaxis(weights, axis, 0))
    assert x.grad.tobytes() == expected.tobytes()


def test_batched_matmul_matches_per_slice():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((2, 3, 4, 5))
    b = rng.standard_normal((2, 3, 5, 2))
    w = rng.standard_normal((5, 2))
    out = tc.matmul(Tensor(a), Tensor(b)).data
    flat = tc.matmul(Tensor(a), Tensor(w)).data
    for i in range(2):
        for j in range(3):
            assert np.allclose(out[i, j], a[i, j] @ b[i, j], atol=1e-14)
            assert np.allclose(flat[i, j], a[i, j] @ w, atol=1e-14)
    with pytest.raises(ShapeError):
        tc.matmul(Tensor(a), Tensor(rng.standard_normal((2, 3, 4, 2))))


def test_masked_softmax_values_and_empty_rows():
    x = Tensor([[1.0, 2.0, 50.0], [3.0, 4.0, 5.0]], requires_grad=True)
    mask = np.array([[True, True, False], [False, False, False]])
    out = tc.softmax(x, mask)
    expected = np.exp([1.0, 2.0]) / np.exp([1.0, 2.0]).sum()
    assert np.allclose(out.data[0], [expected[0], expected[1], 0.0], atol=1e-15)
    assert np.array_equal(out.data[1], np.zeros(3))
    backward(tc.tsum(tc.mul(out, Tensor(np.arange(6.0).reshape(2, 3)))))
    assert np.all(np.isfinite(x.grad))
    assert x.grad[0, 2] == 0.0 and np.array_equal(x.grad[1], np.zeros(3))


def test_masked_softmax_all_true_equals_softmax():
    x = np.random.default_rng(8).standard_normal((4, 5))
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    plain = e / e.sum(axis=-1, keepdims=True)
    assert np.array_equal(tc.softmax(Tensor(x), np.ones((4, 5), dtype=bool)).data, plain)
    assert np.array_equal(tc.softmax(Tensor(x), np.ones(5, dtype=bool)).data, plain)  # a mask broadcasts
    with pytest.raises(ShapeError):
        tc.softmax(Tensor(x), np.ones((2, 4, 5), dtype=bool))
