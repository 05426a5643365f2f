import struct
import tracemalloc
from dataclasses import dataclass, fields, is_dataclass

import numpy as np
import pytest

import hitrack
from hitrack import weights
from hitrack.config import STAGE_BLOCKS
from hitrack.errors import DataError, ShapeError
from hitrack.objectives import fit_router, label_router_samples
from hitrack.routing import ROUTE2, make_tracker
from hitrack.weights import init_weights, load_weights, named_arrays, save_weights, write_archive

from conftest import count_params


def reference_maker(seed):
    """Whole-tensor draws, as ``init_weights`` first made them."""
    rng = np.random.default_rng(seed)

    def make(shape, fan_in, dtype):
        bound = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-bound, bound, size=shape).astype(dtype)

    return make


class TestInitWeights:
    def test_same_seed_bit_identical(self, toy_cfg):
        a = init_weights(toy_cfg, seed=5)
        b = init_weights(toy_cfg, seed=5)
        for (na, ta), (nb, tb) in zip(named_arrays(a), named_arrays(b)):
            assert na == nb and np.array_equal(ta, tb)

    def test_different_seeds_differ(self, toy_cfg):
        a = init_weights(toy_cfg, seed=5)
        b = init_weights(toy_cfg, seed=6)
        assert any(not np.array_equal(ta, tb)
                   for (_, ta), (_, tb) in zip(named_arrays(a), named_arrays(b)))

    def test_bias_tables_zero(self, toy_params):
        assert not toy_params.stages[0][0].attn.bias_table.any()
        assert not toy_params.shrinks[0].bias_table.any()

    def test_fan_in_bound(self, toy_params):
        c1 = toy_params.config.channels[0]
        wq = toy_params.stages[0][0].attn.wq
        assert np.abs(wq).max() <= 1.0 / np.sqrt(c1)

    def test_base_param_count_near_42m(self):
        params = init_weights(hitrack.make_config("base"), seed=0)
        count = count_params(params)
        assert abs(count - 42.14e6) / 42.14e6 <= 0.25

    def test_dtype_follows_config(self, toy_cfg64):
        params = init_weights(toy_cfg64, seed=1)
        assert params.embed.convs[0].kernel.dtype == np.float64

    def test_negative_seed_rejected(self, toy_cfg):
        with pytest.raises(DataError, match="seed must be >= 0"):
            init_weights(toy_cfg, seed=-1)


class TestBlockedDraws:
    """``init_weights`` draws each tensor in blocks of values: it must give the
    bytes of one whole-tensor draw cast to the config dtype."""

    @pytest.mark.parametrize("variant, dtype", [
        (v, d) for v in ("toy", "tiny", "small", "base") for d in ("float32", "float64")
        if (v, d) != ("base", "float64")
    ])
    def test_same_bytes_as_whole_tensor_draws(self, variant, dtype):
        cfg = hitrack.make_config(variant, dtype=dtype)
        got = named_arrays(init_weights(cfg, seed=7))
        want = named_arrays(weights._build_params(cfg, reference_maker(7)))
        assert [n for n, _ in got] == [n for n, _ in want]
        for (name, a), (_, b) in zip(got, want):
            assert a.dtype == b.dtype and a.shape == b.shape, name
            assert a.tobytes() == b.tobytes(), name

    @pytest.mark.parametrize("block", [7, 1000])
    def test_block_size_does_not_change_bytes(self, monkeypatch, block):
        monkeypatch.setattr(weights, "_DRAW_BLOCK", block)
        cfg = hitrack.make_config("toy")
        for (name, a), (_, b) in zip(named_arrays(init_weights(cfg, seed=7)),
                                     named_arrays(weights._build_params(cfg, reference_maker(7)))):
            assert a.tobytes() == b.tobytes(), name

    @pytest.mark.parametrize("variant", ["tiny", "base"])
    def test_scratch_is_bounded(self, variant):
        cfg = hitrack.make_config(variant)
        tracemalloc.start()
        try:
            params = init_weights(cfg, seed=7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        param_bytes = sum(a.nbytes for _, a in named_arrays(params))
        assert peak - param_bytes < 8 * 2**20


class TestArchive:
    def test_round_trip_bit_exact(self, toy_cfg, tmp_path):
        params = init_weights(toy_cfg, seed=3)
        path = tmp_path / "toy.hitw"
        save_weights(path, params)
        again = load_weights(path, toy_cfg)
        for (na, ta), (nb, tb) in zip(named_arrays(params), named_arrays(again)):
            assert na == nb
            assert np.array_equal(ta, tb)

    def test_flipped_payload_byte_rejected(self, toy_cfg, tmp_path):
        path = tmp_path / "toy.hitw"
        save_weights(path, init_weights(toy_cfg, seed=3))
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0x01
        path.write_bytes(bytes(blob))
        with pytest.raises(DataError, match="checksum"):
            load_weights(path, toy_cfg)

    def test_cross_config_load_names_mismatch(self, toy_cfg, tmp_path):
        path = tmp_path / "toy.hitw"
        save_weights(path, init_weights(toy_cfg, seed=3))
        small = hitrack.make_config("small")
        with pytest.raises(ShapeError):
            load_weights(path, small)

    def test_shape_mismatch_names_tensor(self, toy_cfg, tmp_path):
        params = init_weights(toy_cfg, seed=3)
        tensors = named_arrays(params)
        tensors = [(n, a[:-1] if n == "router.b1" else a) for n, a in tensors]
        path = tmp_path / "bad.hitw"
        write_archive(path, tensors)
        with pytest.raises(ShapeError, match="router.b1"):
            load_weights(path, toy_cfg)

    def test_not_an_archive(self, toy_cfg, tmp_path):
        path = tmp_path / "junk.hitw"
        path.write_bytes(b"JUNKJUNKJUNK")
        with pytest.raises(DataError):
            load_weights(path, toy_cfg)

    def test_idempotent_save(self, toy_cfg, tmp_path):
        params = init_weights(toy_cfg, seed=3)
        p1, p2 = tmp_path / "a.hitw", tmp_path / "b.hitw"
        save_weights(p1, params)
        save_weights(p2, load_weights(p1, toy_cfg))
        assert p1.read_bytes() == p2.read_bytes()

    def test_serialization_survives_forward(self, toy_cfg, toy_pair, tmp_path):
        # runtime caches (gathered biases) must never leak into archives
        params = init_weights(toy_cfg, seed=3)
        before = {n for n, _ in named_arrays(params)}
        hitrack.forward(*toy_pair, params, route=ROUTE2)
        after = {n for n, _ in named_arrays(params)}
        assert before == after

    def test_float64_round_trip(self, toy_cfg64, tmp_path):
        params = init_weights(toy_cfg64, seed=2)
        path = tmp_path / "toy64.hitw"
        save_weights(path, params)
        again = load_weights(path, toy_cfg64)
        for (_, ta), (_, tb) in zip(named_arrays(params), named_arrays(again)):
            assert ta.dtype == tb.dtype and np.array_equal(ta, tb)


def corrupt_magic(blob):
    blob[:4] = b"HITX"


def corrupt_version(blob):
    struct.pack_into("<H", blob, 4, 2)


def corrupt_dtype_code(blob):
    (name_len,) = struct.unpack_from("<H", blob, 10)
    blob[12 + name_len] = 7  # the first tensor's dtype code


def truncate_manifest(blob):
    del blob[20:]


def truncate_payload(blob):
    del blob[-100:]


def append_trailing_byte(blob):
    blob += b"\0"


def flip_payload_byte(blob):
    blob[len(blob) // 2] ^= 0x01


def every_array(obj, path="", found=None):
    """Brute force: (path, array, is a declared dataclass field) for every
    ndarray attribute reachable from ``obj``, caches included."""
    found = [] if found is None else found
    if isinstance(obj, list):
        for i, item in enumerate(obj):
            every_array(item, f"{path}{i}.", found)
    elif hasattr(obj, "__dict__"):
        declared = getattr(obj, "__dataclass_fields__", {})
        for key, child in vars(obj).items():
            if isinstance(child, np.ndarray):
                found.append((path + key, child, key in declared))
            else:
                every_array(child, f"{path}{key}.", found)
    return found


class TestArchiveNames:
    """Archive names are the dataclass field paths of the tree's arrays."""

    def test_derived_tree_stores_its_extra_tensor(self, toy_cfg, tmp_path):
        @dataclass(eq=False)
        class Extended(weights.ModelParams):
            extra: np.ndarray

        params = init_weights(toy_cfg, seed=7)
        extra = np.arange(6, dtype=np.float32).reshape(2, 3)
        tree = Extended(**{f.name: getattr(params, f.name) for f in fields(params)}, extra=extra)
        names = [name for name, _ in named_arrays(tree)]
        assert names == [name for name, _ in named_arrays(params)] + ["extra"]
        path = tmp_path / "extended.hitw"
        save_weights(path, tree)
        with open(path, "rb") as fh:
            assert weights._read_manifest(fh, path)["extra"] == (np.dtype("<f4"), (2, 3))
        assert path.read_bytes()[-4 - extra.nbytes:-4] == extra.tobytes()

    def test_each_field_array_once_and_no_cache(self, toy_cfg, toy_pair):
        params = init_weights(toy_cfg, seed=7)
        hitrack.forward(*toy_pair, params, route=ROUTE2)  # fills every _bias_cache
        found = every_array(params)
        cached = [(name, a) for name, a, declared in found if not declared]
        # one gathered bias per attention layer: every stage block and both shrinks
        assert len(cached) == sum(STAGE_BLOCKS) + 2
        assert all(name.endswith("._bias_cache") for name, _ in cached)
        want = [(name, id(a)) for name, a, declared in found if declared]
        assert [(name, id(a)) for name, a in named_arrays(params)] == want
        assert len({i for _, i in want}) == len(want)
        assert not {id(a) for _, a in cached} & {i for _, i in want}


def scalar_fields(obj, path=""):
    """Field paths below ``ModelParams.config`` that hold an int or a float."""
    found = []
    if isinstance(obj, list):
        for i, item in enumerate(obj):
            found += scalar_fields(item, f"{path}{i}.")
    elif is_dataclass(obj):
        for f in fields(obj):
            child = getattr(obj, f.name)
            if isinstance(child, (int, float)):
                found.append(path + f.name)
            elif not isinstance(child, hitrack.ModelConfig):
                found += scalar_fields(child, f"{path}{f.name}.")
    return found


class TestTreeHoldsOnlyTensors:
    """Head count, key width and tau_fg live in the config alone."""

    def test_no_scalar_field_below_config(self, toy_params):
        assert scalar_fields(toy_params) == []

    def test_fitted_router_routes_the_same_after_reload(self, tmp_path):
        cfg = hitrack.make_config("toy", tau_fg=0.3)
        params = init_weights(cfg, seed=7)
        train = [hitrack.gen_synthetic(1, 0, 20)]
        features, targets = label_router_samples(train, params)
        # no cast: the router comes back in the features' dtype, as the archive stores it
        params.router, _ = fit_router(features, targets, 1e-2, 20, 7, hidden=cfg.router_hidden)
        seq = hitrack.gen_synthetic(2, 1, 10)

        def decisions(p):
            result = hitrack.track_sequence(seq.frames, seq.boxes[0], make_tracker("dyhit", p))
            return [(d.route, d.f, d.fallback) for d in result.decisions]

        path = tmp_path / "fitted.hitw"
        save_weights(path, params)
        assert decisions(load_weights(path, cfg)) == decisions(params)


class TestOnePassLoad:
    """``load_weights`` checks the manifest against the config, then reads
    each tensor straight into the tree under a running checksum."""

    @pytest.mark.parametrize("corrupt, message", [
        (corrupt_magic, "not a HITW weight archive"),
        (corrupt_version, "unsupported archive version 2"),
        (corrupt_dtype_code, "unknown dtype code 7"),
        (truncate_manifest, "truncated inside the manifest"),
        (truncate_payload, "truncated"),
        (append_trailing_byte, "checksum"),
        (flip_payload_byte, "checksum mismatch"),
    ])
    def test_corrupt_archive_is_data_error(self, toy_cfg, tmp_path, corrupt, message):
        path = tmp_path / "toy.hitw"
        save_weights(path, init_weights(toy_cfg, seed=3))
        blob = bytearray(path.read_bytes())
        corrupt(blob)
        path.write_bytes(bytes(blob))
        with pytest.raises(DataError, match=message):
            load_weights(path, toy_cfg)

    def test_duplicated_name_rejected(self, toy_cfg, tmp_path):
        tensors = named_arrays(init_weights(toy_cfg, seed=3))
        nines = np.full_like(dict(tensors)["router.b1"], 9.0)
        path = tmp_path / "dup.hitw"
        write_archive(path, tensors + [("router.b1", nines)])
        with pytest.raises(DataError, match="'router.b1' appears twice"):
            load_weights(path, toy_cfg)

    def test_mismatch_reported_before_checksum(self, toy_cfg, tmp_path):
        path = tmp_path / "toy.hitw"
        save_weights(path, init_weights(toy_cfg, seed=3))
        blob = bytearray(path.read_bytes())
        flip_payload_byte(blob)
        path.write_bytes(bytes(blob))
        with pytest.raises(ShapeError):
            load_weights(path, hitrack.make_config("small"))

    @pytest.mark.parametrize("stored, loaded", [("float64", "float32"), ("float32", "float64")])
    def test_cross_dtype_load_equals_astype(self, tmp_path, stored, loaded):
        params = init_weights(hitrack.make_config("toy", dtype=stored), seed=7)
        path = tmp_path / "toy.hitw"
        save_weights(path, params)
        again = load_weights(path, hitrack.make_config("toy", dtype=loaded))
        for (name, got), (_, want) in zip(named_arrays(again), named_arrays(params)):
            assert got.dtype == np.dtype(loaded), name
            assert got.tobytes() == want.astype(loaded).tobytes(), name

    def test_save_stores_the_config_dtype(self, toy_cfg, tmp_path):
        # a float64 router set by hand in a float32 tree
        params = init_weights(toy_cfg, seed=7)
        router = params.router
        for key in ("w1", "b1", "w2", "b2", "w3", "b3"):
            setattr(router, key, getattr(router, key).astype(np.float64) + 0.1)
        path = tmp_path / "toy.hitw"
        save_weights(path, params)
        with open(path, "rb") as fh:
            stored = weights._read_manifest(fh, path)
        assert {dtype for dtype, _ in stored.values()} == {np.dtype("<f4")}
        again = load_weights(path, toy_cfg)
        for (name, got), (_, want) in zip(named_arrays(again), named_arrays(params)):
            assert got.tobytes() == want.astype(np.float32).tobytes(), name

    @staticmethod
    def traced_peak(fn, *args):
        """Peak bytes ``fn`` allocates above what is live when it starts."""
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            result = fn(*args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return result, peak - start

    @pytest.mark.parametrize("variant", ["tiny", "base"])
    def test_save_scratch_is_bounded(self, tmp_path, variant):
        params = init_weights(hitrack.make_config(variant), seed=7)
        _, peak = self.traced_peak(save_weights, tmp_path / "w.hitw", params)
        assert peak < 8 * 2**20

    @pytest.mark.parametrize("variant", ["tiny", "base"])
    def test_load_holds_the_weights_once(self, tmp_path, variant):
        cfg = hitrack.make_config(variant)
        path = tmp_path / "w.hitw"
        save_weights(path, init_weights(cfg, seed=7))
        params, peak = self.traced_peak(load_weights, path, cfg)
        param_bytes = sum(a.nbytes for _, a in named_arrays(params))
        assert peak - param_bytes < 8 * 2**20
