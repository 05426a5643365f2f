import numpy as np
import pytest

import hitrack
from hitrack.errors import DataError, ShapeError
from hitrack.routing import ROUTE2
from hitrack.weights import (count_params, init_weights, load_router, load_weights,
                             named_arrays, read_archive, save_router, save_weights,
                             write_archive)


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

    def test_not_an_archive(self, tmp_path):
        path = tmp_path / "junk.hitw"
        path.write_bytes(b"JUNKJUNKJUNK")
        with pytest.raises(DataError):
            read_archive(path)

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


class TestRouterArchive:
    def test_round_trip(self, toy_cfg, tmp_path):
        params = init_weights(toy_cfg, seed=4)
        path = tmp_path / "router.hitw"
        save_router(path, params.router)
        again = load_router(path, toy_cfg)
        for key in ("w1", "b1", "w2", "b2", "w3", "b3"):
            assert np.array_equal(getattr(params.router, key), getattr(again, key))

    def test_wrong_dims_rejected(self, tmp_path):
        params = init_weights(hitrack.make_config("toy"), seed=4)
        path = tmp_path / "router.hitw"
        save_router(path, params.router)
        with pytest.raises(ShapeError):
            load_router(path, hitrack.make_config("small"))
