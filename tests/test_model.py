import json
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mlembed.model
from mlembed.errors import ConfigError, ContractError, DataFormatError, DegenerateInputError
from mlembed.losses import LossConfig, ml2_loss, pretrain_loss
from mlembed.model import CHECKPOINT_MAGIC, MAX_ARRAY_ELEMENTS, EmbeddingModel, EncoderConfig
from mlembed.model import check_size
from mlembed.numeric import ParamStore, check_gradient


SMALL = EncoderConfig(input_dim=4, hidden_sizes=(5,), embedding_dim=3, seed=0)


def small_model(**overrides):
    cfg = EncoderConfig(
        input_dim=overrides.get("input_dim", 4),
        hidden_sizes=overrides.get("hidden_sizes", (5,)),
        embedding_dim=overrides.get("embedding_dim", 3),
        label_count=overrides.get("label_count"),
        seed=overrides.get("seed", 0),
    )
    return EmbeddingModel(cfg)


class TestForwardEmbed:
    def test_unit_norm_outputs(self):
        model = small_model()
        rng = np.random.default_rng(1)
        E, _ = model.embed(rng.standard_normal((50, 4)))
        assert np.all(np.abs(np.linalg.norm(E, axis=1) - 1.0) <= 1e-6)

    def test_constant_map_with_zero_trunk(self):
        model = small_model()
        for name in ("W0", "proj_W"):
            model.params.value(name)[...] = 0.0
        model.params.value("proj_b")[...] = np.array([1.0, 0.0, 0.0])
        rng = np.random.default_rng(2)
        E, _ = model.embed(rng.standard_normal((10, 4)))
        assert np.allclose(E, np.tile([1.0, 0.0, 0.0], (10, 1)))

    def test_projection_scale_invariance(self):
        model = small_model()
        rng = np.random.default_rng(3)
        X = rng.standard_normal((6, 4))
        base, _ = model.embed(X)
        model.params.value("proj_W")[...] *= 3.7
        model.params.value("proj_b")[...] *= 3.7
        scaled, _ = model.embed(X)
        assert np.allclose(base, scaled, atol=1e-12)

    def test_deterministic_init(self):
        a, b = small_model(seed=9), small_model(seed=9)
        for name in a.params.names():
            assert np.array_equal(a.params.value(name), b.params.value(name))

    def test_degenerate_activation_rejected(self):
        model = small_model()
        for name in model.params.names():
            model.params.value(name)[...] = 0.0
        with pytest.raises(DegenerateInputError, match="norm"):
            model.embed(np.ones((1, 4)))

    def test_wrong_input_dim_rejected(self):
        with pytest.raises(ContractError):
            small_model().embed(np.ones((2, 7)))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_rejected(self, value):
        X = np.ones((3, 4))
        X[1, 2] = value
        with pytest.raises(DegenerateInputError, match="input contains non-finite values"):
            small_model().embed(X)


class TestForwardClassify:
    def test_zero_logits_give_half_half(self):
        model = small_model(label_count=3)
        for k in range(3):
            model.params.value(f"head{k}_W")[...] = 0.0
            model.params.value(f"head{k}_b")[...] = 0.0
        lp, _ = model.classify(np.ones((2, 4)))
        assert np.allclose(lp, np.log(0.5))

    def test_pairs_exponentiate_to_one(self):
        model = small_model(label_count=4)
        rng = np.random.default_rng(5)
        lp, _ = model.classify(rng.standard_normal((8, 4)))
        assert np.all(np.abs(np.exp(lp).sum(axis=2) - 1.0) <= 1e-9)

    def test_softmax_monotone_in_gap(self):
        model = small_model(label_count=1)
        h_dim = model.config.hidden_out
        probs = []
        for gap in (0.0, 1.0, 2.0):
            model.params.value("head0_W")[...] = 0.0
            model.params.value("head0_b")[...] = np.array([gap, 0.0])
            lp, _ = model.classify(np.zeros((1, 4)))
            probs.append(float(np.exp(lp[0, 0, 0])))
        assert probs[0] < probs[1] < probs[2]

    def test_heads_absent_raises(self):
        with pytest.raises(ConfigError, match="heads"):
            small_model().classify(np.ones((1, 4)))


def model_param_store_fn(model, X, loss_fn):
    """Adapter: evaluate loss(embed(X)) and push grads into the model store."""

    def f(_store):
        E, cache = model.embed(X)
        value, G = loss_fn(E)
        model.backward_embed(cache, G)
        return value

    return f


class TestBackward:
    def test_zero_upstream_gives_zero_grads(self):
        model = small_model()
        rng = np.random.default_rng(7)
        X = rng.standard_normal((3, 4))
        E, cache = model.embed(X)
        model.params.zero_grads()
        model.backward_embed(cache, np.zeros_like(E))
        for name in model.params.names():
            assert not model.params.grad(name).any()

    def test_upstream_along_output_direction_is_null(self):
        # (I - f f^T) kills the radial component: feeding f itself as the
        # upstream gradient must produce zero parameter gradients.
        model = small_model()
        rng = np.random.default_rng(8)
        X = rng.standard_normal((5, 4))
        E, cache = model.embed(X)
        model.params.zero_grads()
        model.backward_embed(cache, E.copy())
        for name in model.params.names():
            assert np.abs(model.params.grad(name)).max() <= 1e-12

    def test_end_to_end_gradient_check(self):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((4, 4))
        taus = np.array([0.4])
        cfg = LossConfig(margin=0.2)

        def loss_fn(E):
            out = ml2_loss(E[0], E[1:2], E[2:4], taus, cfg)
            G = np.zeros_like(E)
            G[0] = out.anchor_grad
            G[1:2] = out.positive_grads
            G[2:4] = out.negative_grads
            return out.value, G

        model = small_model(seed=3)
        f = model_param_store_fn(model, X, loss_fn)
        assert check_gradient(f, model.params) <= 1e-4

    def test_classify_gradient_check(self):
        rng = np.random.default_rng(10)
        X = rng.standard_normal((3, 4))
        model = small_model(label_count=2, seed=4)
        label_sets = [{0}, {1}, {0, 1}]

        def f(_store):
            lp, cache = model.classify(X)
            G = np.zeros_like(lp)
            total = 0.0
            for row, labels in enumerate(label_sets):
                out = pretrain_loss(lp[row], labels, 2)
                total += out.value
                G[row] = out.logit_grads
            model.backward_classify(cache, G)
            return total

        assert check_gradient(f, model.params) <= 1e-4

    def test_shape_mismatch_rejected(self):
        model = small_model()
        E, cache = model.embed(np.ones((2, 4)))
        with pytest.raises(ContractError):
            model.backward_embed(cache, np.zeros((3, 3)))


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        model = small_model(label_count=3, seed=11)
        # make values non-trivial
        rng = np.random.default_rng(12)
        for name in model.params.names():
            model.params.value(name)[...] += rng.standard_normal(
                model.params.value(name).shape
            )
        path = tmp_path / "model.ckpt"
        model.save(path)
        loaded = EmbeddingModel.load(path)
        assert loaded.config == model.config
        for name in model.params.names():
            assert np.array_equal(loaded.params.value(name), model.params.value(name))

    def test_failed_save_keeps_old_file_and_leaves_no_temp(self, tmp_path, monkeypatch):
        model = small_model(seed=14)
        path = tmp_path / "model.ckpt"
        model.save(path)
        good = path.read_bytes()

        def failing_replace(src, dst):
            raise RuntimeError("injected failure")

        monkeypatch.setattr(mlembed.model.os, "replace", failing_replace)
        with pytest.raises(RuntimeError, match="injected"):
            model.save(path)
        assert path.read_bytes() == good
        assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]

    def test_save_load_save_identical_bytes(self, tmp_path):
        model = small_model(seed=13)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        model.save(p1)
        EmbeddingModel.load(p1).save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_array_data_is_each_slot_as_f8_in_header_order(self, tmp_path):
        model = small_model(hidden_sizes=(5, 7), label_count=3, seed=17)
        model.params.values[:] = np.random.default_rng(18).standard_normal(model.params.values.size)
        path = tmp_path / "model.ckpt"
        model.save(path)
        raw = path.read_bytes()
        (length,) = struct.unpack("<Q", raw[8:16])
        arrays = json.loads(raw[16 : 16 + length])["arrays"]
        assert [a["name"] for a in arrays] == [
            "W0", "c0", "W1", "c1", "proj_W", "proj_b",
            "head0_W", "head0_b", "head1_W", "head1_b", "head2_W", "head2_b",
        ]
        expected = b"".join(
            model.params.value(a["name"]).astype("<f8").tobytes() for a in arrays
        )
        assert raw[16 + length :] == expected

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(DataFormatError):
            EmbeddingModel.load(path)

    def test_truncated_file_rejected(self, tmp_path):
        model = small_model(seed=14)
        path = tmp_path / "model.ckpt"
        model.save(path)
        data = path.read_bytes()
        path.write_bytes(data[:-16])
        with pytest.raises(DataFormatError, match="truncated"):
            EmbeddingModel.load(path)

    @pytest.mark.parametrize("keep", [8, 12, 16, 40])
    def test_truncated_header_rejected(self, tmp_path, keep):
        # cut after the magic (8), inside the length field (12) or in the JSON header (16, 40)
        model = small_model(seed=14)
        path = tmp_path / "model.ckpt"
        model.save(path)
        path.write_bytes(path.read_bytes()[:keep])
        with pytest.raises(DataFormatError, match="truncated header"):
            EmbeddingModel.load(path)

    def test_header_length_past_end_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<Q", 2**62) + b"{}")
        with pytest.raises(DataFormatError, match="truncated header"):
            EmbeddingModel.load(path)

    @staticmethod
    def rewrite(path, edit_header=None, cut=0):
        """Rewrite a saved checkpoint with an edited header, dropping the last
        ``cut`` bytes of array data."""
        raw = path.read_bytes()
        (length,) = struct.unpack("<Q", raw[8:16])
        header = json.loads(raw[16 : 16 + length])
        if edit_header is not None:
            edit_header(header)
        blob = json.dumps(header).encode()
        data = raw[16 + length : len(raw) - cut]
        path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<Q", len(blob)) + blob + data)

    @pytest.fixture
    def saved(self, tmp_path):
        path = tmp_path / "model.ckpt"
        small_model(label_count=2, seed=16).save(path)
        return path

    def test_header_without_config_rejected(self, tmp_path):
        blob = json.dumps({"format_version": 1}).encode()
        path = tmp_path / "model.ckpt"
        path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<Q", len(blob)) + blob)
        with pytest.raises(DataFormatError, match="config"):
            EmbeddingModel.load(path)

    @pytest.mark.parametrize(
        "key, value",
        [("input_dim", "4"), ("hidden_sizes", 5), ("hidden_sizes", ["5"]),
         ("embedding_dim", 3.0), ("label_count", True), ("seed", None), ("seed", -1)],
    )
    def test_config_value_of_wrong_type_rejected(self, saved, key, value):
        self.rewrite(saved, lambda header: header["config"].update({key: value}))
        with pytest.raises(DataFormatError, match=key):
            EmbeddingModel.load(saved)

    @pytest.mark.parametrize("key", ["input_dim", "seed", "label_count"])
    def test_config_key_missing_rejected(self, saved, key):
        self.rewrite(saved, lambda header: header["config"].pop(key))
        with pytest.raises(DataFormatError, match=key):
            EmbeddingModel.load(saved)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("hidden_sizes", [10**30]),
            ("embedding_dim", 10**30),
            ("input_dim", 10**30),
            ("label_count", 10**30),
        ],
    )
    def test_config_beyond_any_array_rejected_before_allocating(self, saved, key, value):
        self.rewrite(saved, lambda header: header["config"].update({key: value}))
        with pytest.raises(DataFormatError, match=f"{key} is too large"):
            EmbeddingModel.load(saved)

    @pytest.mark.parametrize("version", [0, 2, "1", None])
    def test_unsupported_format_version_rejected(self, saved, version):
        self.rewrite(saved, lambda header: header.update(format_version=version))
        message = f"model.ckpt: unsupported format version {version}"
        with pytest.raises(DataFormatError, match=message):
            EmbeddingModel.load(saved)

    def test_unknown_config_key_rejected(self, saved):
        self.rewrite(saved, lambda header: header["config"].update(dropout=0.5))
        with pytest.raises(DataFormatError, match="dropout"):
            EmbeddingModel.load(saved)

    def test_omitted_array_rejected(self, saved):
        # leave the last slot out of the header and its bytes out of the data
        params = EmbeddingModel.load(saved).params
        last = params.value(params.names()[-1]).size * 8
        self.rewrite(saved, lambda header: header["arrays"].pop(), cut=last)
        with pytest.raises(DataFormatError):
            EmbeddingModel.load(saved)

    def test_array_entries_out_of_order_rejected(self, saved):
        self.rewrite(saved, lambda header: header["arrays"].reverse())
        with pytest.raises(DataFormatError, match="arrays"):
            EmbeddingModel.load(saved)

    def test_trailing_bytes_rejected(self, saved):
        saved.write_bytes(saved.read_bytes() + b"\0" * 8)
        with pytest.raises(DataFormatError, match="trailing"):
            EmbeddingModel.load(saved)

    @pytest.mark.parametrize("slot", ["W0", "proj_W", "head1_b"])
    def test_non_finite_array_value_rejected(self, saved, slot):
        # NaN in the last value of the slot, found from the header alone
        raw = bytearray(saved.read_bytes())
        (length,) = struct.unpack("<Q", raw[8:16])
        end = 16 + length
        for entry in json.loads(raw[16:end])["arrays"]:
            end += 8 * math.prod(entry["shape"])
            if entry["name"] == slot:
                break
        raw[end - 8 : end] = struct.pack("<d", float("nan"))
        saved.write_bytes(bytes(raw))
        with pytest.raises(DataFormatError, match=f"non-finite value in array '{slot}'"):
            EmbeddingModel.load(saved)

    def test_huge_config_rejected_before_allocating(self, saved):
        # 10^12 weights: the reader must notice the file cannot hold them
        huge = {"input_dim": 10**6, "hidden_sizes": [10**6]}
        self.rewrite(saved, lambda header: header["config"].update(huge))
        with pytest.raises(DataFormatError, match="truncated"):
            EmbeddingModel.load(saved)

    @settings(max_examples=300, deadline=None)
    @given(st.binary(max_size=400))
    def test_any_bytes_after_magic_load_or_raise_data_format_error(self, tmp_path_factory, tail):
        path = tmp_path_factory.mktemp("fuzz") / "f.ckpt"
        path.write_bytes(CHECKPOINT_MAGIC + tail)
        try:
            model = EmbeddingModel.load(path)
        except DataFormatError:
            return
        assert isinstance(model, EmbeddingModel)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_any_header_json_loads_or_raises_data_format_error(self, tmp_path_factory, data):
        # structured headers reach further into the reader than random bytes
        scalars = st.none() | st.booleans() | st.integers(-3, 10**12) | st.floats() | st.text(max_size=5)
        json_values = st.recursive(
            scalars,
            lambda inner: st.lists(inner, max_size=4)
            | st.dictionaries(st.text(max_size=12), inner, max_size=4),
            max_leaves=12,
        )
        keys = ("input_dim", "hidden_sizes", "embedding_dim", "label_count", "seed")
        config = data.draw(
            st.fixed_dictionaries({}, optional={k: json_values | st.integers(1, 6) for k in keys})
        )
        header = {"format_version": 1, "config": config, "arrays": data.draw(json_values)}
        blob = json.dumps(header).encode()
        tail = data.draw(st.binary(max_size=64))
        path = tmp_path_factory.mktemp("fuzz") / "h.ckpt"
        path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<Q", len(blob)) + blob + tail)
        try:
            EmbeddingModel.load(path)
        except DataFormatError:
            pass

    def test_deeply_nested_header_rejected(self, tmp_path):
        blob = b"[" * 100_000
        path = tmp_path / "model.ckpt"
        path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<Q", len(blob)) + blob)
        with pytest.raises(DataFormatError, match="header"):
            EmbeddingModel.load(path)

    def test_param_count_matches_slots(self):
        for label_count in (None, 3):
            model = small_model(hidden_sizes=(5, 7), label_count=label_count)
            sizes = sum(model.params.value(n).size for n in model.params.names())
            assert model.config.param_count == sizes

    def test_invalid_header_json_rejected(self, tmp_path):
        blob = b"{not json"
        path = tmp_path / "model.ckpt"
        path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<Q", len(blob)) + blob)
        with pytest.raises(DataFormatError, match="header"):
            EmbeddingModel.load(path)


class TestReinitProjection:
    def test_only_projection_changes(self):
        model = small_model(seed=15)
        before = model.params.values.copy()
        model.params.momentum("proj_W")[...] = 1.0
        model.reinit_projection(seed=99)
        changed = np.flatnonzero(model.params.values != before)
        assert {model.params.locate(int(i))[0] for i in changed} == {"proj_W", "proj_b"}
        assert not model.params.momentum("proj_W").any()


class TestEncoderConfig:
    def test_dict_round_trip(self):
        cfg = EncoderConfig(input_dim=4, hidden_sizes=(5, 6), embedding_dim=3, label_count=2, seed=7)
        raw = cfg.as_dict()
        assert list(raw) == ["input_dim", "hidden_sizes", "embedding_dim", "label_count", "seed"]
        assert raw["hidden_sizes"] == [5, 6]
        assert EncoderConfig.from_dict(json.loads(json.dumps(raw))) == cfg

    @pytest.mark.parametrize(
        "raw",
        [[4, [5], 3, None, 0], ["embedding_dim", "hidden_sizes", "input_dim", "label_count", "seed"]],
    )
    def test_from_dict_rejects_non_object(self, raw):
        with pytest.raises(DataFormatError):
            EncoderConfig.from_dict(raw)

    def test_wrong_type_is_config_error(self):
        with pytest.raises(ConfigError, match="input_dim"):
            EncoderConfig(input_dim="4")


    def test_size_bound_is_the_largest_indexable_float64_array(self):
        check_size("n", MAX_ARRAY_ELEMENTS)
        with pytest.raises(ConfigError, match="n is too large"):
            check_size("n", MAX_ARRAY_ELEMENTS + 1)

    @pytest.mark.parametrize(
        "hidden_sizes, embedding_dim, named",
        [((2**60,), 3, "hidden_sizes"), ((5, 2**60), 3, "hidden_sizes"), ((5,), 2**60, "embedding_dim")],
    )
    def test_layer_beyond_any_array_names_its_key(self, hidden_sizes, embedding_dim, named):
        with pytest.raises(ConfigError, match=f"{named} is too large"):
            EncoderConfig(input_dim=4, hidden_sizes=hidden_sizes, embedding_dim=embedding_dim)

    def test_invalid_embedding_dim(self):
        with pytest.raises(ConfigError):
            EncoderConfig(input_dim=4, hidden_sizes=(5,), embedding_dim=1)

    def test_invalid_hidden_sizes(self):
        with pytest.raises(ConfigError):
            EncoderConfig(input_dim=4, hidden_sizes=(), embedding_dim=3)
