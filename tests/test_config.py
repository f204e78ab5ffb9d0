"""Key-value config parsing, overrides, and the pipeline config contract."""

import dataclasses
import re

import pytest

from saco.config import (
    PipelineConfig,
    apply_overrides,
    parse_config_text,
    read_config_file,
)
from saco.errors import InvalidConfigError


class TestParsing:
    def test_basic_pairs(self):
        got = parse_config_text("seed = 3\ndict_size=20\n  k_nn =  7 \n")
        assert got == {"seed": "3", "dict_size": "20", "k_nn": "7"}

    def test_comments_and_blanks(self):
        text = "# full line comment\n\nseed = 4  # trailing comment\n   \n"
        assert parse_config_text(text) == {"seed": "4"}

    def test_later_keys_win(self):
        assert parse_config_text("a = 1\na = 2\n") == {"a": "2"}

    def test_value_may_contain_equals(self):
        assert parse_config_text("expr = a=b\n") == {"expr": "a=b"}

    def test_missing_equals(self):
        with pytest.raises(InvalidConfigError, match="line 2"):
            parse_config_text("a = 1\nbroken line\n")

    def test_empty_key(self):
        with pytest.raises(InvalidConfigError, match="empty key"):
            parse_config_text("= 5\n")

    def test_read_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed = 11\n# note\nsvm_reg = 0.5\n")
        assert read_config_file(path) == {"seed": "11", "svm_reg": "0.5"}


class TestOverrides:
    def test_merge_order(self):
        base = {"seed": "1", "k_nn": "5"}
        merged = apply_overrides(base, ["seed=9", "dict_size = 12"])
        assert merged == {"seed": "9", "k_nn": "5", "dict_size": "12"}
        assert base["seed"] == "1"  # input untouched

    def test_none_is_noop(self):
        assert apply_overrides({"a": "1"}, None) == {"a": "1"}

    def test_malformed_override(self):
        with pytest.raises(InvalidConfigError):
            apply_overrides({}, ["justakey"])

    @pytest.mark.parametrize("override", ["seed=9", " dict_size = 12 ", "expr = a=b",
                                          "k_nn = 7 # note", "# all comment", "=5", "justakey"])
    def test_an_override_reads_as_one_config_line(self, override):
        base = {"seed": "1", "k_nn": "5"}
        try:
            want = {**base, **parse_config_text(override)}
        except InvalidConfigError as exc:
            with pytest.raises(InvalidConfigError, match=f"^{re.escape(str(exc))}$"):
                apply_overrides(base, [override])
        else:
            assert apply_overrides(base, [override]) == want


class TestPipelineConfig:
    def test_mapping_roundtrip(self):
        cfg = PipelineConfig(seed=5, dict_size=17, spatial_weighting=False,
                             svm_reg=0.25, coder="saco1")
        again = PipelineConfig.from_mapping(cfg.as_mapping())
        assert again == cfg

    def test_from_mapping_parses_types(self):
        cfg = PipelineConfig.from_mapping(
            {"seed": "7", "spatial_sigma": "0.5", "spatial_weighting": "off",
             "selection": "random"}
        )
        assert cfg.seed == 7
        assert cfg.spatial_sigma == 0.5
        assert cfg.spatial_weighting is False
        assert cfg.selection == "random"

    @pytest.mark.parametrize("raw,value", [("1", True), ("true", True), ("YES", True),
                                           ("0", False), ("off", False), ("No", False)])
    def test_bool_spellings(self, raw, value):
        assert PipelineConfig.from_mapping({"spatial_weighting": raw}).spatial_weighting is value

    def test_unknown_key_rejected(self):
        with pytest.raises(InvalidConfigError, match="unknown config key"):
            PipelineConfig.from_mapping({"not_a_field": "3"})

    def test_bad_value_rejected(self):
        with pytest.raises(InvalidConfigError, match="seed"):
            PipelineConfig.from_mapping({"seed": "three"})
        with pytest.raises(InvalidConfigError):
            PipelineConfig.from_mapping({"spatial_weighting": "maybe"})

    def test_field_validation(self):
        with pytest.raises(InvalidConfigError):
            PipelineConfig(selection="best")
        with pytest.raises(InvalidConfigError):
            PipelineConfig(coder="magic")
        with pytest.raises(InvalidConfigError):
            PipelineConfig(dict_size=0)
        with pytest.raises(InvalidConfigError):
            PipelineConfig(k_nn=-3)

    @pytest.mark.parametrize("key", ["candidates_per_image", "patches_per_image", "k_nn",
                                     "dict_size", "svm_epochs"])
    @pytest.mark.parametrize("value", [2.5, True])
    def test_counts_must_be_integers(self, key, value):
        # dict_size = 2.5 once failed only in the select stage, after sampling
        # and both graphs; construction now fails before any stage runs
        with pytest.raises(InvalidConfigError, match=f"{key} must be an integer, got {value!r}"):
            PipelineConfig(**{key: value})

    @pytest.mark.parametrize("seed", [1.5, True, -1])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        # seed = 1.5 once ran as seed 1 while every artifact header echoed 1.5
        with pytest.raises(InvalidConfigError,
                           match=f"seed must be a non-negative integer, got {seed!r}"):
            PipelineConfig(seed=seed)

    @pytest.mark.parametrize("key,value", [
        ("weight_kernel", "gauss"), ("weight_scale", 0.0), ("weight_epsilon", -0.1),
        ("spatial_sigma", 0.0), ("spatial_sigma", float("nan")), ("svm_reg", 0.0),
        ("lambda_s", -1.0), ("lambda_c", float("inf")), ("lambda1", -0.1), ("lambda2", -1.0),
        ("lambda1", float("nan")), ("lambda2", float("nan")), ("weight_scale", float("nan")),
        ("weight_epsilon", float("nan")), ("svm_reg", float("inf")),
        ("spatial_sigma", float("inf")), ("weight_scale", float("inf")),
        ("weight_epsilon", float("inf")), ("lambda1", float("inf")),
        ("lambda_s", True), ("svm_reg", True), ("weight_epsilon", True), ("lambda1", "x"),
        ("spatial_sigma", "x"), ("weight_scale", "x"), ("lambda_d", None), ("svm_reg", None),
        ("weight_epsilon", None),
    ])
    def test_stage_values_rejected_at_construction(self, key, value):
        with pytest.raises(InvalidConfigError, match=key):
            PipelineConfig(**{key: value})

    def test_echo_lines_sorted_and_complete(self):
        cfg = PipelineConfig()
        lines = cfg.echo_lines()
        keys = [ln.split(" = ")[0] for ln in lines]
        assert keys == sorted(keys)
        assert len(keys) == len(dataclasses.fields(PipelineConfig))
        assert "spatial_weighting = true" in lines

    def test_echo_roundtrips_through_parser(self):
        cfg = PipelineConfig(seed=3, lambda1=0.05)
        parsed = parse_config_text("\n".join(cfg.echo_lines()))
        assert PipelineConfig.from_mapping(parsed) == cfg
