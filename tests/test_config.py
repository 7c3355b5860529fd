"""Config files, flag overrides, validation, and the data hash."""

from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from wifi_proximity.config import (
    ConfigError,
    PipelineConfig,
    build_config,
    load_config,
    parse_config_file,
)
from wifi_proximity.records import TS_END
from wifi_proximity.synthgen import WorldConfig, build_layout


class TestParseFile:
    def test_key_value_lines(self, tmp_path):
        p = tmp_path / "c.conf"
        p.write_text("delta_t_s = 600\n\n# a comment\nseed=3   # trailing\n")
        assert parse_config_file(p) == {"delta_t_s": "600", "seed": "3"}

    def test_bad_line_reports_position(self, tmp_path):
        p = tmp_path / "c.conf"
        p.write_text("delta_t_s = 600\nnot a pair\n")
        with pytest.raises(ConfigError, match=":2:"):
            parse_config_file(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            parse_config_file(tmp_path / "nope.conf")


class TestBuildConfig:
    def test_defaults(self):
        cfg = build_config()
        assert cfg.delta_t_s == 300
        assert cfg.featureset == "FULL" and cfg.model == "gbt"
        assert cfg.world.n_users == 200

    def test_file_values_coerced(self):
        cfg = build_config({"delta_t_s": "120", "alpha": "0.01",
                            "strict_parse": "true", "campus_ssid": "corp",
                            "world.n_users": "50",
                            "world.group_size_cycle": "2, 3"})
        assert cfg.delta_t_s == 120 and cfg.alpha == 0.01
        assert cfg.strict_parse is True and cfg.campus_ssid == "corp"
        assert cfg.world.n_users == 50
        assert cfg.world.group_size_cycle == (2, 3)

    def test_overrides_beat_file(self):
        cfg = build_config({"seed": "1"}, {"seed": 9})
        assert cfg.seed == 9

    def test_none_overrides_ignored(self):
        cfg = build_config({"seed": "1"}, {"seed": None})
        assert cfg.seed == 1

    def test_world_inherits_pipeline_seed(self):
        cfg = build_config({"seed": "5"})
        assert cfg.world.seed == 5

    def test_explicit_world_seed_wins(self):
        cfg = build_config({"seed": "5", "world.seed": "7"})
        assert cfg.world.seed == 7 and cfg.seed == 5

    def test_the_world_broadcasts_the_pipelines_campus_ssid(self):
        """The campus routers broadcast the ssid that featurize looks for,
        and the world has no campus ssid key of its own."""
        cfg = build_config({"campus_ssid": "corp"})
        ssids = set(build_layout(cfg.world, np.random.default_rng(0)).router_ssid)
        assert "corp" in ssids and "dtu" not in ssids
        with pytest.raises(ConfigError, match="unknown world config key: world.campus_ssid"):
            build_config({"world.campus_ssid": "corp"})

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            build_config({"delta_t": "300"})
        with pytest.raises(ConfigError, match="unknown config key: jobs"):
            build_config({"jobs": "1"})
        with pytest.raises(ConfigError, match="unknown world config key"):
            build_config({"world.nope": "1"})

    def test_bad_values_rejected(self):
        with pytest.raises(ConfigError, match="bad value"):
            build_config({"delta_t_s": "soon"})
        with pytest.raises(ConfigError, match="bad value"):
            build_config({"strict_parse": "maybe"})

    def test_world_validation_surfaces_as_configerror(self):
        with pytest.raises(ConfigError, match="world"):
            build_config({"world.n_users": "0"})


class TestValidation:
    @pytest.mark.parametrize("kwargs", [
        {"delta_t_s": 0},
        {"home_bin_minutes": -5},
        {"ambiguous_ssid_threshold": 1},
        {"alpha": 0.0},
        {"alpha": 1.0},
        {"train_size": 0.0},
        {"train_size": 1.0},
        {"featureset": "KITCHEN_SINK"},
        {"model": "svm"},
        {"tz_offset_s": 86400},
        {"tz_offset_s": -86400},
        {"seed": -1},
        {"delta_t_s": TS_END + 1},
    ])
    def test_rejects(self, kwargs):
        with pytest.raises(ConfigError):
            PipelineConfig(**kwargs)

    def test_the_widest_delta_t_is_accepted(self):
        # no two timestamps ingest accepts lie further apart
        assert PipelineConfig(delta_t_s=TS_END).delta_t_s == TS_END

    def test_model_aliases(self):
        assert PipelineConfig(model="gbt").model_kind == "gradient-boosted"
        assert PipelineConfig(model="rf").model_kind == "random-forest"
        assert PipelineConfig(model="gradient-boosted").model_kind == "gradient-boosted"


class TestDataHash:
    def test_stable_across_evaluation_knobs(self):
        # featureset/model/grid pick what to train, not what the data
        # is; artifacts for different models must share the hash
        base = PipelineConfig()
        assert base.data_hash() == PipelineConfig(featureset="NEARME").data_hash()
        assert base.data_hash() == PipelineConfig(model="rf").data_hash()
        assert base.data_hash() == PipelineConfig(grid=True).data_hash()
        assert base.data_hash() == PipelineConfig(strict_parse=True).data_hash()

    def test_changes_with_data_shaping_values(self):
        base = PipelineConfig().data_hash()
        assert PipelineConfig(delta_t_s=600).data_hash() != base
        assert PipelineConfig(seed=1).data_hash() != base
        assert PipelineConfig(train_size=0.6).data_hash() != base

    def test_changes_with_world(self):
        base = PipelineConfig().data_hash()
        assert PipelineConfig(world=WorldConfig(n_users=100)).data_hash() != base

    def test_pinned_values(self, tiny_world):
        """Every artifact carries this hash, so a new or renamed field
        shows here before it restamps every run."""
        assert PipelineConfig().data_hash() == "c0d1c1cfe668"
        assert PipelineConfig(seed=7, world=tiny_world).data_hash() == "ae9c6fde892f"


class TestLoadConfig:
    def test_file_plus_overrides(self, tmp_path):
        p = tmp_path / "c.conf"
        p.write_text("seed = 2\ndelta_t_s = 600\n")
        cfg = load_config(p, {"delta_t_s": 120})
        assert cfg.seed == 2 and cfg.delta_t_s == 120

    def test_no_file(self):
        assert load_config(None, {"seed": 3}).seed == 3

    def test_example_file_lists_the_defaults_and_every_pipeline_key(self):
        example = Path(__file__).resolve().parents[1] / "scripts" / "example.conf"
        assert load_config(example) == load_config(None)
        keys = {f.name for f in fields(PipelineConfig)} - {"world"}
        # every world key too; world.seed only in a comment, since setting
        # it would stop the pipeline seed from reaching the world, and no
        # world.campus_ssid, which is not a key: the world takes campus_ssid
        keys |= {f"world.{f.name}" for f in fields(WorldConfig)} - {"world.seed",
                                                                   "world.campus_ssid"}
        assert keys <= set(parse_config_file(example))
        assert "# world.seed = 0\n" in example.read_text(encoding="utf-8")
