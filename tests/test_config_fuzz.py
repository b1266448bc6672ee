"""Fuzz of the config text format: every valid config survives the
canonical round trip, and no text makes the parser fail with anything but
ConfigError. Controller parameters are drawn from the controller table, so
a new kind or key is fuzzed without touching this file."""

import math
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from zapvss.cli import ConfigError, canonical_config_text, parse_config_text
from zapvss.harness import AlgorithmConfig, ChannelSpec, ScenarioConfig
from zapvss.stepsize import KINDS, MEASURES, PARAMS

CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.cfg"))
FUZZ = settings(max_examples=100, deadline=None,
                suppress_health_check=[HealthCheck.too_slow,
                                       HealthCheck.filter_too_much])

# candidates per parameter type, kept to each key's rule by its check
_CANDIDATES = {
    float: st.floats(-0.5, 1.5) | st.floats(allow_nan=False),
    int: st.integers(-2, 1000) | st.integers(),
    str: st.sampled_from(MEASURES) | st.text(max_size=3),
}


def param_values(key):
    typ, ok = PARAMS[key][:2]
    return _CANDIDATES[typ].filter(ok)


@st.composite
def algorithms(draw, name):
    kind = draw(st.sampled_from(sorted(KINDS)))
    spec = KINDS[kind]
    keys = list(spec.required) + [k for k in spec.optional
                                  if draw(st.booleans())]
    return AlgorithmConfig(name, kind, {k: draw(param_values(k)) for k in keys})


seeds = st.integers(-3, 2**40)
paths = st.from_regex(r"[A-Za-z0-9_./]{1,12}", fullmatch=True)
channels = st.one_of(
    st.builds(ChannelSpec, kind=st.just("sparse"),
              active_count=st.integers(-3, 600), seed=seeds),
    st.builds(ChannelSpec, kind=st.just("dispersive"), seed=seeds,
              decay=st.floats(allow_nan=False)),
    st.builds(ChannelSpec, kind=st.just("file"), path=paths))
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@st.composite
def configs(draw):
    N = draw(st.integers(1, 10**6))
    change = N > 1 and draw(st.booleans())
    if change:
        # change_at at most the last recorded sample, so recovery has one
        record_every = draw(st.integers(1, N - 1))
        last = (N - 1) // record_every * record_every
        change_at = draw(st.integers(1, last))
    else:
        record_every, change_at = draw(st.integers(1, 10**6)), None
    names = draw(st.lists(st.from_regex(r"[A-Za-z0-9_.\-]{1,8}",
                                        fullmatch=True),
                          min_size=1, max_size=4, unique=True))
    return ScenarioConfig(
        L=draw(st.integers(2, 10**5)), N=N,
        snr_db=draw(st.floats(allow_nan=False).filter(
            lambda v: v != -math.inf)),
        mu=draw(positive),
        record_every=record_every, change_at=change_at,
        channel_before=draw(channels),
        channel_after=draw(channels) if change else None,
        algorithms=[draw(algorithms(name)) for name in names],
        seeds=draw(st.lists(st.integers(0, 2**63), min_size=1, max_size=5,
                            unique=True)))


def parse_or_config_error(text):
    try:
        return parse_config_text(text)
    except ConfigError:
        return None


# values that probe the converters and the checks behind them
TRICKY = st.sampled_from(["", "nan", "inf", "-inf", "1e999", "-1", "0",
                          "0.0", "1.5", "1", "x", "1,2", ",", "l1", "xi",
                          "sparse", "file", "lms", "you", "9" * 5000])


class TestConfigFuzz:
    @FUZZ
    @given(configs())
    def test_canonical_round_trip(self, cfg):
        assert parse_config_text(canonical_config_text(cfg)) == cfg

    @FUZZ
    @given(st.sampled_from(["sparse", "dispersive", "file"]),
           st.none() | st.integers(-3, 600), st.none() | seeds,
           st.just(0.0) | st.floats(allow_nan=False), st.none() | paths)
    def test_channel_spec_of_any_fields_round_trips_or_raises(
            self, kind, active_count, seed, decay, path):
        # every field drawn for every kind: a field the kind's config text
        # cannot carry must be rejected, not dropped
        try:
            cfg = ScenarioConfig(
                L=16, N=100, snr_db=30.0, mu=0.01,
                channel_before=ChannelSpec(kind, active_count, seed, decay,
                                           path),
                algorithms=[AlgorithmConfig("lms", "lms")], seeds=[1])
        except ValueError:
            return
        assert parse_config_text(canonical_config_text(cfg)) == cfg

    @FUZZ
    @given(st.text())
    def test_arbitrary_text_raises_only_config_error(self, text):
        parse_or_config_error(text)

    @FUZZ
    @given(configs(), st.data())
    def test_mutated_config_raises_only_config_error(self, cfg, data):
        lines = canonical_config_text(cfg).splitlines()
        i = data.draw(st.integers(0, len(lines) - 1))
        key, sep, _ = lines[i].partition("=")
        how = data.draw(st.sampled_from(["value", "line", "drop", "repeat"]))
        if how == "value" and sep:
            lines[i] = key + "=" + data.draw(TRICKY | st.text(max_size=12))
        elif how == "line":
            lines[i] = data.draw(st.text(max_size=20))
        elif how == "drop":
            del lines[i]
        else:
            lines.insert(i, lines[i])
        parse_or_config_error("\n".join(lines))

    @pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.stem)
    def test_each_line_dropped_or_repeated(self, path):
        lines = path.read_text().splitlines()
        for i in range(len(lines)):
            parse_or_config_error("\n".join(lines[:i] + lines[i + 1:]))
            parse_or_config_error("\n".join(lines[:i + 1] + lines[i:]))
