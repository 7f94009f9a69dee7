"""A property test over config._SCHEMA: whatever config the command line is
given, it ends in exit 0, 1 or 2, with no traceback and a reason for an
error exit."""

import contextlib
import io
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hartorus import cli
from hartorus.config import _F_KINDS, _SCHEMA, _W_KINDS, EXPERIMENT_KINDS

# a tiny valid run of every kind; a draw sets the grid, overrides some keys
# and may drop one
_TINY = {"f.kind": "fermi", "w.kind": "delta", "pert.amplitude": "1e-3", "T": "0.02",
         "dt": "0.01", "obs.stride": "1", "picard.steps": "2", "picard.iters": "2",
         "picard.substeps": "1", "tau.count": "3", "xi.count": "3", "scan.count": "16",
         "fuzz.count": "8", "norms.fields": "1", "twowave.m": "1.0"}
# the counts of work (steps of dt in T, iterations, substeps, fields) are drawn
# small: a large one asks for a long run, which is no failure.  Every other
# count also takes huge values, which the memory preflight must refuse
# before it allocates anything of their size
_WORK = {"T", "dt", "picard.iters", "picard.substeps", "norms.fields"}
_HUGE = [2 ** 40, 2 ** 62, 10 ** 30]
_EDGES = ["0", "-0.0", "-1", "1e-300", "1e300", "-1e300", "nan", "inf", "-inf"]


def _value(key):
    """Text for key: valid values, the schema's boundaries, non-finite floats,
    huge counts and a malformed word."""
    conv = _SCHEMA[key][0]
    if conv is str:
        return st.sampled_from(list({"f.kind": _F_KINDS, "w.kind": _W_KINDS}[key]) + ["none"])
    if conv is int:
        ints = st.integers(-2, 9) if key in _WORK else st.integers(-2, 9) | st.sampled_from(_HUGE)
        return ints.map(str) | st.just("1.5")
    if key in _WORK:
        return st.sampled_from(["0.01", "0.015", "0.02", "0", "-0.01", "nan", "inf", "-inf"])
    floats = st.floats(0.05, 4.0).map(repr) | st.sampled_from(_EDGES) | st.just("x")
    if conv is float:
        return floats
    return st.lists(floats, max_size=4).map(",".join)


@st.composite
def _configs(draw):
    d = draw(st.integers(1, 4))
    N = draw(st.sampled_from([2, 4, 8] if d < 4 else [2, 4]))
    values = dict(_TINY, **{"grid.d": str(d), "grid.N": str(N),
                            "twowave.xi": ",".join(["1.0"] + ["0.0"] * (d - 1))})
    for key in draw(st.lists(st.sampled_from(sorted(_SCHEMA)), max_size=3, unique=True)):
        values[key] = draw(_value(key))
    if draw(st.integers(0, 9)) == 0:
        del values[draw(st.sampled_from(sorted(values)))]
    return "".join(f"{key} = {value}\n" for key, value in values.items())


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
@settings(max_examples=25, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(text=_configs())
def test_every_config_exits_zero_one_or_two_with_a_reason(kind, text):
    # an exception out of cli.main fails the test with its traceback; an
    # error exit prints one error line, or one line per config violation
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        with open(f"{tmp}/run.cfg", "w", encoding="utf-8") as fh:
            fh.write(text)
        code = cli.main([kind, "--config", f"{tmp}/run.cfg", "--out", f"{tmp}/out"])
    lines = err.getvalue().splitlines()
    assert code in (0, 1, 2)
    if lines:  # a refusal, or a run stopped by non-finite values
        assert code in (1, 2) and not out.getvalue(), (code, lines)
        assert (len(lines) == 1 and lines[0].startswith("error: ")
                or code == 2 and all(line.startswith("config error: ") for line in lines)), lines
    else:  # a run, with its verdicts
        assert code in (0, 1) and out.getvalue().splitlines()[-1].startswith("envelope: ")
