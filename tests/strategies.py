"""Hypothesis strategies for arbitrary JSON run configurations."""

from hypothesis import strategies as st

from rumorsim import config

_BLOCK_FIELDS = {block: list(rules) for block, rules in config._SCHEMA.items()}
_NUMBERS = (
    st.integers()
    | st.integers(min_value=2**1024, max_value=2**1100)  # beyond the float range
    | st.floats()
)
_SCALARS = (
    _NUMBERS
    | st.none()
    | st.booleans()
    | st.sampled_from(["csv", "svg", "normal", "quantile", ""])
    | st.text(max_size=4)
)
_JSON = st.recursive(
    _SCALARS,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(
        st.sampled_from(_BLOCK_FIELDS["initial"]) | st.text(max_size=3), children, max_size=4
    ),
    max_leaves=12,
)
# objects whose blocks mostly carry known fields with numbers or lists of
# them, so values reach the checks behind the field names
_FIELD_VALUES = _NUMBERS | st.lists(_NUMBERS, max_size=3) | _JSON
CONFIGS = (
    st.fixed_dictionaries(
        {},
        optional={
            name: st.dictionaries(
                st.sampled_from(fields) | st.text(max_size=3), _FIELD_VALUES, max_size=4
            )
            | _JSON
            for name, fields in _BLOCK_FIELDS.items()
        },
    )
    | _JSON
)

# configs that mostly pass validation, so that runs start: short horizons
# and small counts, with parameters from across their ranges
_VALUES = st.sampled_from([0.0, 1e-300, 1e-9, 0.1, 0.5, 1.0, 2.0, 10.0, 1e6, 1e200])
_POSITIVE = st.sampled_from([1e-300, 1e-9, 0.1, 0.5, 2.0, 1e6, 1e200])
_COUNTS = st.integers(1, 5)


def _block(**fields):
    return st.fixed_dictionaries({}, optional=fields)


RUNNABLE_CONFIGS = st.fixed_dictionaries(
    {
        "integrator": st.fixed_dictionaries(
            {"horizon": st.sampled_from([0.1, 0.5, 1.0, 2.0, 5.0])},
            optional={
                "step_size": st.sampled_from([0.05, 0.1, 0.5]),
                "record_stride": st.sampled_from([1, 2, 5]),
                "projection_enabled": st.booleans(),
            },
        ),
        "sweep": st.fixed_dictionaries(
            {
                "taus": st.lists(st.sampled_from([0.0, 0.1, 1.0]), min_size=1, max_size=2),
                "r0_values": st.lists(_POSITIVE, min_size=1, max_size=2),
            },
            optional={"run_count": _COUNTS},
        ),
    },
    optional={
        "model": _block(
            beta=_VALUES, sigma_act=_POSITIVE, gamma=_POSITIVE, rho=_POSITIVE, theta=_POSITIVE,
            tau=st.sampled_from([0.0, 0.1, 0.5, 1e3]),
            noise=st.dictionaries(st.sampled_from(_BLOCK_FIELDS["initial"]), _VALUES),
        ),
        "ensemble": _block(
            run_count=_COUNTS,
            ci_level=st.sampled_from([1e-9, 0.5, 0.95, 1.0 - 2.0**-53]),
            ci_method=st.sampled_from(["quantile", "normal"]),
        ),
        "stability": _block(e0=_VALUES, i0=_VALUES, run_count=_COUNTS),
        "output": _block(formats=st.sampled_from([["csv"], ["svg"], ["csv", "svg"]])),
    },
)
