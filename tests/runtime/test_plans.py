"""Tests for the grammar and record that fault and chaos plans share."""

import json
import re

import pytest

from repro.errors import ConfigurationError
from repro.runtime.chaos import ChaosPlan, parse_chaos_plan
from repro.runtime.faults import FaultPlan, parse_fault_plan

#: plan kind -> (parser, plan class, an event kind, what ``@n`` names,
#: the JSON key, the spec class name)
PLANS = {
    "fault": (parse_fault_plan, FaultPlan, "transient_dma", "iteration",
              "faults", "FaultSpec"),
    "chaos": (parse_chaos_plan, ChaosPlan, "task_exception", "task id",
              "chaos", "ChaosSpec"),
}

CASES = ("bad_option", "bad_at", "bad_value", "bad_seed", "empty",
         "missing_file", "bad_json", "bad_spec", "not_a_spec")


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("noun", sorted(PLANS))
def test_plan_rejects(noun, case):
    parse, plan_type, kind, at_noun, json_key, spec_name = PLANS[noun]
    attempts = {
        "bad_option": (lambda: parse(f"{kind}@1:wat=1"),
                       f"bad {noun} option 'wat=1' in '{kind}@1:wat=1' "
                       f"(expected "),
        "bad_at": (lambda: parse(f"{kind}@soon"),
                   f"bad {noun} {at_noun} 'soon' in '{kind}@soon'"),
        "bad_value": (lambda: parse(f"{kind}@1:p=lots"),
                      f"bad value 'lots' for 'p' in '{kind}@1:p=lots'"),
        "bad_seed": (lambda: parse(f"{kind}@1;seed=x"),
                     "bad value 'x' for 'seed' in 'seed=x'"),
        "empty": (lambda: parse("  ;  "),
                  f"{noun} plan ';' contains no events"),
        "missing_file": (lambda: parse("@/nonexistent/plan.json"),
                         f"cannot read {noun} plan '/nonexistent/plan.json'"),
        "bad_json": (lambda: plan_type.from_json("not json"),
                     f"invalid {noun}-plan JSON"),
        "bad_spec": (lambda: plan_type.from_json(
                         json.dumps({json_key: [{"bogus": 1}]})),
                     f"invalid {noun} spec"),
        "not_a_spec": (lambda: plan_type([kind]),
                       f"{plan_type.__name__} specs must be {spec_name} "
                       f"instances, got str"),
    }
    attempt, message = attempts[case]
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        attempt()
