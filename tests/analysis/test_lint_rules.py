"""Per-rule fixture tests for the ``repro-lint`` AST analyzer.

Every rule has three fixture files under ``fixtures/``: a violation
file the rule must fire on, a corrected file it must stay silent on,
and a suppressed file where a ``# repro-lint: disable=Dxxx`` comment
silences a deliberate exception.
"""

from pathlib import Path

import pytest

from repro.analysis import RULES, lint_paths, lint_source

FIXTURES = Path(__file__).parent / "fixtures"
RULE_IDS = sorted(RULES)

#: Findings each violation fixture is built to produce.
EXPECTED_VIOLATIONS = {"D001": 2, "D002": 3, "D003": 3,
                       "D004": 2, "D005": 2, "D006": 2,
                       "L003": 2, "L006": 2}


def findings_for(name, rules=None):
    findings, files = lint_paths([FIXTURES / name], rules=rules)
    assert files, f"fixture {name} not found"
    return findings


def test_rule_catalog_matches_fixture_inventory():
    assert set(EXPECTED_VIOLATIONS) == set(RULE_IDS)
    for rule in RULE_IDS:
        meta = RULES[rule]
        assert meta.hint and meta.rationale and meta.title
        assert meta.severity in {"error", "warning"}


@pytest.mark.parametrize("rule", RULE_IDS)
def test_violation_fixture_fires(rule):
    findings = findings_for(f"{rule.lower()}_violation.py")
    assert {f.rule for f in findings} == {rule}
    assert len(findings) == EXPECTED_VIOLATIONS[rule]
    for finding in findings:
        assert finding.line > 0
        assert finding.hint  # every rule ships a fix-it hint


@pytest.mark.parametrize("rule", RULE_IDS)
def test_clean_fixture_is_silent(rule):
    assert findings_for(f"{rule.lower()}_clean.py") == []


@pytest.mark.parametrize("rule", RULE_IDS)
def test_suppression_comment_silences_the_line(rule):
    assert findings_for(f"{rule.lower()}_suppressed.py") == []


def test_rules_filter_restricts_output():
    assert findings_for("d001_violation.py", rules=["D002"]) == []
    assert findings_for("d001_violation.py", rules=["D001"])


def test_unknown_rule_id_raises():
    with pytest.raises(ValueError, match="D099"):
        lint_source("x = 1\n", rules=["D099"])


def test_bare_disable_suppresses_all_rules():
    source = "import time\nt = time.time()  # repro-lint: disable\n"
    assert lint_source(source) == []


def test_import_aliases_are_resolved():
    source = ("from time import perf_counter as pc\n"
              "def f():\n"
              "    return pc()\n")
    findings = lint_source(source)
    assert [f.rule for f in findings] == ["D001"]


def test_syntax_error_reports_parse_finding():
    findings = lint_source("def broken(:\n")
    assert [f.rule for f in findings] == ["PARSE"]
    assert findings[0].severity == "error"


def test_shipped_tree_is_clean():
    src = Path(__file__).resolve().parents[2] / "src" / "repro"
    findings, files = lint_paths([src])
    assert len(files) > 50
    assert findings == []


# -- suppression comment forms -----------------------------------------


def test_multi_rule_suppression_comment():
    source = ("import time\n"
              "def f(env):\n"
              "    t = time.time()  # repro-lint: disable=D001,L006\n"
              "    return t\n")
    assert lint_source(source) == []


def test_multi_rule_suppression_leaves_other_rules_armed():
    source = ("import time\n"
              "def f(env):\n"
              "    t = time.time()  # repro-lint: disable=D002,D003\n"
              "    return t\n")
    assert [f.rule for f in lint_source(source)] == ["D001"]


def test_rule_range_glob_suppression():
    source = ("def f(env):\n"
              "    yield env.timeout(1)\n"
              "    env.process(g())  # repro-lint: disable=L*\n")
    assert lint_source(source) == []


def test_rule_range_glob_does_not_cross_families():
    source = ("import time\n"
              "def f():\n"
              "    return time.time()  # repro-lint: disable=L*,P*\n")
    assert [f.rule for f in lint_source(source)] == ["D001"]


# -- --rules glob expansion --------------------------------------------


def test_rules_filter_accepts_globs():
    findings = findings_for("l006_violation.py", rules=["L*"])
    assert findings and {f.rule for f in findings} == {"L006"}
    assert findings_for("l006_violation.py", rules=["D*"]) == []


def test_rules_filter_unknown_glob_raises():
    with pytest.raises(ValueError, match="Z\\*"):
        lint_source("x = 1\n", rules=["Z*"])


# -- call-graph awareness (flow.ModuleGraph) ---------------------------


def test_local_assignment_alias_is_resolved():
    # The historical false negative: a wall-clock callable laundered
    # through a local binding used to dodge D001 entirely.
    source = ("import time\n"
              "_clock = time.perf_counter\n"
              "def f():\n"
              "    return _clock()\n")
    assert [f.rule for f in lint_source(source)] == ["D001"]


def test_blocking_helper_is_flagged_at_sim_call_site():
    # D004 used to require the blocking call to appear lexically inside
    # the generator; hiding it behind a local helper dodged the rule.
    source = ("import time\n"
              "def slow_parse(blob):\n"
              "    time.sleep(0.01)\n"
              "    return blob\n"
              "def worker(env, blob):\n"
              "    parsed = slow_parse(blob)\n"
              "    yield env.timeout(1.0)\n"
              "    return parsed\n")
    findings = [f for f in lint_source(source) if f.line == 6]
    assert [f.rule for f in findings] == ["D004"]
    assert "slow_parse" in findings[0].message
